//===- ServiceTests.cpp - compile service and job-key fingerprints -------------===//
//
// Part of warp-swp.
//
// The compile service's acceptance tests: the job-key fingerprints (the
// exact program key sees ids but not names; every schedule-relevant
// machine or option change repels the key, cosmetic ones do not),
// single-flight dedup (including a leader whose program factory throws),
// and the determinism contract — memoized, coalesced, and batched
// compiles are bit-identical to bare compileProgram.
//
//===----------------------------------------------------------------------===//

#include "swp/Codegen/Compiler.h"
#include "swp/IR/IRBuilder.h"
#include "swp/Service/CompileService.h"
#include "swp/Support/Fingerprint.h"
#include "swp/Support/ThreadPool.h"
#include "swp/Workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>

using namespace swp;

namespace {

/// A pipelinable chain loop; \p SwapDecls reverses the declaration order
/// of the arrays (ids permute, structure does not), \p Renamed only
/// changes names.
std::unique_ptr<Program> chainProgram(bool SwapDecls = false,
                                      bool Renamed = false) {
  auto P = std::make_unique<Program>();
  IRBuilder B(*P);
  unsigned A, C;
  if (SwapDecls) {
    C = P->createArray(Renamed ? "out" : "c", RegClass::Float, 4096);
    A = P->createArray(Renamed ? "in" : "a", RegClass::Float, 4096);
  } else {
    A = P->createArray(Renamed ? "in" : "a", RegClass::Float, 4096);
    C = P->createArray(Renamed ? "out" : "c", RegClass::Float, 4096);
  }
  VReg K = P->createVReg(RegClass::Float, Renamed ? "scale" : "k",
                         /*LiveIn=*/true);
  ForStmt *L = B.beginForImm(0, 1023);
  VReg V = B.fload(A, B.ix(L));
  V = B.fmul(V, K);
  V = B.fadd(V, K);
  V = B.fmul(V, K);
  B.fstore(C, B.ix(L), V);
  B.endFor();
  return P;
}

//===----------------------------------------------------------------------===//
// Job-key fingerprints
//===----------------------------------------------------------------------===//

TEST(Fingerprint, ExactKeySeesIdsNotNames) {
  // The result-memo key must see an id swap (emitted code addresses
  // arrays by id) but not a rename (names never reach the code).
  auto P1 = chainProgram();
  auto P2 = chainProgram(/*SwapDecls=*/true, /*Renamed=*/true);
  EXPECT_NE(fingerprintProgramExact(*P1), fingerprintProgramExact(*P2));
  EXPECT_EQ(fingerprintProgramExact(*P1),
            fingerprintProgramExact(*chainProgram(false, true)));
}

TEST(Fingerprint, MachineSensitivity) {
  MachineDescription Base = MachineDescription::warpCell();
  Fingerprint FP0 = fingerprintMachine(Base);

  MachineDescription Lat = MachineDescription::warpCell();
  OpcodeInfo Info = Lat.opcodeInfo(Opcode::FAdd);
  Info.Latency += 1;
  Lat.setOpcodeInfo(Opcode::FAdd, Info);
  EXPECT_NE(fingerprintMachine(Lat), FP0) << "latency change must miss";

  MachineDescription Res = MachineDescription::warpCell();
  Res.addResource("extra", 2);
  EXPECT_NE(fingerprintMachine(Res), FP0) << "resource change must miss";

  MachineDescription Regs = MachineDescription::warpCell();
  Regs.setRegisterFileSizes(Regs.registerFileSize(RegClass::Float) + 1,
                            Regs.registerFileSize(RegClass::Int));
  EXPECT_NE(fingerprintMachine(Regs), FP0) << "register file change must miss";

  // Labels and clock scale reports, never schedules.
  MachineDescription Cosmetic = MachineDescription::warpCell();
  Cosmetic.setName("renamed");
  Cosmetic.setClockMHz(123.0);
  EXPECT_EQ(fingerprintMachine(Cosmetic), FP0);
}

TEST(Fingerprint, OptionSensitivity) {
  CompilerOptions Base;
  Fingerprint FP0 = fingerprintScheduleOptions(Base);
  unsigned Changed = 0;
  auto expectDiffers = [&](auto Mutate, const char *What) {
    CompilerOptions O;
    Mutate(O);
    EXPECT_NE(fingerprintScheduleOptions(O), FP0) << What;
    ++Changed;
  };
  expectDiffers([](CompilerOptions &O) { O.EnablePipelining = false; },
                "EnablePipelining");
  expectDiffers([](CompilerOptions &O) { O.MVE = MVEPolicy::MinRegisters; },
                "MVE");
  expectDiffers([](CompilerOptions &O) { O.MaxLoopLenToPipeline = 7; },
                "MaxLoopLenToPipeline");
  expectDiffers([](CompilerOptions &O) { O.EfficiencyThreshold = 0.5; },
                "EfficiencyThreshold");
  expectDiffers([](CompilerOptions &O) { O.MaxUnroll = 2; }, "MaxUnroll");
  expectDiffers([](CompilerOptions &O) { O.ScalarOptimizations = false; },
                "ScalarOptimizations");
  expectDiffers([](CompilerOptions &O) { O.PipelineConditionalLoops = false; },
                "PipelineConditionalLoops");
  expectDiffers([](CompilerOptions &O) { O.MinLadderRung = 1; },
                "MinLadderRung");
  expectDiffers([](CompilerOptions &O) { O.Sched.BinarySearch = true; },
                "Sched.BinarySearch");
  expectDiffers([](CompilerOptions &O) { O.Sched.MaxStages = 3; },
                "Sched.MaxStages");
  expectDiffers([](CompilerOptions &O) { O.Sched.MaxII = 5; },
                "Sched.MaxII");
  EXPECT_EQ(Changed, 11u);

  // Excluded knobs: execution strategy and report shape, not schedules.
  CompilerOptions Same;
  Same.ParanoidVerify = true;
  Same.Explain = true;
  Same.ChaosSeed = 42;
  Same.Budget.WallMs = 1000;
  EXPECT_EQ(fingerprintScheduleOptions(Same), FP0);
}

//===----------------------------------------------------------------------===//
// CompileService
//===----------------------------------------------------------------------===//

CompileJob kernelJob(const WorkloadSpec &Spec, const MachineDescription &MD,
                     const CompilerOptions &Opts) {
  CompileJob J;
  J.MD = &MD;
  J.Opts = Opts;
  J.Make = [&Spec] { return std::move(Spec.Make().Prog); };
  return J;
}

TEST(CompileService, MemoizesRepeatRequests) {
  MachineDescription MD = MachineDescription::warpCell();
  CompilerOptions Opts;
  CompileService Service;
  CompileJob J;
  J.MD = &MD;
  J.Opts = Opts;
  unsigned Built = 0;
  J.Make = [&Built] {
    ++Built;
    return chainProgram();
  };
  CompileResult R1 = Service.compileOne(J);
  CompileResult R2 = Service.compileOne(J);
  ASSERT_TRUE(R1.Ok);
  ASSERT_TRUE(R2.Ok);
  EXPECT_EQ(Service.stats().Compiles, 1u);
  EXPECT_EQ(Service.stats().MemoHits, 1u);
  EXPECT_EQ(Built, 2u) << "without a key, each request fingerprints once";
  EXPECT_EQ(vliwProgramToString(R1.Code, MD),
            vliwProgramToString(R2.Code, MD));

  // With a precomputed key the memo hit skips the factory entirely.
  J.Key = CompileService::jobKey(*chainProgram(), MD, Opts);
  CompileResult R3 = Service.compileOne(J);
  ASSERT_TRUE(R3.Ok);
  EXPECT_EQ(Built, 2u);
  EXPECT_EQ(Service.stats().MemoHits, 2u);
  EXPECT_EQ(vliwProgramToString(R3.Code, MD),
            vliwProgramToString(R1.Code, MD));
}

TEST(CompileService, SingleFlightCoalescesConcurrentDuplicates) {
  MachineDescription MD = MachineDescription::warpCell();
  CompilerOptions Opts;
  ThreadPool Pool(8); // one worker per job: every request starts
  CompileService::Config SC;
  SC.Pool = &Pool;
  SC.MemoizeResults = false; // leave only single-flight dedup
  CompileService Service(SC);
  std::vector<CompileJob> Jobs;
  Fingerprint Key = CompileService::jobKey(*chainProgram(), MD, Opts);
  for (int I = 0; I != 8; ++I) {
    CompileJob J;
    J.MD = &MD;
    J.Opts = Opts;
    // The leader's factory holds the flight open until the other seven
    // requests have registered as waiters, so the coalescing outcome is
    // exact, not a race. Keyed jobs never call Make on the waiter path.
    J.Make = [&Service] {
      auto Deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(60);
      while (Service.stats().Coalesced < 7 &&
             std::chrono::steady_clock::now() < Deadline)
        std::this_thread::yield();
      return chainProgram();
    };
    J.Key = Key; // all 8 enter the flight map under one key
    Jobs.push_back(J);
  }
  std::vector<CompileResult> Results = Service.compileBatch(Jobs);
  ASSERT_EQ(Results.size(), 8u);
  std::string Expected = vliwProgramToString(Results[0].Code, MD);
  for (const CompileResult &R : Results) {
    ASSERT_TRUE(R.Ok);
    EXPECT_EQ(vliwProgramToString(R.Code, MD), Expected);
  }
  ServiceStats SS = Service.stats();
  EXPECT_EQ(SS.Requests, 8u);
  EXPECT_EQ(SS.Compiles, 1u);
  EXPECT_EQ(SS.Coalesced, 7u);
}

TEST(CompileService, ThrowingFactoryReleasesCoalescedRequests) {
  // The batch runs on its own thread so that a request stranded on a
  // dead flight fails the bounded wait below instead of hanging the
  // suite. Everything it touches is shared with that thread, so a stuck
  // batch leaks the state rather than leaving it dangling.
  struct Batch {
    MachineDescription MD = MachineDescription::warpCell();
    ThreadPool Pool{2};
    std::unique_ptr<CompileService> Service;
    std::vector<CompileJob> Jobs;
    std::atomic<unsigned> Calls{0};
    std::promise<std::vector<CompileResult>> Done;
  };
  auto B = std::make_shared<Batch>();
  CompileService::Config SC;
  SC.Pool = &B->Pool;
  B->Service = std::make_unique<CompileService>(SC);
  Fingerprint Key = CompileService::jobKey(*chainProgram(), B->MD, {});
  Batch *Bp = B.get();
  for (int I = 0; I != 2; ++I) {
    CompileJob J;
    J.MD = &B->MD;
    J.Key = Key; // Keyed: the follower never calls the factory.
    // The leader's factory throws once the other request has coalesced
    // onto its flight.
    J.Make = [Bp]() -> std::unique_ptr<Program> {
      ++Bp->Calls;
      auto Deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (Bp->Service->stats().Coalesced < 1 &&
             std::chrono::steady_clock::now() < Deadline)
        std::this_thread::yield();
      throw std::runtime_error("source unavailable");
    };
    B->Jobs.push_back(J);
  }

  std::future<std::vector<CompileResult>> Done = B->Done.get_future();
  std::thread Runner(
      [B] { B->Done.set_value(B->Service->compileBatch(B->Jobs)); });
  if (Done.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
    Runner.detach();
    FAIL() << "a request coalesced onto a failed factory was never released";
  }
  Runner.join();
  std::vector<CompileResult> Results = Done.get();
  ASSERT_EQ(Results.size(), 2u);
  for (const CompileResult &R : Results) {
    EXPECT_FALSE(R.Ok);
    EXPECT_NE(R.Error.find("program factory failed: source unavailable"),
              std::string::npos)
        << R.Error;
  }
  ServiceStats SS = B->Service->stats();
  EXPECT_EQ(SS.Coalesced, 1u);
  EXPECT_EQ(SS.Compiles, 0u);
  EXPECT_EQ(B->Calls, 1u);

  // The failure was not memoized: a repeat request tries the factory again.
  CompileResult Again = B->Service->compileOne(B->Jobs[0]);
  EXPECT_FALSE(Again.Ok);
  EXPECT_EQ(B->Calls, 2u);
  EXPECT_EQ(B->Service->stats().MemoHits, 0u);
}

TEST(CompileService, BatchBitIdenticalToSerialUncached) {
  MachineDescription MD = MachineDescription::warpCell();
  CompilerOptions Opts;
  const std::vector<WorkloadSpec> &Kernels = livermoreKernels();
  ASSERT_FALSE(Kernels.empty());
  size_t N = std::min<size_t>(Kernels.size(), 6);

  std::vector<std::string> Ref(N);
  for (size_t I = 0; I != N; ++I) {
    BuiltWorkload W = Kernels[I].Make();
    CompileResult R = compileProgram(*W.Prog, MD, Opts);
    ASSERT_TRUE(R.Ok) << Kernels[I].Name;
    Ref[I] = vliwProgramToString(R.Code, MD);
  }

  CompileService Service;
  std::vector<CompileJob> Jobs;
  for (unsigned Dup = 0; Dup != 3; ++Dup)
    for (size_t I = 0; I != N; ++I)
      Jobs.push_back(kernelJob(Kernels[I], MD, Opts));
  std::vector<CompileResult> Results = Service.compileBatch(Jobs);
  ASSERT_EQ(Results.size(), 3 * N);
  for (size_t I = 0; I != Results.size(); ++I) {
    ASSERT_TRUE(Results[I].Ok);
    EXPECT_EQ(vliwProgramToString(Results[I].Code, MD), Ref[I % N])
        << Kernels[I % N].Name;
  }
  EXPECT_EQ(Service.stats().Compiles, N);
}

TEST(CompileService, BudgetedJobsBypassTheMemo) {
  MachineDescription MD = MachineDescription::warpCell();
  CompilerOptions Opts;
  Opts.Budget.MaxNodes = 1000000; // limited() => bypass
  CompileService Service;
  CompileJob J;
  J.MD = &MD;
  J.Opts = Opts;
  J.Make = [] { return chainProgram(); };
  Service.compileOne(J);
  Service.compileOne(J);
  EXPECT_EQ(Service.stats().Compiles, 2u);
  EXPECT_EQ(Service.stats().MemoHits, 0u);
}

TEST(CompileService, StatsJsonKeysSorted) {
  CompileService Service;
  std::string J = Service.stats().toJson();
  const char *KeysInOrder[] = {"coalesced", "compiles", "memo_hits",
                               "requests"};
  size_t Last = 0;
  for (const char *K : KeysInOrder) {
    size_t At = J.find(std::string("\"") + K + "\"");
    ASSERT_NE(At, std::string::npos) << K;
    EXPECT_GT(At, Last) << K;
    Last = At;
  }
}

} // namespace
