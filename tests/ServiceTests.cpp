//===- ServiceTests.cpp - compile service and job-key fingerprints -------------===//
//
// Part of warp-swp.
//
// The compile service's acceptance tests: the job-key fingerprints (the
// exact program key sees ids but not names; every schedule-relevant
// machine or option change repels the key, cosmetic ones do not), the
// memo (hits, budget bypass, byte budget and eviction, a throwing program
// factory never memoized), and the determinism contract — memoized and
// concurrent compiles are bit-identical to bare compileProgram.
//
//===----------------------------------------------------------------------===//

#include "swp/Codegen/Compiler.h"
#include "swp/IR/IRBuilder.h"
#include "swp/Service/CompileService.h"
#include "swp/Support/Fingerprint.h"
#include "swp/Support/ThreadPool.h"
#include "swp/Workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>

using namespace swp;

namespace {

/// A pipelinable chain loop over 0..\p Hi; \p SwapDecls reverses the
/// declaration order of the arrays (ids permute, structure does not),
/// \p Renamed only changes names.
std::unique_ptr<Program> chainProgram(bool SwapDecls = false,
                                      bool Renamed = false,
                                      int64_t Hi = 1023) {
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
  ForStmt *L = B.beginForImm(0, Hi);
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

TEST(CompileService, ThrowingFactoryIsNeverMemoized) {
  MachineDescription MD = MachineDescription::warpCell();
  CompileService Service;
  CompileJob J;
  J.MD = &MD;
  J.Key = CompileService::jobKey(*chainProgram(), MD, {});
  unsigned Calls = 0;
  J.Make = [&Calls]() -> std::unique_ptr<Program> {
    ++Calls;
    throw std::runtime_error("source unavailable");
  };
  // Each request reaches the factory: the failure was not memoized, so
  // the repeat gets a fresh attempt instead of a stored error.
  for (unsigned Attempt = 1; Attempt != 3; ++Attempt) {
    CompileResult R = Service.compileOne(J);
    EXPECT_FALSE(R.Ok);
    EXPECT_NE(R.Error.find("program factory failed: source unavailable"),
              std::string::npos)
        << R.Error;
    EXPECT_EQ(Calls, Attempt);
  }
  ServiceStats SS = Service.stats();
  EXPECT_EQ(SS.Requests, 2u);
  EXPECT_EQ(SS.Compiles, 0u);
  EXPECT_EQ(SS.MemoHits, 0u);
}

// Concurrent requests, duplicates included, reproduce serial compiles
// byte for byte. Two concurrent misses on one key may both compile, so
// the compile count is bounded, not exact.
TEST(CompileService, ConcurrentRequestsBitIdenticalToSerial) {
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
  std::vector<CompileResult> Results(Jobs.size());
  ThreadPool Pool(4);
  Pool.parallelFor(Jobs.size(), [&](size_t I) {
    Results[I] = Service.compileOne(Jobs[I]);
  });
  for (size_t I = 0; I != Results.size(); ++I) {
    ASSERT_TRUE(Results[I].Ok);
    EXPECT_EQ(vliwProgramToString(Results[I].Code, MD), Ref[I % N])
        << Kernels[I % N].Name;
  }
  ServiceStats SS = Service.stats();
  EXPECT_GE(SS.Compiles, N);
  EXPECT_LE(SS.Compiles, 3 * N);
  EXPECT_EQ(SS.MemoHits + SS.Compiles, 3 * N);
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

// The byte budget charges a result for the code its list stores: every
// stored (non-idle) instruction with its ops and AGU updates, plus one
// slot per instruction. A cap with room for two results evicts the least
// recent one on the third.
TEST(CompileService, ByteBudgetCountsOpsAndEvicts) {
  MachineDescription MD = MachineDescription::warpCell();
  const int64_t His[] = {1023, 2047, 4095};
  size_t MinBytes = SIZE_MAX, MaxBytes = 0;
  for (int64_t Hi : His) {
    CompileResult R = compileProgram(*chainProgram(false, false, Hi), MD);
    ASSERT_TRUE(R.Ok) << R.Error;
    const InstList &Code = R.Code.Insts;
    size_t OpBytes = Code.size() * sizeof(uint32_t);
    size_t Idle = 0;
    for (size_t I = 0; I != Code.size(); ++I) {
      if (Code.isIdle(I)) {
        ++Idle;
        continue;
      }
      const VLIWInst &Inst = Code[I];
      OpBytes += sizeof(VLIWInst) + Inst.Ops.size() * sizeof(MachOp) +
                 Inst.Agu.size() * sizeof(AguOp);
      for (const MachOp &M : Inst.Ops)
        ASSERT_FALSE(M.Uses.onHeap() || M.Index.Terms.onHeap() ||
                     M.Preds.onHeap());
    }
    EXPECT_GT(Idle, 0u) << "the chain's pipelined code has idle words";
    EXPECT_EQ(Code.bytes(), OpBytes);
    size_t Bytes = CompileService::resultBytes(R);
    EXPECT_GT(Bytes, OpBytes);
    MinBytes = std::min(MinBytes, Bytes);
    MaxBytes = std::max(MaxBytes, Bytes);
  }
  ASSERT_LT(2 * MaxBytes, 3 * MinBytes) << "the three results differ in size";

  CompileService::Config SC;
  SC.MemoShards = 1;
  SC.MemoMaxBytes = 2 * MaxBytes;
  CompileService Service(SC);
  auto Submit = [&](int64_t Hi) {
    CompileJob J;
    J.MD = &MD;
    J.Make = [Hi] { return chainProgram(false, false, Hi); };
    ASSERT_TRUE(Service.compileOne(J).Ok);
  };
  for (int64_t Hi : His)
    Submit(Hi);
  EXPECT_EQ(Service.stats().Compiles, 3u);
  // The two most recent results stayed; the first was evicted.
  Submit(His[2]);
  Submit(His[1]);
  EXPECT_EQ(Service.stats().MemoHits, 2u);
  Submit(His[0]);
  EXPECT_EQ(Service.stats().Compiles, 4u);
}

// A memo hit copies the result but not its code: the compile's own
// response, the memo entry and every hit read one instruction list, and
// each response still owns its report.
TEST(CompileService, MemoHitsShareTheCompiledCode) {
  MachineDescription MD = MachineDescription::warpCell();
  CompileService Service;
  CompileJob J;
  J.MD = &MD;
  J.Make = [] { return chainProgram(); };
  CompileResult Compiled = Service.compileOne(J);
  CompileResult Hit1 = Service.compileOne(J);
  CompileResult Hit2 = Service.compileOne(J);
  ASSERT_TRUE(Compiled.Ok && Hit1.Ok && Hit2.Ok);
  EXPECT_EQ(Service.stats().Compiles, 1u);
  EXPECT_EQ(Service.stats().MemoHits, 2u);
  const InstList &Code = Compiled.Code.Insts;
  ASSERT_FALSE(Code.empty());
  ASSERT_EQ(Hit1.Code.Insts.size(), Code.size());
  ASSERT_EQ(Hit2.Code.Insts.size(), Code.size());
  for (size_t I = 0; I != Code.size(); ++I) {
    EXPECT_EQ(&Hit1.Code.Insts[I], &Code[I]) << "instruction " << I;
    EXPECT_EQ(&Hit2.Code.Insts[I], &Code[I]) << "instruction " << I;
  }
  ASSERT_EQ(Compiled.Report.Loops.size(), 1u);
  ASSERT_EQ(Hit1.Report.Loops.size(), 1u);
  EXPECT_NE(Hit1.Report.Loops.data(), Compiled.Report.Loops.data());
  EXPECT_NE(Hit1.Report.Loops.data(), Hit2.Report.Loops.data());
  Hit1.Report.Loops.clear();
  EXPECT_EQ(Hit2.Report.Loops.size(), 1u);
  EXPECT_EQ(Compiled.Report.Loops.size(), 1u);
}

// A response keeps its code alive on its own: after the memo evicted the
// entry it came from, and after the service itself is gone, it still
// reads its own program's code.
TEST(CompileService, ResponseOutlivesItsEvictedMemoEntry) {
  MachineDescription MD = MachineDescription::warpCell();
  const std::string Want =
      vliwProgramToString(compileProgram(*chainProgram(), MD).Code, MD);
  ASSERT_NE(Want, vliwProgramToString(
                      compileProgram(*chainProgram(false, false, 2047), MD)
                          .Code,
                      MD));
  CompileResult Kept;
  {
    CompileService::Config SC;
    SC.MemoShards = 1;
    SC.MemoMaxEntries = 1;
    CompileService Service(SC);
    auto Submit = [&](int64_t Hi) {
      CompileJob J;
      J.MD = &MD;
      J.Make = [Hi] { return chainProgram(false, false, Hi); };
      return Service.compileOne(J);
    };
    ASSERT_TRUE(Submit(1023).Ok);
    Kept = Submit(1023);
    EXPECT_EQ(Service.stats().MemoHits, 1u);
    ASSERT_TRUE(Submit(2047).Ok); // Evicts the entry Kept came from.
    ASSERT_TRUE(Submit(1023).Ok); // So this one compiles again.
    EXPECT_EQ(Service.stats().Compiles, 3u);
    EXPECT_EQ(Service.stats().MemoHits, 1u);
  }
  ASSERT_TRUE(Kept.Ok);
  EXPECT_EQ(vliwProgramToString(Kept.Code, MD), Want);
}

TEST(CompileService, StatsJsonKeysSorted) {
  CompileService Service;
  std::string J = Service.stats().toJson();
  const char *KeysInOrder[] = {"compiles", "memo_hits", "requests"};
  size_t Last = 0;
  for (const char *K : KeysInOrder) {
    size_t At = J.find(std::string("\"") + K + "\"");
    ASSERT_NE(At, std::string::npos) << K;
    EXPECT_GT(At, Last) << K;
    Last = At;
  }
}

} // namespace
