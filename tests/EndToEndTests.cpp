//===- EndToEndTests.cpp - compile -> simulate vs. interpret ------------------===//
//
// Part of warp-swp.
//
// The correctness oracle of the whole system: every program is compiled
// (pipelined and baseline, several policies), executed on the cycle-level
// simulator, and the final state must match the scalar interpreter
// bit-for-bit — for every trip count, including the short-loop dual-version
// paths.
//
//===----------------------------------------------------------------------===//

#include "JsonChecker.h"

#include "swp/Codegen/Compiler.h"
#include "swp/Driver/W2CDriver.h"
#include "swp/Interp/Interpreter.h"
#include "swp/Metrics/Metrics.h"
#include "swp/Sim/Simulator.h"

#include "swp/IR/IRBuilder.h"
#include "swp/IR/Printer.h"
#include "swp/IR/Verifier.h"
#include "swp/Support/FaultInject.h"
#include "swp/Support/Trace.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <vector>

using namespace swp;

namespace {

struct Scenario {
  std::string Name;
  /// Builds the program; returns the input. Receives the trip count.
  std::function<ProgramInput(Program &, int64_t)> Build;
};

struct Config {
  std::string Name;
  MachineDescription MD;
  CompilerOptions Opts;
};

std::vector<Config> allConfigs() {
  std::vector<Config> Cs;
  {
    Config C{"warp-pipelined", MachineDescription::warpCell(), {}};
    Cs.push_back(C);
  }
  {
    Config C{"warp-baseline", MachineDescription::warpCell(), {}};
    C.Opts.EnablePipelining = false;
    Cs.push_back(C);
  }
  {
    Config C{"warp-nomve", MachineDescription::warpCell(), {}};
    C.Opts.MVE = MVEPolicy::Disabled;
    Cs.push_back(C);
  }
  {
    Config C{"warp-lcm", MachineDescription::warpCell(), {}};
    C.Opts.MVE = MVEPolicy::MinRegisters;
    Cs.push_back(C);
  }
  {
    Config C{"warp-2stage", MachineDescription::warpCell(), {}};
    C.Opts.Sched.MaxStages = 2;
    Cs.push_back(C);
  }
  {
    Config C{"warp-binsearch", MachineDescription::warpCell(), {}};
    C.Opts.Sched.BinarySearch = true;
    Cs.push_back(C);
  }
  {
    Config C{"toy-pipelined", MachineDescription::toyCell(), {}};
    Cs.push_back(C);
  }
  return Cs;
}

/// Compiles and runs one (scenario, config, trip count) and compares
/// against the interpreter.
void checkEquivalence(const Scenario &Sc, const Config &Cf, int64_t N) {
  Program P;
  ProgramInput Input = Sc.Build(P, N);
  DiagnosticEngine DE;
  ASSERT_TRUE(verifyProgram(P, DE)) << DE.str();

  CompileResult CR = compileProgram(P, Cf.MD, Cf.Opts);
  ASSERT_TRUE(CR.Ok) << Sc.Name << "/" << Cf.Name << " n=" << N << ": "
                     << CR.Error;

  // Interpret the post-compilation program (library calls expanded, the
  // induction increment added) so semantics line up exactly.
  ProgramState Golden = interpret(P, Input);
  ASSERT_TRUE(Golden.Ok) << Golden.Error;

  SimResult Sim = simulate(CR.Code, P, Cf.MD, Input);
  ASSERT_TRUE(Sim.State.Ok)
      << Sc.Name << "/" << Cf.Name << " n=" << N << ": " << Sim.State.Error;

  std::string Mismatch = compareStates(P, Golden, Sim.State);
  EXPECT_EQ(Mismatch, "") << Sc.Name << "/" << Cf.Name << " n=" << N;
  EXPECT_EQ(Golden.Flops, Sim.State.Flops)
      << "the pipelined code must execute exactly the sequential flops";
}

//===----------------------------------------------------------------------===//
// Scenarios.
//===----------------------------------------------------------------------===//

std::vector<Scenario> allScenarios() {
  std::vector<Scenario> S;

  S.push_back({"vector-add", [](Program &P, int64_t N) {
                 IRBuilder B(P);
                 unsigned A = P.createArray("a", RegClass::Float, 128);
                 VReg K = B.fconst(2.5);
                 ForStmt *L = B.beginForImm(0, N - 1);
                 B.fstore(A, B.ix(L), B.fadd(B.fload(A, B.ix(L)), K));
                 B.endFor();
                 ProgramInput In;
                 for (int I = 0; I != 128; ++I)
                   In.FloatArrays[A].push_back(0.5f * I);
                 return In;
               }});

  S.push_back({"vector-add-runtime-n", [](Program &P, int64_t N) {
                 IRBuilder B(P);
                 unsigned A = P.createArray("a", RegClass::Float, 128);
                 VReg Hi = P.createVReg(RegClass::Int, "hi", true);
                 VReg K = B.fconst(1.25);
                 ForStmt *L = B.beginForReg(0, Hi);
                 B.fstore(A, B.ix(L), B.fmul(B.fload(A, B.ix(L)), K));
                 B.endFor();
                 ProgramInput In;
                 In.IntScalars[Hi.Id] = N - 1;
                 for (int I = 0; I != 128; ++I)
                   In.FloatArrays[A].push_back(1.0f + I);
                 return In;
               }});

  S.push_back({"dot-product", [](Program &P, int64_t N) {
                 IRBuilder B(P);
                 unsigned X = P.createArray("x", RegClass::Float, 128);
                 unsigned Y = P.createArray("y", RegClass::Float, 128);
                 unsigned Out = P.createArray("out", RegClass::Float, 1);
                 VReg Acc = P.createVReg(RegClass::Float, "acc");
                 B.assignUn(Acc, Opcode::FMov, B.fconst(0.0));
                 ForStmt *L = B.beginForImm(0, N - 1);
                 VReg Prod = B.fmul(B.fload(X, B.ix(L)), B.fload(Y, B.ix(L)));
                 B.assign(Acc, Opcode::FAdd, Acc, Prod);
                 B.endFor();
                 B.fstore(Out, B.cx(0), Acc);
                 ProgramInput In;
                 for (int I = 0; I != 128; ++I) {
                   In.FloatArrays[X].push_back(0.25f * I);
                   In.FloatArrays[Y].push_back(2.0f - 0.125f * I);
                 }
                 return In;
               }});

  S.push_back({"first-order-recurrence", [](Program &P, int64_t N) {
                 IRBuilder B(P);
                 unsigned A = P.createArray("a", RegClass::Float, 130);
                 VReg Cb = B.fconst(0.5);
                 VReg Cc = B.fconst(1.0);
                 ForStmt *L = B.beginForImm(1, N);
                 VReg Prev = B.fload(A, B.ix(L, 1, -1));
                 B.fstore(A, B.ix(L), B.fadd(B.fmul(Prev, Cb), Cc));
                 B.endFor();
                 ProgramInput In;
                 In.FloatArrays[A] = {3.0f};
                 return In;
               }});

  S.push_back({"stencil", [](Program &P, int64_t N) {
                 IRBuilder B(P);
                 unsigned A = P.createArray("a", RegClass::Float, 130);
                 unsigned Bb = P.createArray("b", RegClass::Float, 130);
                 ForStmt *L = B.beginForImm(1, N);
                 VReg Sum = B.fadd(B.fadd(B.fload(A, B.ix(L, 1, -1)),
                                          B.fload(A, B.ix(L))),
                                   B.fload(A, B.ix(L, 1, 1)));
                 B.fstore(Bb, B.ix(L), Sum);
                 B.endFor();
                 ProgramInput In;
                 for (int I = 0; I != 130; ++I)
                   In.FloatArrays[A].push_back(0.1f * I * I - 3.0f);
                 return In;
               }});

  S.push_back({"conditional-abs", [](Program &P, int64_t N) {
                 IRBuilder B(P);
                 unsigned X = P.createArray("x", RegClass::Float, 128);
                 unsigned Y = P.createArray("y", RegClass::Float, 128);
                 VReg Zero = B.fconst(0.0);
                 ForStmt *L = B.beginForImm(0, N - 1);
                 VReg V = B.fload(X, B.ix(L));
                 VReg Neg = B.binop(Opcode::FCmpLT, V, Zero);
                 VReg R = P.createVReg(RegClass::Float);
                 B.beginIf(Neg);
                 B.assignUn(R, Opcode::FNeg, V);
                 B.beginElse();
                 B.assignUn(R, Opcode::FMov, V);
                 B.endIf();
                 B.fstore(Y, B.ix(L), R);
                 B.endFor();
                 ProgramInput In;
                 for (int I = 0; I != 128; ++I)
                   In.FloatArrays[X].push_back((I % 3 == 0 ? -1.0f : 1.0f) *
                                               (0.5f + I));
                 return In;
               }});

  S.push_back({"conditional-accumulate", [](Program &P, int64_t N) {
                 IRBuilder B(P);
                 unsigned X = P.createArray("x", RegClass::Float, 128);
                 unsigned Out = P.createArray("out", RegClass::Float, 2);
                 VReg Zero = B.fconst(0.0);
                 VReg PosSum = P.createVReg(RegClass::Float, "possum");
                 VReg NegSum = P.createVReg(RegClass::Float, "negsum");
                 B.assignMov(PosSum, Zero);
                 B.assignMov(NegSum, Zero);
                 ForStmt *L = B.beginForImm(0, N - 1);
                 VReg V = B.fload(X, B.ix(L));
                 VReg Neg = B.binop(Opcode::FCmpLT, V, Zero);
                 B.beginIf(Neg);
                 B.assign(NegSum, Opcode::FAdd, NegSum, V);
                 B.beginElse();
                 B.assign(PosSum, Opcode::FAdd, PosSum, V);
                 B.endIf();
                 B.endFor();
                 B.fstore(Out, B.cx(0), PosSum);
                 B.fstore(Out, B.cx(1), NegSum);
                 ProgramInput In;
                 for (int I = 0; I != 128; ++I)
                   In.FloatArrays[X].push_back((I % 2 ? -1.0f : 1.0f) *
                                               0.25f * I);
                 return In;
               }});

  S.push_back({"matmul-nested", [](Program &P, int64_t N) {
                 // N x N matrix product with inner dot-product loops.
                 IRBuilder B(P);
                 int64_t Dim = std::max<int64_t>(1, std::min<int64_t>(N, 6));
                 unsigned A = P.createArray("a", RegClass::Float, Dim * Dim);
                 unsigned Bm = P.createArray("b", RegClass::Float, Dim * Dim);
                 unsigned C = P.createArray("c", RegClass::Float, Dim * Dim);
                 ForStmt *I = B.beginForImm(0, Dim - 1);
                 ForStmt *J = B.beginForImm(0, Dim - 1);
                 VReg Acc = P.createVReg(RegClass::Float, "acc");
                 B.assignUn(Acc, Opcode::FMov, B.fconst(0.0));
                 ForStmt *K = B.beginForImm(0, Dim - 1);
                 VReg Av = B.fload(A, B.ix(I, Dim) + B.ix(K));
                 VReg Bv = B.fload(Bm, B.ix(K, Dim) + B.ix(J));
                 B.assign(Acc, Opcode::FAdd, Acc, B.fmul(Av, Bv));
                 B.endFor();
                 B.fstore(C, B.ix(I, Dim) + B.ix(J), Acc);
                 B.endFor();
                 B.endFor();
                 ProgramInput In;
                 for (int64_t V = 0; V != Dim * Dim; ++V) {
                   In.FloatArrays[A].push_back(0.5f + 0.25f * V);
                   In.FloatArrays[Bm].push_back(1.5f - 0.125f * V);
                 }
                 return In;
               }});

  S.push_back({"queue-roundtrip", [](Program &P, int64_t N) {
                 IRBuilder B(P);
                 ForStmt *L = B.beginForImm(0, N - 1);
                 (void)L;
                 VReg V = B.recv(0);
                 B.send(0, B.fmul(V, V));
                 B.endFor();
                 ProgramInput In;
                 for (int64_t I = 0; I != N; ++I)
                   In.InputQueue.push_back(0.5f * I - 3.0f);
                 return In;
               }});

  S.push_back({"indvar-as-value", [](Program &P, int64_t N) {
                 IRBuilder B(P);
                 unsigned A = P.createArray("a", RegClass::Float, 128);
                 VReg Two = B.fconst(2.0);
                 ForStmt *L = B.beginForImm(0, N - 1);
                 B.fstore(A, B.ix(L), B.fmul(B.i2f(L->IndVar), Two));
                 B.endFor();
                 return ProgramInput{};
               }});

  S.push_back({"histogram-dynamic-subscript", [](Program &P, int64_t N) {
                 IRBuilder B(P);
                 unsigned Idx = P.createArray("idx", RegClass::Int, 128);
                 unsigned Hist = P.createArray("hist", RegClass::Float, 8);
                 VReg One = B.fconst(1.0);
                 ForStmt *L = B.beginForImm(0, N - 1);
                 VReg Bin = B.iload(Idx, B.ix(L));
                 AffineExpr HIx;
                 HIx.Addend = Bin;
                 B.fstore(Hist, HIx, B.fadd(B.fload(Hist, HIx), One));
                 B.endFor();
                 ProgramInput In;
                 for (int I = 0; I != 128; ++I)
                   In.IntArrays[Idx].push_back((I * 5) % 8);
                 return In;
               }});

  S.push_back({"division-newton", [](Program &P, int64_t N) {
                 IRBuilder B(P);
                 unsigned X = P.createArray("x", RegClass::Float, 128);
                 unsigned Y = P.createArray("y", RegClass::Float, 128);
                 unsigned Q = P.createArray("q", RegClass::Float, 128);
                 ForStmt *L = B.beginForImm(0, N - 1);
                 B.fstore(Q, B.ix(L),
                          B.fdiv(B.fload(X, B.ix(L)), B.fload(Y, B.ix(L))));
                 B.endFor();
                 ProgramInput In;
                 for (int I = 0; I != 128; ++I) {
                   In.FloatArrays[X].push_back(1.0f + 0.5f * I);
                   In.FloatArrays[Y].push_back(0.25f + 0.125f * I);
                 }
                 return In;
               }});

  S.push_back({"sqrt-loop", [](Program &P, int64_t N) {
                 IRBuilder B(P);
                 unsigned X = P.createArray("x", RegClass::Float, 128);
                 unsigned Y = P.createArray("y", RegClass::Float, 128);
                 ForStmt *L = B.beginForImm(0, N - 1);
                 B.fstore(Y, B.ix(L), B.fsqrt(B.fload(X, B.ix(L))));
                 B.endFor();
                 ProgramInput In;
                 for (int I = 0; I != 128; ++I)
                   In.FloatArrays[X].push_back(0.5f + 2.0f * I);
                 return In;
               }});

  S.push_back({"exp-loop", [](Program &P, int64_t N) {
                 IRBuilder B(P);
                 unsigned X = P.createArray("x", RegClass::Float, 128);
                 unsigned Y = P.createArray("y", RegClass::Float, 128);
                 ForStmt *L = B.beginForImm(0, N - 1);
                 B.fstore(Y, B.ix(L), B.fexp(B.fload(X, B.ix(L))));
                 B.endFor();
                 ProgramInput In;
                 for (int I = 0; I != 128; ++I)
                   In.FloatArrays[X].push_back(-4.0f + 0.0625f * I);
                 return In;
               }});

  S.push_back({"scalar-prelude-and-tail", [](Program &P, int64_t N) {
                 // Straight-line code around the loop exercises region
                 // stitching and global registers.
                 IRBuilder B(P);
                 unsigned A = P.createArray("a", RegClass::Float, 128);
                 unsigned Out = P.createArray("out", RegClass::Float, 1);
                 VReg Scale = B.fmul(B.fconst(3.0), B.fconst(0.5));
                 ForStmt *L = B.beginForImm(0, N - 1);
                 B.fstore(A, B.ix(L), B.fmul(B.fload(A, B.ix(L)), Scale));
                 B.endFor();
                 B.fstore(Out, B.cx(0), B.fadd(Scale, Scale));
                 ProgramInput In;
                 for (int I = 0; I != 128; ++I)
                   In.FloatArrays[A].push_back(1.0f + I);
                 return In;
               }});

  return S;
}

class EndToEnd
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, int64_t>> {
};

TEST_P(EndToEnd, SimMatchesInterp) {
  auto [ScIdx, CfIdx, N] = GetParam();
  static const std::vector<Scenario> Scenarios = allScenarios();
  static const std::vector<Config> Configs = allConfigs();
  checkEquivalence(Scenarios[ScIdx], Configs[CfIdx], N);
}

static std::string
endToEndName(const ::testing::TestParamInfo<std::tuple<size_t, size_t, int64_t>>
                 &Info) {
  static const std::vector<Scenario> Scenarios = allScenarios();
  static const std::vector<Config> Configs = allConfigs();
  auto [ScIdx, CfIdx, N] = Info.param;
  std::string Name = Scenarios[ScIdx].Name + "_" + Configs[CfIdx].Name +
                     "_n" + std::to_string(N);
  for (char &C : Name)
    if (!isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return Name;
}

static std::vector<std::tuple<size_t, size_t, int64_t>> allCases() {
  std::vector<std::tuple<size_t, size_t, int64_t>> Cases;
  size_t NumSc = allScenarios().size();
  size_t NumCf = allConfigs().size();
  // Trip counts straddle every dual-version boundary: empty, shorter than
  // the pipeline fill, around the unroll remainder, and long.
  const int64_t Trips[] = {1, 2, 3, 5, 8, 13, 27, 64};
  for (size_t Sc = 0; Sc != NumSc; ++Sc)
    for (size_t Cf = 0; Cf != NumCf; ++Cf)
      for (int64_t N : Trips)
        Cases.emplace_back(Sc, Cf, N);
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(Matrix, EndToEnd, ::testing::ValuesIn(allCases()),
                         endToEndName);

TEST(EndToEnd, PipeliningActuallySpeedsUp) {
  // The point of the whole exercise: same program, fewer cycles.
  auto Build = [](Program &P) {
    IRBuilder B(P);
    unsigned A = P.createArray("a", RegClass::Float, 600);
    VReg K = B.fconst(2.0);
    ForStmt *L = B.beginForImm(0, 499);
    B.fstore(A, B.ix(L), B.fmul(B.fadd(B.fload(A, B.ix(L)), K), K));
    B.endFor();
  };
  MachineDescription MD = MachineDescription::warpCell();

  Program P1;
  Build(P1);
  CompilerOptions Fast;
  CompileResult R1 = compileProgram(P1, MD, Fast);
  ASSERT_TRUE(R1.Ok) << R1.Error;
  SimResult S1 = simulate(R1.Code, P1, MD, {});
  ASSERT_TRUE(S1.State.Ok) << S1.State.Error;

  Program P2;
  Build(P2);
  CompilerOptions Slow;
  Slow.EnablePipelining = false;
  CompileResult R2 = compileProgram(P2, MD, Slow);
  ASSERT_TRUE(R2.Ok) << R2.Error;
  SimResult S2 = simulate(R2.Code, P2, MD, {});
  ASSERT_TRUE(S2.State.Ok) << S2.State.Error;

  EXPECT_LT(S1.Cycles * 2, S2.Cycles)
      << "pipelined code should be at least 2x faster on this kernel";
  ASSERT_EQ(R1.Report.Loops.size(), 1u);
  EXPECT_TRUE(R1.Report.Loops[0].pipelined());
  EXPECT_EQ(R1.Report.Loops[0].II, R1.Report.Loops[0].MII)
      << "this loop meets its bound";
}

TEST(EndToEnd, Section2ExampleFourTimesFaster) {
  // The paper's introductory example: II=1 on the toy machine makes the
  // loop approach 4x the unpipelined speed (iteration length 4).
  auto Build = [](Program &P) {
    IRBuilder B(P);
    unsigned A = P.createArray("a", RegClass::Float, 1100);
    VReg K = B.fconst(1.0);
    ForStmt *L = B.beginForImm(0, 999);
    B.fstore(A, B.ix(L), B.fadd(B.fload(A, B.ix(L)), K));
    B.endFor();
  };
  MachineDescription MD = MachineDescription::toyCell();

  Program P1;
  Build(P1);
  CompileResult R1 = compileProgram(P1, MD, {});
  ASSERT_TRUE(R1.Ok) << R1.Error;
  SimResult S1 = simulate(R1.Code, P1, MD, {});
  ASSERT_TRUE(S1.State.Ok) << S1.State.Error;

  Program P2;
  Build(P2);
  CompilerOptions Off;
  Off.EnablePipelining = false;
  CompileResult R2 = compileProgram(P2, MD, Off);
  SimResult S2 = simulate(R2.Code, P2, MD, {});

  double Speedup = static_cast<double>(S2.Cycles) / S1.Cycles;
  EXPECT_GT(Speedup, 3.5) << "paper reports 4x for this example";
  EXPECT_LE(Speedup, 4.5);
}

TEST(EndToEnd, ReportsCarryScheduleQuality) {
  Program P;
  IRBuilder B(P);
  unsigned A = P.createArray("a", RegClass::Float, 128);
  VReg K = B.fconst(2.0);
  ForStmt *L = B.beginForImm(0, 99);
  (void)L;
  B.fstore(A, B.ix(L), B.fadd(B.fload(A, B.ix(L)), K));
  B.endFor();
  MachineDescription MD = MachineDescription::warpCell();
  CompileResult R = compileProgram(P, MD, {});
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(R.Report.Loops.size(), 1u);
  const LoopReport &Rep = R.Report.Loops[0];
  EXPECT_TRUE(Rep.attempted());
  EXPECT_TRUE(Rep.pipelined());
  EXPECT_GE(Rep.II, Rep.MII);
  EXPECT_GT(Rep.UnpipelinedLen, Rep.II);
  EXPECT_GE(Rep.Stages, 2u);
  EXPECT_GT(Rep.KernelInsts, 0u);
  EXPECT_FALSE(Rep.HasConditionals);
}

TEST(EndToEnd, DynamicUtilizationMatchesHandCount) {
  // a[i] = a[i] + 2.0 for 100 iterations: each iteration executes exactly
  // one load, one add, one store — regardless of pipelining, unroll, or
  // how iterations split between kernel and cleanup — so the simulator's
  // per-resource busy counters are exact: 200 memory-port unit-cycles,
  // 100 adder, zero multiplier/queue.
  Program P;
  IRBuilder B(P);
  unsigned A = P.createArray("a", RegClass::Float, 128);
  VReg K = B.fconst(2.0);
  ForStmt *L = B.beginForImm(0, 99);
  (void)L;
  B.fstore(A, B.ix(L), B.fadd(B.fload(A, B.ix(L)), K));
  B.endFor();
  MachineDescription MD = MachineDescription::warpCell();
  CompileResult R = compileProgram(P, MD, {});
  ASSERT_TRUE(R.Ok) << R.Error;

  SimResult Sim = simulate(R.Code, P, MD, ProgramInput{});
  ASSERT_TRUE(Sim.State.Ok) << Sim.State.Error;
  const UtilizationReport &U = Sim.Util;
  ASSERT_TRUE(U.measured());
  EXPECT_EQ(U.Cycles, Sim.Cycles);
  EXPECT_EQ(U.ExecCycles + U.StallCycles, U.Cycles);
  EXPECT_EQ(U.InputStallCycles + U.OutputStallCycles, U.StallCycles);
  EXPECT_EQ(U.StallCycles, 0u) << "no queue traffic, no stalls";
  EXPECT_EQ(U.OpsIssued, Sim.State.DynOps);
  auto Busy = [&](const char *Name) -> uint64_t {
    for (const ResourceUtilization &Res : U.Resources)
      if (Res.Name == Name)
        return Res.BusyUnitCycles;
    ADD_FAILURE() << "no resource named " << Name;
    return 0;
  };
  EXPECT_EQ(Busy("mem"), 200u);
  EXPECT_EQ(Busy("fadd"), 100u);
  EXPECT_EQ(Busy("fmul"), 0u);
  EXPECT_EQ(Busy("qin"), 0u);
  EXPECT_EQ(Busy("qout"), 0u);

  // The static kernel report on the same loop agrees per II window:
  // 2 memory references and 1 add per iteration.
  ASSERT_EQ(R.Report.Loops.size(), 1u);
  const UtilizationReport &KU = R.Report.Loops[0].KernelUtil;
  ASSERT_TRUE(R.Report.Loops[0].pipelined());
  ASSERT_TRUE(KU.measured());
  EXPECT_EQ(KU.Cycles, uint64_t(R.Report.Loops[0].II));
  auto KBusy = [&](const char *Name) -> uint64_t {
    for (const ResourceUtilization &Res : KU.Resources)
      if (Res.Name == Name)
        return Res.BusyUnitCycles;
    ADD_FAILURE() << "no resource named " << Name;
    return 0;
  };
  EXPECT_EQ(KBusy("mem"), 2u);
  EXPECT_EQ(KBusy("fadd"), 1u);
  EXPECT_DOUBLE_EQ(KU.bottleneckOccupancy(), 1.0)
      << "the memory port is the bottleneck and the schedule saturates it";
}

} // namespace

// ---------------------------------------------------------------------------
// w2c exit-code contract.
// ---------------------------------------------------------------------------

namespace {

/// Runs the driver in-process and returns (exit code, stdout, stderr).
struct DriverRun {
  int Exit;
  std::string Out;
  std::string Err;
};

DriverRun runDriver(std::vector<std::string> Args) {
  std::ostringstream Out, Err;
  int Exit = runW2C(Args, Out, Err);
  return {Exit, Out.str(), Err.str()};
}

/// Writes \p Source to a unique file under the test's temp dir and
/// returns the path (registered for no cleanup; the tree is ephemeral).
std::string writeSource(const std::string &Stem, const std::string &Source) {
  std::filesystem::path P =
      std::filesystem::temp_directory_path() / ("w2c-exit-" + Stem + ".w2");
  std::ofstream F(P);
  F << Source;
  return P.string();
}

const char GoodSource[] = R"(
  var a: float[16];
  begin
    for i := 0 to 15 do
      a[i] := a[i] + 1.0;
  end
)";

} // namespace

// The exit-code contract is API: scripts and the test driver branch on
// it. 0 ok, 1 usage/IO, 2 frontend rejection, 3 compile/verify failure,
// 4 compiled-but-degraded.
TEST(W2CExitCodes, OkCompileIsZero) {
  DriverRun R = runDriver({writeSource("ok", GoodSource)});
  EXPECT_EQ(R.Exit, W2CExitOk) << R.Err;
}

TEST(W2CExitCodes, UsageAndIOFailuresAreOne) {
  EXPECT_EQ(runDriver({"--definitely-not-a-flag"}).Exit, W2CExitUsage);
  EXPECT_EQ(runDriver({"/nonexistent/dir/input.w2"}).Exit, W2CExitUsage);
  EXPECT_EQ(runDriver({"--max-nodes=banana"}).Exit, W2CExitUsage);
  EXPECT_EQ(runDriver({"--min-rung=3"}).Exit, W2CExitUsage);
  // A flag the API dropped (4.0) is unknown like any other.
  EXPECT_EQ(
      runDriver({"--metrics-port=0", writeSource("ok", GoodSource)}).Exit,
      W2CExitUsage);
  EXPECT_EQ(runDriver({"--help"}).Exit, W2CExitOk);
}

// File paths are caller strings: one with a tab must still leave the
// --batch --json document parseable.
TEST(W2CBatch, JsonEscapesFilePaths) {
  std::string Path = writeSource("tab\tname", GoodSource);
  DriverRun R = runDriver({"--batch", "--json", Path});
  EXPECT_EQ(R.Exit, W2CExitOk) << R.Err;
  EXPECT_TRUE(JsonChecker(R.Out).valid()) << R.Out;
  EXPECT_NE(R.Out.find("w2c-exit-tab\\tname.w2"), std::string::npos)
      << R.Out;
}

TEST(W2CExitCodes, FrontendRejectionIsTwoWithAllDiagnostics) {
  // Two distinct broken statements: recovery must surface both before
  // the driver exits 2, proving one error no longer hides the next.
  DriverRun R = runDriver({writeSource("parse", R"(
    var a: float[16];
    begin
      a[0] := ;
      a[1] := 1.0
      a[2] := * 2.0;
    end
  )")});
  EXPECT_EQ(R.Exit, W2CExitParse);
  size_t Errors = 0;
  for (size_t At = 0; (At = R.Err.find("error", At)) != std::string::npos;
       ++At)
    ++Errors;
  EXPECT_GE(Errors, 2u) << "recovery lost diagnostics:\n" << R.Err;
}

TEST(W2CExitCodes, CompileFailureIsThree) {
  // Post-emission corruption is unrecoverable by design; with --verify
  // the driver must report a compile/verify failure.
  DriverRun R = runDriver(
      {"--verify",
       "--chaos-seed=" + std::to_string(faults::chaosSeed(
                             faults::Site::CorruptEmission, 0)),
       writeSource("chaos", GoodSource)});
  EXPECT_EQ(R.Exit, W2CExitCompile) << R.Err;
  EXPECT_NE(R.Err.find("error"), std::string::npos);
}

TEST(W2CExitCodes, BudgetDegradedCompileIsFour) {
  DriverRun R = runDriver(
      {"--json", "--max-nodes=1", writeSource("degraded", GoodSource)});
  EXPECT_EQ(R.Exit, W2CExitDegraded) << R.Err;
  // The JSON report must carry the structured cause alongside the code.
  EXPECT_NE(R.Out.find("\"budget_tripped\""), std::string::npos) << R.Out;
  EXPECT_NE(R.Out.find("compile budget exhausted"), std::string::npos)
      << R.Out;
}

// ---------------------------------------------------------------------------
// Service telemetry through the driver (see swp/Metrics/Metrics.h).
// ---------------------------------------------------------------------------

// --metrics must emit a self-consistent snapshot: one latency sample per
// session request, every service request resolved as exactly one memo
// hit or compile, and the II-optimality-gap histogram
// populated by the real searches. The global registry accumulates across
// tests in this binary, so the assertions compare before/after deltas.
TEST(W2CMetrics, SnapshotIsSelfConsistent) {
  metrics::MetricsRegistry &Reg = metrics::MetricsRegistry::global();
  metrics::MetricsSnapshot Before = Reg.snapshot();
  DriverRun R = runDriver({"--metrics", "--batch",
                           writeSource("metrics-a", GoodSource),
                           writeSource("metrics-b", GoodSource)});
  metrics::MetricsSnapshot After = Reg.snapshot();
  metrics::setEnabled(false); // Leave the process as this test found it.
  EXPECT_EQ(R.Exit, W2CExitOk) << R.Err;
  EXPECT_NE(R.Out.find("=== metrics ==="), std::string::npos) << R.Out;
  EXPECT_NE(R.Out.find("swp_session_latency_us_count"), std::string::npos);

  auto CounterDelta = [&](const char *Name) {
    return After.counterTotal(Name) - Before.counterTotal(Name);
  };
  auto HistDelta = [&](const char *Name) {
    return After.histogramCountTotal(Name) - Before.histogramCountTotal(Name);
  };
  // Latency series are split by target: each request records exactly one
  // sample, in a target="..." series.
  auto TargetLabeledCount = [](const metrics::MetricsSnapshot &S,
                               const char *Name) {
    uint64_t Sum = 0;
    for (const metrics::SnapshotHistogram &H : S.Histograms)
      if (H.Name == Name && H.Labels.find("target=") != std::string::npos)
        Sum += H.Count;
    return Sum;
  };
  uint64_t Requests = CounterDelta("swp_session_requests_total");
  EXPECT_EQ(Requests, 2u);
  EXPECT_EQ(TargetLabeledCount(After, "swp_session_latency_us") -
                TargetLabeledCount(Before, "swp_session_latency_us"),
            Requests);
  uint64_t ServiceRequests = CounterDelta("swp_service_requests_total");
  EXPECT_EQ(ServiceRequests, Requests);
  EXPECT_EQ(CounterDelta("swp_service_memo_hits_total") +
                CounterDelta("swp_service_compiles_total"),
            ServiceRequests);
  EXPECT_GT(HistDelta("swp_sched_ii_gap"), 0u);
  EXPECT_GT(CounterDelta("swp_compile_total"), 0u);
}

// --json owns stdout; combining it with --metrics requires a file sink.
TEST(W2CMetrics, JsonModeRequiresMetricsOut) {
  DriverRun R = runDriver({"--json", "--metrics",
                           writeSource("metrics-json", GoodSource)});
  EXPECT_EQ(R.Exit, W2CExitUsage);
  metrics::setEnabled(false);

  std::filesystem::path OutFile =
      std::filesystem::temp_directory_path() / "w2c-metrics-out.prom";
  std::filesystem::remove(OutFile);
  DriverRun R2 = runDriver({"--json",
                            "--metrics-out=" + OutFile.string(),
                            writeSource("metrics-json", GoodSource)});
  metrics::setEnabled(false);
  EXPECT_EQ(R2.Exit, W2CExitOk) << R2.Err;
  // stdout stayed pure JSON; the exposition went to the file.
  EXPECT_EQ(R2.Out.find("=== metrics ==="), std::string::npos);
  std::ifstream In(OutFile);
  ASSERT_TRUE(In.good());
  std::stringstream SS;
  SS << In.rdbuf();
  EXPECT_NE(SS.str().find("# TYPE swp_session_latency_us histogram"),
            std::string::npos);
  std::filesystem::remove(OutFile);
}

// ---------------------------------------------------------------------------
// --trace through the driver (see swp/Support/Trace.h).
// ---------------------------------------------------------------------------

namespace {

std::string traceFile(const std::string &Stem) {
  std::filesystem::path P =
      std::filesystem::temp_directory_path() / ("w2c-trace-" + Stem + ".json");
  std::filesystem::remove(P);
  return P.string();
}

/// Checks that \p Path holds a well-formed trace of a compile started
/// from the driver's thread.
void expectCompileTrace(const std::string &Path) {
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "no trace written to " << Path;
  std::stringstream SS;
  SS << In.rdbuf();
  std::string Text = SS.str();
  EXPECT_TRUE(JsonChecker(Text).valid()) << Text;
  EXPECT_NE(Text.find("\"name\": \"compileProgram\""), std::string::npos);
  EXPECT_NE(Text.find("\"name\": \"w2c-main\""), std::string::npos);
}

// A stream cell: the zero-filled inputs of --utilization leave its input
// channel empty, so the simulation fails after a clean compile.
const char RecvSource[] = R"(
  begin
    for i := 0 to 3 do
      send(recv() * 2.0);
  end
)";

} // namespace

TEST(W2CTrace, SingleFileWritesCompileSpans) {
  std::string Path = traceFile("single");
  DriverRun R =
      runDriver({"--trace=" + Path, writeSource("trace-single", GoodSource)});
  EXPECT_FALSE(trace::isActive()) << "the driver must end its session";
  EXPECT_EQ(R.Exit, W2CExitOk) << R.Err;
  EXPECT_NE(R.Out.find("(trace written to " + Path + ")"), std::string::npos);
  expectCompileTrace(Path);
}

TEST(W2CTrace, BatchWritesCompileSpans) {
  std::string Path = traceFile("batch");
  DriverRun R = runDriver({"--batch", "--trace=" + Path,
                           writeSource("trace-batch-a", GoodSource),
                           writeSource("trace-batch-b", GoodSource)});
  EXPECT_FALSE(trace::isActive()) << "the driver must end its session";
  EXPECT_EQ(R.Exit, W2CExitOk) << R.Err;
  expectCompileTrace(Path);
}

// A failed --utilization simulation exits 3 like a failed compile, and
// like it still writes the trace and the metrics snapshot.
TEST(W2CTrace, SimulationFailureWritesTraceAndMetrics) {
  std::string Path = traceFile("sim-failure");
  DriverRun R = runDriver({"--utilization", "--trace=" + Path, "--metrics",
                           writeSource("trace-recv", RecvSource)});
  metrics::setEnabled(false); // Leave the process as this test found it.
  bool StillTracing = trace::isActive();
  if (StillTracing)
    trace::stop();
  EXPECT_FALSE(StillTracing) << "the driver must end its session";
  EXPECT_EQ(R.Exit, W2CExitCompile) << R.Err;
  EXPECT_NE(R.Err.find("simulation error"), std::string::npos) << R.Err;
  EXPECT_NE(R.Out.find("=== metrics ==="), std::string::npos) << R.Out;
  expectCompileTrace(Path);
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  EXPECT_NE(SS.str().find("\"name\": \"simulate\""), std::string::npos)
      << "the trace covers the failed simulation";
}
