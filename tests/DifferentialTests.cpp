//===- DifferentialTests.cpp - interp vs sim over every workload --------------===//
//
// Part of warp-swp.
//
// Every workload the repo ships — the Livermore kernel suite and the
// user-program collection — goes through the full differential check:
// scalar interpreter vs cycle-accurate simulator, with software
// pipelining on and off, all under ParanoidVerify, all bit-identical.
//
//===----------------------------------------------------------------------===//

#include "swp/Verify/Differential.h"

#include "swp/IR/IRBuilder.h"
#include "swp/Interp/Interpreter.h"
#include "swp/Sim/Simulator.h"

#include "DecodedCode.h"
#include "TripCountPrograms.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace swp;

namespace {

void runSuite(const std::vector<WorkloadSpec> &Suite,
              const MachineDescription &MD, unsigned &Pipelined) {
  for (const WorkloadSpec &S : Suite) {
    DiffOutcome O = runDifferential(S, MD);
    EXPECT_TRUE(O.Ok) << S.Name << ": " << O.Error;
    EXPECT_GT(O.CyclesPipelined, 0u) << S.Name;
    EXPECT_GT(O.CyclesBaseline, 0u) << S.Name;
    // No cycle-count assertion here: a nest whose inner loop has a short
    // trip count can legitimately lose a few percent to fill/drain
    // overhead. Performance claims live in the bench suite.
    if (O.Pipelined)
      ++Pipelined;
  }
}

} // namespace

TEST(Differential, LivermoreKernelsBitIdentical) {
  MachineDescription MD = MachineDescription::warpCell();
  unsigned Pipelined = 0;
  runSuite(livermoreKernels(), MD, Pipelined);
  EXPECT_GT(Pipelined, 5u)
      << "most Livermore kernels are expected to pipeline";
}

TEST(Differential, UserProgramsBitIdentical) {
  MachineDescription MD = MachineDescription::warpCell();
  unsigned Pipelined = 0;
  runSuite(userPrograms(), MD, Pipelined);
}

TEST(Differential, SyntheticPopulationBitIdentical) {
  MachineDescription MD = MachineDescription::warpCell();
  unsigned Pipelined = 0;
  runSuite(syntheticPopulation(12, 19), MD, Pipelined);
}

TEST(Differential, ScaledMachineBitIdentical) {
  // The two-cluster machine schedules differently; the differential
  // contract is machine-independent.
  MachineDescription MD = MachineDescription::scaledWarpCell(2);
  unsigned Pipelined = 0;
  runSuite(livermoreKernels(), MD, Pipelined);
  EXPECT_GT(Pipelined, 0u);
}

TEST(Differential, RegressionSeeds) {
  // Generated programs that once compiled to wrong code, pinned because
  // a fresh fuzz sweep rarely lands on them again.
  //  - 14698059684119201311: the runtime-trip-count dispatch branched to
  //    its all-unpipelined version before defining the zero register that
  //    version's n > 0 guard reads, so a 1-trip loop could be skipped.
  MachineDescription MD = MachineDescription::warpCell();
  for (uint64_t Seed : {14698059684119201311ull}) {
    DiffOutcome O = runDifferential(randomLoopSpec(Seed), MD);
    EXPECT_TRUE(O.Ok) << "seed " << Seed << ": " << O.Error;
  }
}

// The trip-count dispatch programs (TripCountPrograms.h) reach the code
// shapes the shipped workloads rarely or never do: static zero and short
// trips, the unrolled rung's empty kernel count, and an outer loop whose
// runtime bound is 0 or 3. Each simulates to the interpreter's state on
// the modulo path and on both forced ladder rungs.
TEST(Differential, TripCountDispatchesBitIdentical) {
  MachineDescription MD = MachineDescription::warpCell();
  std::vector<WorkloadSpec> Specs = tripCountPrograms();
  Specs.push_back(runtimeOuterSpec(0));
  for (unsigned Rung : {0u, 1u, 2u}) {
    CompilerOptions Opts;
    Opts.MinLadderRung = Rung;
    for (const WorkloadSpec &S : Specs) {
      DiffOutcome O = runDifferential(S, MD, Opts);
      EXPECT_TRUE(O.Ok) << S.Name << ", MinLadderRung " << Rung << ": "
                        << O.Error;
    }
  }
}

TEST(Differential, ScalarTransformBugsReachTheOracle) {
  // x := 1; y := 2; x := x + y; t := x + y; out = {x, t}. Value numbering
  // once rewrote t := x + y into t := mov x (the x + y it had recorded was
  // over the old x). Interpreting the transformed program agreed with the
  // simulator, so only the comparison against an untransformed instance
  // caught it.
  WorkloadSpec Spec;
  Spec.Name = "lvn-self-redefinition";
  Spec.Make = [] {
    BuiltWorkload W;
    W.Prog = std::make_unique<Program>();
    Program &P = *W.Prog;
    IRBuilder B(P);
    unsigned Out = P.createArray("out", RegClass::Float, 2);
    VReg X = P.createVReg(RegClass::Float, "x");
    B.assignMov(X, B.fconst(1.0));
    VReg Y = B.fconst(2.0);
    B.assign(X, Opcode::FAdd, X, Y);
    VReg T = B.fadd(X, Y);
    B.fstore(Out, B.cx(0), X);
    B.fstore(Out, B.cx(1), T);
    return W;
  };
  DiffOutcome O = runDifferential(Spec, MachineDescription::warpCell());
  EXPECT_TRUE(O.Ok) << O.Error;
}

// An operation keeps its common list sizes inline and spills past them.
// Here the subscript i*64 + j*8 + k has three terms against inline room
// for two, and the stores under two nested conditionals carry two
// predicate terms against room for one. The spilled lists must reach the
// emitted code intact: ParanoidVerify passes and the simulator matches
// the interpreter.
TEST(Differential, InlineListsSpillPastTheirCapacity) {
  WorkloadSpec Spec;
  Spec.Name = "inline-list-spill";
  Spec.Make = [] {
    BuiltWorkload W;
    W.Prog = std::make_unique<Program>();
    Program &P = *W.Prog;
    IRBuilder B(P);
    unsigned A = P.createArray("a", RegClass::Float, 256);
    unsigned C = P.createArray("c", RegClass::Float, 256);
    VReg Zero = B.fconst(0.0);
    VReg Half = B.fconst(0.5);
    ForStmt *I = B.beginForImm(0, 3);
    ForStmt *J = B.beginForImm(0, 7);
    ForStmt *K = B.beginForImm(0, 7);
    AffineExpr Sub = B.ix(I, 64) + B.ix(J, 8) + B.ix(K);
    VReg X = B.fload(A, Sub);
    B.beginIf(B.binop(Opcode::FCmpLT, Zero, X));
    B.beginIf(B.binop(Opcode::FCmpLT, Half, X));
    B.fstore(C, Sub, B.fmul(X, X));
    B.beginElse();
    B.fstore(C, Sub, B.fadd(X, X));
    B.endIf();
    B.endIf();
    B.endFor();
    B.endFor();
    B.endFor();
    std::vector<float> In(256);
    for (size_t N = 0; N < In.size(); ++N)
      In[N] = static_cast<float>(N % 7) * 0.25f - 0.5f;
    W.Input.FloatArrays[A] = In;
    return W;
  };

  MachineDescription MD = MachineDescription::warpCell();
  CompilerOptions Opts;
  Opts.ParanoidVerify = true;
  BuiltWorkload W = Spec.Make();
  CompileResult CR = compileProgram(*W.Prog, MD, Opts);
  ASSERT_TRUE(CR.Ok) << CR.Error;
  size_t MaxTerms = 0, MaxPreds = 0;
  for (const VLIWInst &Inst : CR.Code.Insts)
    for (const MachOp &M : Inst.Ops) {
      MaxTerms = std::max(MaxTerms, M.Index.Terms.size());
      MaxPreds = std::max(MaxPreds, M.Preds.size());
    }
  EXPECT_EQ(MaxTerms, 3u) << "the subscript spills its terms";
  EXPECT_EQ(MaxPreds, 2u) << "the nested stores spill their predicates";

  DiffOutcome O = runDifferential(Spec, MD);
  EXPECT_TRUE(O.Ok) << O.Error;
}

// The simulator steps over idle words without decoding them. Over every
// shipped workload, pipelined and not, run to completion and cut off at
// half its cycles, that must give the same SimResult, field for field,
// as decoding every word.
TEST(Differential, IdleWordsSimulateLikeDecodedOnes) {
  MachineDescription MD = MachineDescription::warpCell();
  std::vector<WorkloadSpec> Suite = livermoreKernels();
  for (const WorkloadSpec &S : userPrograms())
    Suite.push_back(S);
  size_t IdleWords = 0;
  for (const WorkloadSpec &S : Suite)
    for (bool Pipelining : {true, false}) {
      BuiltWorkload W = S.Make();
      CompilerOptions Opts;
      Opts.EnablePipelining = Pipelining;
      CompileResult CR = compileProgram(*W.Prog, MD, Opts);
      ASSERT_TRUE(CR.Ok) << S.Name << ": " << CR.Error;
      for (size_t I = 0; I != CR.Code.Insts.size(); ++I)
        IdleWords += CR.Code.Insts.isIdle(I);
      VLIWProgram Decoded = decodeEveryWord(CR.Code);
      SimResult Full = simulate(CR.Code, *W.Prog, MD, W.Input);
      ASSERT_TRUE(Full.State.Ok) << S.Name << ": " << Full.State.Error;
      SimOptions Half;
      Half.MaxCycles = Full.Cycles / 2;
      for (const SimOptions &SO : {SimOptions(), Half}) {
        SimResult A = simulate(CR.Code, *W.Prog, MD, W.Input, SO);
        SimResult B = simulate(Decoded, *W.Prog, MD, W.Input, SO);
        std::string Where = S.Name + (Pipelining ? " pipelined" : "") +
                            " to cycle " + std::to_string(SO.MaxCycles);
        EXPECT_EQ(A.Cycles, B.Cycles) << Where;
        EXPECT_EQ(A.MFLOPS, B.MFLOPS) << Where;
        EXPECT_EQ(A.State.Ok, B.State.Ok) << Where;
        EXPECT_EQ(A.State.Error, B.State.Error) << Where;
        EXPECT_EQ(A.State.DynOps, B.State.DynOps) << Where;
        EXPECT_EQ(A.State.Flops, B.State.Flops) << Where;
        EXPECT_EQ(A.State.FloatArrays, B.State.FloatArrays) << Where;
        EXPECT_EQ(A.State.IntArrays, B.State.IntArrays) << Where;
        EXPECT_EQ(A.State.OutputQueue, B.State.OutputQueue) << Where;
        EXPECT_EQ(A.Util.toJson(), B.Util.toJson()) << Where;
      }
    }
  EXPECT_GT(IdleWords, 0u);
}

TEST(Differential, RandomLoopGeneratorIsDeterministic) {
  // Same seed, same program, same input — byte for byte. The fuzz
  // campaign's reproducibility rests on this.
  for (uint64_t Seed : {1ull, 42ull, 2026ull}) {
    BuiltWorkload A = generateRandomLoop(Seed);
    BuiltWorkload B = generateRandomLoop(Seed);
    ASSERT_EQ(A.Input.FloatArrays.size(), B.Input.FloatArrays.size());
    for (const auto &[Id, Vals] : A.Input.FloatArrays) {
      auto It = B.Input.FloatArrays.find(Id);
      ASSERT_NE(It, B.Input.FloatArrays.end());
      EXPECT_EQ(Vals, It->second) << "seed " << Seed;
    }
    EXPECT_EQ(A.Input.IntScalars, B.Input.IntScalars) << "seed " << Seed;
    ProgramState SA = interpret(*A.Prog, A.Input);
    ProgramState SB = interpret(*B.Prog, B.Input);
    ASSERT_TRUE(SA.Ok && SB.Ok) << "seed " << Seed;
    EXPECT_EQ(compareStates(*A.Prog, SA, SB), "") << "seed " << Seed;
  }
}

TEST(Differential, RandomLoopsInterpretCleanly) {
  // Subscripts of generated programs must stay in bounds for any seed:
  // spot-check a window away from the smoke test's range.
  for (uint64_t Seed = 9000; Seed != 9040; ++Seed) {
    BuiltWorkload W = generateRandomLoop(Seed);
    ProgramState S = interpret(*W.Prog, W.Input);
    EXPECT_TRUE(S.Ok) << "seed " << Seed << ": " << S.Error;
  }
}
