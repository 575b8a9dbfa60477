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

#include "swp/Interp/Interpreter.h"

#include <gtest/gtest.h>

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
