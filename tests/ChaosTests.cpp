//===- ChaosTests.cpp - fault-injection sweep and degradation ladder -----------===//
//
// Part of warp-swp.
//
// The chaos acceptance sweep: for every fault site, 100 seeded
// injections (varying both the occurrence index and the program) must
// produce zero crashes and zero hangs — each compile either recovers,
// degrades to a ScheduleVerifier-clean schedule, or fails with a
// structured error. Plus the degradation-ladder proof: a loop forced
// down each rung (unrolled list, sequential) and a budget-exhausted loop
// still produce simulator output bit-identical to the scalar
// interpreter.
//
//===----------------------------------------------------------------------===//

#include "swp/Support/FaultInject.h"
#include "swp/Verify/Differential.h"
#include "swp/Workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace swp;

namespace {

/// One seeded injection: compile a generated program with the fault
/// armed and ParanoidVerify on. The contract: a structured outcome,
/// never a crash — Ok with no verifier findings, or !Ok with a nonempty
/// error.
void sweepSite(faults::Site Site, unsigned Injections) {
  MachineDescription MD = MachineDescription::warpCell();
  bool WorkerSite = Site == faults::Site::WorkerStall ||
                    Site == faults::Site::WorkerDeath;
  unsigned Recovered = 0, Failed = 0;
  for (unsigned I = 0; I != Injections; ++I) {
    // Vary the program and the dynamic occurrence together: early
    // occurrences hit every program, later ones only the compiles with
    // enough dynamic traffic (a disarmed probe costs one atomic load and
    // simply never fires — also a legal outcome).
    BuiltWorkload W = generateRandomLoop(3000 + I);
    CompilerOptions Opts;
    Opts.ParanoidVerify = true;
    Opts.ChaosSeed = faults::chaosSeed(Site, I % 8);
    if (WorkerSite)
      Opts.Sched.SearchThreads = 3;
    DiagnosticEngine DE;
    CompileResult CR = compileProgram(*W.Prog, MD, Opts, &DE);
    if (CR.Ok) {
      ++Recovered;
      EXPECT_TRUE(CR.Report.VerifyErrors.empty())
          << faults::siteName(Site) << " injection " << I
          << ": Ok compile carries verifier findings";
    } else {
      ++Failed;
      EXPECT_FALSE(CR.Error.empty())
          << faults::siteName(Site) << " injection " << I
          << ": failed compile with no structured error";
    }
  }
  // The sweep must be meaningful: every injection completed (implicit in
  // reaching here) and the site produced at least one of each regime or
  // all of one — both fine; record via a sanity check that we ran all.
  EXPECT_EQ(Recovered + Failed, Injections);
}

} // namespace

TEST(ChaosSweep, OomAllocation) {
  sweepSite(faults::Site::OomAllocation, 100);
}
TEST(ChaosSweep, SlotExhaustion) {
  sweepSite(faults::Site::SlotExhaustion, 100);
}
TEST(ChaosSweep, RecMIIInflate) {
  sweepSite(faults::Site::RecMIIInflate, 100);
}
TEST(ChaosSweep, WorkerStall) { sweepSite(faults::Site::WorkerStall, 100); }
TEST(ChaosSweep, WorkerDeath) { sweepSite(faults::Site::WorkerDeath, 100); }
TEST(ChaosSweep, CorruptSchedule) {
  sweepSite(faults::Site::CorruptSchedule, 100);
}
TEST(ChaosSweep, CorruptEmission) {
  sweepSite(faults::Site::CorruptEmission, 100);
}

TEST(ChaosSweep, CorruptScheduleIsCaughtAndRecovered) {
  // The injected schedule corruption must actually be detected by the
  // pre-emission verifier (not slip through): the compile recovers to a
  // clean fallback, records the finding in RecoveredErrors, and the
  // emitted code still matches the interpreter.
  MachineDescription MD = MachineDescription::warpCell();
  BuiltWorkload W = generateRandomLoop(7);
  CompilerOptions Opts;
  Opts.ParanoidVerify = true;
  Opts.ChaosSeed =
      faults::chaosSeed(faults::Site::CorruptSchedule, /*Occurrence=*/0);
  DiagnosticEngine DE;
  CompileResult CR = compileProgram(*W.Prog, MD, Opts, &DE);
  ASSERT_TRUE(CR.Ok) << CR.Error;
  EXPECT_FALSE(CR.Report.RecoveredErrors.empty())
      << "corruption was not detected";
  EXPECT_TRUE(CR.Report.VerifyErrors.empty());

  WorkloadSpec Spec = randomLoopSpec(7);
  CompilerOptions Base;
  Base.ChaosSeed = Opts.ChaosSeed;
  DiffOutcome D = runDifferential(Spec, MD, Base);
  EXPECT_TRUE(D.Ok) << D.Error;
}

TEST(ChaosSweep, CorruptEmissionFailsStructured) {
  // Corruption after emission is fatal by design (there is no lower rung
  // that can fix already-emitted code): the compile must fail with the
  // finding in VerifyErrors, never return Ok.
  MachineDescription MD = MachineDescription::warpCell();
  BuiltWorkload W = generateRandomLoop(7);
  CompilerOptions Opts;
  Opts.ParanoidVerify = true;
  Opts.ChaosSeed =
      faults::chaosSeed(faults::Site::CorruptEmission, /*Occurrence=*/0);
  DiagnosticEngine DE;
  CompileResult CR = compileProgram(*W.Prog, MD, Opts, &DE);
  ASSERT_FALSE(CR.Ok);
  EXPECT_FALSE(CR.Report.VerifyErrors.empty());
}

TEST(ChaosSweep, RecMIIInflateStillCorrect) {
  // An inflated recurrence bound costs schedule quality, never
  // correctness: the full differential must still hold.
  MachineDescription MD = MachineDescription::warpCell();
  CompilerOptions Base;
  Base.ChaosSeed =
      faults::chaosSeed(faults::Site::RecMIIInflate, /*Occurrence=*/0);
  for (uint64_t Seed : {11ull, 12ull, 13ull}) {
    DiffOutcome D = runDifferential(randomLoopSpec(Seed), MD, Base);
    EXPECT_TRUE(D.Ok) << "seed " << Seed << ": " << D.Error;
  }
}

TEST(ChaosSweep, WorkerDeathParallelSearchStillCorrect) {
  // A worker dying mid-search loses one candidate interval, not
  // correctness: the pool contains the throw, the window slot reads as a
  // failed interval, and the search continues.
  MachineDescription MD = MachineDescription::warpCell();
  CompilerOptions Base;
  Base.Sched.SearchThreads = 3;
  Base.ChaosSeed =
      faults::chaosSeed(faults::Site::WorkerDeath, /*Occurrence=*/0);
  for (uint64_t Seed : {21ull, 22ull, 23ull}) {
    DiffOutcome D = runDifferential(randomLoopSpec(Seed), MD, Base);
    EXPECT_TRUE(D.Ok) << "seed " << Seed << ": " << D.Error;
  }
}

// ---------------------------------------------------------------------------
// Degradation ladder, end to end.
// ---------------------------------------------------------------------------

namespace {

/// Compiles a fresh instance and returns the primary loop's report.
LoopReport primaryReport(uint64_t Seed, const CompilerOptions &Opts,
                         const MachineDescription &MD) {
  BuiltWorkload W = generateRandomLoop(Seed);
  CompilerOptions Mut = Opts;
  DiagnosticEngine DE;
  CompileResult CR = compileProgram(*W.Prog, MD, Mut, &DE);
  EXPECT_TRUE(CR.Ok) << CR.Error;
  const LoopReport *L = CR.Report.primaryLoop();
  EXPECT_NE(L, nullptr);
  return L ? *L : LoopReport{};
}

} // namespace

TEST(DegradationLadder, EveryRungBitIdenticalToInterpreter) {
  // The acceptance criterion: the same loops, forced down each rung of
  // the ladder, stay bit-identical to the scalar interpreter. Rung 0 is
  // the ordinary pipelined compile (covered everywhere); here: unrolled
  // list (MinLadderRung=1) and sequential (MinLadderRung=2), across
  // programs with recurrences, conditionals, and runtime trip counts.
  MachineDescription MD = MachineDescription::warpCell();
  for (unsigned Rung = 1; Rung <= 2; ++Rung) {
    CompilerOptions Base;
    Base.MinLadderRung = Rung;
    for (uint64_t Seed = 100; Seed != 120; ++Seed) {
      DiffOutcome D = runDifferential(randomLoopSpec(Seed), MD, Base);
      EXPECT_TRUE(D.Ok) << "rung " << Rung << " seed " << Seed << ": "
                        << D.Error;
    }
  }
}

TEST(DegradationLadder, ForcedRungsReportDegraded) {
  MachineDescription MD = MachineDescription::warpCell();
  CompilerOptions Opts;
  Opts.MinLadderRung = 1;
  LoopReport L1 = primaryReport(42, Opts, MD);
  EXPECT_TRUE(L1.degraded());
  EXPECT_TRUE(L1.Rung == ScheduleRung::UnrolledList ||
              L1.Rung == ScheduleRung::Sequential)
      << scheduleRungText(L1.Rung);

  Opts.MinLadderRung = 2;
  LoopReport L2 = primaryReport(42, Opts, MD);
  EXPECT_TRUE(L2.degraded());
  EXPECT_EQ(L2.Rung, ScheduleRung::Sequential);
}

TEST(DegradationLadder, BudgetExhaustionDegradesAndStaysCorrect) {
  // A budget tight enough to cancel mid-search must surface as a
  // Degraded decision with cause BudgetExhausted — and the degraded code
  // must still match the interpreter bit for bit.
  MachineDescription MD = MachineDescription::warpCell();
  CompilerOptions Base;
  Base.Budget.MaxNodes = 3; // Trips on any nontrivial loop.

  BuiltWorkload W = generateRandomLoop(42);
  CompilerOptions Mut = Base;
  DiagnosticEngine DE;
  CompileResult CR = compileProgram(*W.Prog, MD, Mut, &DE);
  ASSERT_TRUE(CR.Ok) << CR.Error;
  EXPECT_EQ(CR.Report.BudgetTripped, BudgetCause::Nodes);
  const LoopReport *L = CR.Report.primaryLoop();
  ASSERT_NE(L, nullptr);
  EXPECT_TRUE(L->degraded());
  EXPECT_EQ(L->Cause, FallbackCause::BudgetExhausted);

  for (uint64_t Seed = 200; Seed != 215; ++Seed) {
    DiffOutcome D = runDifferential(randomLoopSpec(Seed), MD, Base);
    EXPECT_TRUE(D.Ok) << "seed " << Seed << ": " << D.Error;
  }
}

TEST(DegradationLadder, WallClockBudgetTerminates) {
  // Wall-clock budgets cannot be made deterministic, but a 1 ms ceiling
  // must still terminate promptly and produce correct (possibly
  // degraded) code whichever loops it happens to catch.
  MachineDescription MD = MachineDescription::warpCell();
  CompilerOptions Base;
  Base.Budget.WallMs = 1;
  for (uint64_t Seed = 300; Seed != 310; ++Seed) {
    DiffOutcome D = runDifferential(randomLoopSpec(Seed), MD, Base);
    EXPECT_TRUE(D.Ok) << "seed " << Seed << ": " << D.Error;
  }
}
