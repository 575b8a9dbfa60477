//===- VerifierTests.cpp - mutation tests for the schedule verifier -----------===//
//
// Part of warp-swp.
//
// The verifier's value is measured by what it rejects: every test here
// takes a legitimately produced schedule (which must pass), applies one
// targeted corruption, and demands the exact diagnostic. A verifier that
// accepts any of these mutants is broken.
//
//===----------------------------------------------------------------------===//

#include "swp/Verify/ScheduleVerifier.h"

#include "swp/Codegen/Compiler.h"
#include "swp/DDG/DDGBuilder.h"
#include "swp/IR/IRBuilder.h"
#include "swp/Pipeliner/HierarchicalReducer.h"
#include "swp/Pipeliner/LoopUtils.h"
#include "swp/Pipeliner/ModuloScheduler.h"
#include "swp/Pipeliner/ModuloVariableExpansion.h"
#include "swp/Sched/ListScheduler.h"
#include "swp/Workloads/Workloads.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

using namespace swp;

namespace {

/// A pipelinable loop carried through the same preparation pipeline the
/// compiler uses, so the graph/schedule pair here is bit-identical to the
/// one behind compileProgram's emitted code (everything involved is
/// deterministic).
struct LoopFixture {
  std::unique_ptr<Program> P;
  ForStmt *For = nullptr;
  std::vector<ScheduleUnit> Units;
  std::set<unsigned> Eligible;
  DepGraph G{std::vector<ScheduleUnit>{}};
  int Period = 0;
  ModuloScheduleResult MS;
  MVEPlan Plan;
};

LoopFixture makeFixture(const MachineDescription &MD) {
  LoopFixture F;
  F.P = std::make_unique<Program>();
  IRBuilder B(*F.P);
  unsigned A = F.P->createArray("a", RegClass::Float, 256);
  unsigned C = F.P->createArray("c", RegClass::Float, 256);
  VReg K = F.P->createVReg(RegClass::Float, "k", /*LiveIn=*/true);
  F.For = B.beginForImm(0, 255);
  // A latency-bound chain whose first value is read again at the end, so
  // its live range spans several initiation intervals and modulo variable
  // expansion must assign it more than one copy.
  VReg V0 = B.fload(A, B.ix(F.For));
  VReg V1 = B.fmul(V0, K);
  VReg V2 = B.fadd(V1, K);
  VReg V3 = B.fmul(V2, K);
  B.fstore(C, B.ix(F.For), B.fadd(V3, V0));
  B.endFor();

  prepareLoopForCodegen(*F.P, *F.For);
  F.Units = reduceBodyToUnits(F.For->Body, MD, F.For->LoopId);
  F.Eligible = mveEligibleRegs(F.Units, liveOutRegs(*F.P, *F.For), *F.P);

  DDGBuildOptions PlainOpts;
  PlainOpts.CurrentLoopId = F.For->LoopId;
  DepGraph PlainG = buildLoopDepGraph(F.Units, MD, PlainOpts);
  Schedule LocalSched = listSchedule(PlainG, MD);
  F.Period = std::max(unpipelinedPeriod(PlainG, LocalSched),
                      LocalSched.spanLength(PlainG));

  DDGBuildOptions BOpts;
  BOpts.CurrentLoopId = F.For->LoopId;
  BOpts.ExpandedRegs = F.Eligible;
  F.G = buildLoopDepGraph(F.Units, MD, BOpts);

  ModuloScheduleOptions SOpts;
  SOpts.MaxII = static_cast<unsigned>(F.Period);
  F.MS = moduloSchedule(F.G, MD, SOpts);
  F.Plan = planModuloVariableExpansion(F.Units, F.MS.Sched, F.MS.II,
                                       F.Eligible, MVEPolicy::MinCodeSize);
  return F;
}

} // namespace

//===----------------------------------------------------------------------===//
// Flat-schedule checks: the clean schedule passes, mutants do not.
//===----------------------------------------------------------------------===//

TEST(ScheduleVerifier, CleanSchedulePasses) {
  MachineDescription MD = MachineDescription::warpCell();
  LoopFixture F = makeFixture(MD);
  ASSERT_TRUE(F.MS.Success);
  VerifyReport VR = verifyModuloSchedule(F.G, F.MS.Sched, F.MS.II, MD);
  EXPECT_TRUE(VR.ok()) << VR.str();
  VerifyReport MR = verifyMVEPlan(F.Units, F.MS.Sched, F.MS.II, F.Plan,
                                  F.Eligible);
  EXPECT_TRUE(MR.ok()) << MR.str();
}

TEST(ScheduleVerifier, ZeroIIRejected) {
  MachineDescription MD = MachineDescription::warpCell();
  LoopFixture F = makeFixture(MD);
  ASSERT_TRUE(F.MS.Success);
  VerifyReport VR = verifyModuloSchedule(F.G, F.MS.Sched, 0, MD);
  EXPECT_TRUE(VR.has(VerifyErrorKind::BadII)) << VR.str();
  VerifyReport MR = verifyMVEPlan(F.Units, F.MS.Sched, 0, F.Plan,
                                  F.Eligible);
  EXPECT_TRUE(MR.has(VerifyErrorKind::BadII)) << MR.str();
}

TEST(ScheduleVerifier, ViolatedPrecedenceEdgeRejected) {
  MachineDescription MD = MachineDescription::warpCell();
  LoopFixture F = makeFixture(MD);
  ASSERT_TRUE(F.MS.Success);

  // Pull the destination of a latency-carrying edge one cycle too early:
  // sigma(dst) = sigma(src) + d - II*p - 1, i.e. slack exactly -1.
  const DepEdge *Victim = nullptr;
  for (const DepEdge &E : F.G.edges())
    if (E.Src != E.Dst && E.Delay > 0) {
      Victim = &E;
      break;
    }
  ASSERT_NE(Victim, nullptr) << "fixture must have a latency edge";
  Schedule Mutant = F.MS.Sched;
  Mutant.setStart(Victim->Dst,
                  Mutant.startOf(Victim->Src) + Victim->Delay -
                      static_cast<int>(F.MS.II) *
                          static_cast<int>(Victim->Omega) -
                      1);
  VerifyReport VR = verifyModuloSchedule(F.G, Mutant, F.MS.II, MD);
  EXPECT_TRUE(VR.has(VerifyErrorKind::PrecedenceViolation)) << VR.str();
}

TEST(ScheduleVerifier, DoubleBookedResourceRejected) {
  MachineDescription MD = MachineDescription::warpCell();
  LoopFixture F = makeFixture(MD);
  ASSERT_TRUE(F.MS.Success);

  // The fixture has two multiplies; forcing them onto the same issue
  // cycle folds both onto one modulo row of the single multiplier.
  std::vector<unsigned> Muls;
  for (unsigned I = 0; I != F.G.numNodes(); ++I)
    for (const UnitOp &UO : F.G.unit(I).ops())
      if (UO.Op.Opc == Opcode::FMul)
        Muls.push_back(I);
  ASSERT_GE(Muls.size(), 2u);
  Schedule Mutant = F.MS.Sched;
  Mutant.setStart(Muls[1], Mutant.startOf(Muls[0]));
  VerifyReport VR = verifyModuloSchedule(F.G, Mutant, F.MS.II, MD);
  EXPECT_TRUE(VR.has(VerifyErrorKind::ResourceConflict)) << VR.str();
}

TEST(ScheduleVerifier, StageLimitEnforced) {
  MachineDescription MD = MachineDescription::warpCell();
  LoopFixture F = makeFixture(MD);
  ASSERT_TRUE(F.MS.Success);
  unsigned Stages =
      (F.MS.Sched.issueLength() + F.MS.II - 1) / F.MS.II;
  ASSERT_GE(Stages, 2u) << "fixture must overlap iterations";
  EXPECT_TRUE(
      verifyModuloSchedule(F.G, F.MS.Sched, F.MS.II, MD, Stages).ok());
  VerifyReport VR =
      verifyModuloSchedule(F.G, F.MS.Sched, F.MS.II, MD, Stages - 1);
  EXPECT_TRUE(VR.has(VerifyErrorKind::StageLimitExceeded)) << VR.str();
}

//===----------------------------------------------------------------------===//
// Modulo variable expansion checks.
//===----------------------------------------------------------------------===//

TEST(ScheduleVerifier, MVELiveRangeOverlapRejected) {
  MachineDescription MD = MachineDescription::warpCell();
  LoopFixture F = makeFixture(MD);
  ASSERT_TRUE(F.MS.Success);

  // Find a register the planner gave several copies, then take them away.
  // One copy always divides the unroll, so the only possible complaint is
  // the live-range overlap itself.
  unsigned Victim = 0;
  bool Found = false;
  for (const auto &[Id, N] : F.Plan.Copies)
    if (N >= 2) {
      Victim = Id;
      Found = true;
      break;
    }
  ASSERT_TRUE(Found) << "fixture must need expansion";
  MVEPlan Mutant = F.Plan;
  Mutant.Copies[Victim] = 1;
  VerifyReport VR = verifyMVEPlan(F.Units, F.MS.Sched, F.MS.II, Mutant,
                                  F.Eligible);
  EXPECT_TRUE(VR.has(VerifyErrorKind::MVEOverlap)) << VR.str();
}

TEST(ScheduleVerifier, NonDividingCopyCountRejected) {
  MachineDescription MD = MachineDescription::warpCell();
  LoopFixture F = makeFixture(MD);
  ASSERT_TRUE(F.MS.Success);
  ASSERT_FALSE(F.Eligible.empty());
  unsigned Victim = *F.Eligible.begin();

  // Copies must divide the kernel unroll so rotation indices are static;
  // unroll+1 never does. Zero copies is equally nonsensical.
  MVEPlan Mutant = F.Plan;
  Mutant.Copies[Victim] = F.Plan.Unroll + 1;
  VerifyReport VR = verifyMVEPlan(F.Units, F.MS.Sched, F.MS.II, Mutant,
                                  F.Eligible);
  EXPECT_TRUE(VR.has(VerifyErrorKind::MVEBadUnroll)) << VR.str();

  Mutant.Copies[Victim] = 0;
  VR = verifyMVEPlan(F.Units, F.MS.Sched, F.MS.II, Mutant, F.Eligible);
  EXPECT_TRUE(VR.has(VerifyErrorKind::MVEBadUnroll)) << VR.str();
}

//===----------------------------------------------------------------------===//
// Emitted prolog/kernel/epilog structure.
//===----------------------------------------------------------------------===//

namespace {

/// Compiles the fixture's program and returns the layout the compiler
/// reported for its (single) pipelined loop. The fixture's graph and
/// schedule are the same ones the emission used, so verifyPipelinedLoop
/// must accept the clean code.
struct EmittedFixture {
  LoopFixture F;
  CompileResult CR;
  PipelinedLoopLayout Layout;
};

EmittedFixture makeEmitted(const MachineDescription &MD) {
  EmittedFixture E;
  E.F = makeFixture(MD);
  CompilerOptions Opts;
  Opts.ParanoidVerify = true;
  E.CR = compileProgram(*E.F.P, MD, Opts);
  return E;
}

} // namespace

TEST(ScheduleVerifier, EmittedLoopPassesAndReportAgrees) {
  MachineDescription MD = MachineDescription::warpCell();
  EmittedFixture E = makeEmitted(MD);
  ASSERT_TRUE(E.CR.Ok) << E.CR.Error;
  EXPECT_TRUE(E.CR.Report.VerifyErrors.empty());
  ASSERT_EQ(E.CR.Report.Loops.size(), 1u);
  const LoopReport &R = E.CR.Report.Loops[0];
  ASSERT_TRUE(R.pipelined()) << R.causeText();

  // The test rebuilt graph and schedule through the same deterministic
  // pipeline; the compiler's report must agree with them exactly.
  ASSERT_EQ(R.II, E.F.MS.II);
  ASSERT_EQ(R.Unroll, E.F.Plan.Unroll);
  ASSERT_GE(R.Stages, 2u) << "fixture must have a prolog and epilog";

  PipelinedLoopLayout L{R.Region.PrologBase, R.II, R.Stages, R.Unroll,
                        R.LoopId};
  EXPECT_EQ(L.kernelBase(), R.Region.KernelBase);
  EXPECT_EQ(L.epilogBase(), R.Region.EpilogBase);
  EXPECT_EQ(L.end(), R.Region.End);
  VerifyReport VR = verifyPipelinedLoop(E.CR.Code, L, E.F.G, E.F.MS.Sched);
  EXPECT_TRUE(VR.ok()) << VR.str();
}

TEST(ScheduleVerifier, WrongStageCountRejected) {
  MachineDescription MD = MachineDescription::warpCell();
  EmittedFixture E = makeEmitted(MD);
  ASSERT_TRUE(E.CR.Ok) << E.CR.Error;
  const LoopReport &R = E.CR.Report.Loops[0];
  ASSERT_TRUE(R.pipelined());
  ASSERT_GE(R.Stages, 2u);

  PipelinedLoopLayout L{R.Region.PrologBase, R.II, R.Stages + 1, R.Unroll,
                        R.LoopId};
  VerifyReport VR = verifyPipelinedLoop(E.CR.Code, L, E.F.G, E.F.MS.Sched);
  EXPECT_TRUE(VR.has(VerifyErrorKind::StageCountMismatch)) << VR.str();

  L.Stages = R.Stages - 1;
  VR = verifyPipelinedLoop(E.CR.Code, L, E.F.G, E.F.MS.Sched);
  EXPECT_TRUE(VR.has(VerifyErrorKind::StageCountMismatch)) << VR.str();
}

TEST(ScheduleVerifier, TruncatedEpilogRejected) {
  MachineDescription MD = MachineDescription::warpCell();
  EmittedFixture E = makeEmitted(MD);
  ASSERT_TRUE(E.CR.Ok) << E.CR.Error;
  const LoopReport &R = E.CR.Report.Loops[0];
  ASSERT_TRUE(R.pipelined());
  PipelinedLoopLayout L{R.Region.PrologBase, R.II, R.Stages, R.Unroll,
                        R.LoopId};

  // Chop the program off inside the epilog: the region now extends past
  // the end of the code.
  std::vector<VLIWInst> Insts = E.CR.Code.Insts.expand();
  Insts.resize(L.end() - 1);
  VLIWProgram Mutant = E.CR.Code;
  Mutant.Insts = std::move(Insts);
  VerifyReport VR = verifyPipelinedLoop(Mutant, L, E.F.G, E.F.MS.Sched);
  EXPECT_TRUE(VR.has(VerifyErrorKind::StructureMismatch)) << VR.str();
}

TEST(ScheduleVerifier, DroppedEpilogOpsRejected) {
  MachineDescription MD = MachineDescription::warpCell();
  EmittedFixture E = makeEmitted(MD);
  ASSERT_TRUE(E.CR.Ok) << E.CR.Error;
  const LoopReport &R = E.CR.Report.Loops[0];
  ASSERT_TRUE(R.pipelined());
  PipelinedLoopLayout L{R.Region.PrologBase, R.II, R.Stages, R.Unroll,
                        R.LoopId};

  // Empty out the first epilog instruction that still drains operations:
  // the code stays well-formed but no longer completes the last
  // iterations.
  std::vector<VLIWInst> Insts = E.CR.Code.Insts.expand();
  bool Dropped = false;
  for (size_t I = L.epilogBase(); I != L.end(); ++I)
    if (!Insts[I].Ops.empty()) {
      Insts[I].Ops.clear();
      Dropped = true;
      break;
    }
  ASSERT_TRUE(Dropped) << "epilog must drain at least one operation";
  VLIWProgram Mutant = E.CR.Code;
  Mutant.Insts = std::move(Insts);
  VerifyReport VR = verifyPipelinedLoop(Mutant, L, E.F.G, E.F.MS.Sched);
  EXPECT_TRUE(VR.has(VerifyErrorKind::StructureMismatch)) << VR.str();
}

TEST(ScheduleVerifier, RetargetedBackedgeRejected) {
  MachineDescription MD = MachineDescription::warpCell();
  EmittedFixture E = makeEmitted(MD);
  ASSERT_TRUE(E.CR.Ok) << E.CR.Error;
  const LoopReport &R = E.CR.Report.Loops[0];
  ASSERT_TRUE(R.pipelined());
  PipelinedLoopLayout L{R.Region.PrologBase, R.II, R.Stages, R.Unroll,
                        R.LoopId};

  std::vector<VLIWInst> Insts = E.CR.Code.Insts.expand();
  Insts[L.epilogBase() - 1].Ctrl.Target += 1;
  VLIWProgram Mutant = E.CR.Code;
  Mutant.Insts = std::move(Insts);
  VerifyReport VR = verifyPipelinedLoop(Mutant, L, E.F.G, E.F.MS.Sched);
  EXPECT_TRUE(VR.has(VerifyErrorKind::StructureMismatch)) << VR.str();
}

//===----------------------------------------------------------------------===//
// ParanoidVerify across real workloads, and option validation.
//===----------------------------------------------------------------------===//

TEST(ScheduleVerifier, AllWorkloadSchedulesPassParanoidVerify) {
  MachineDescription MD = MachineDescription::warpCell();
  CompilerOptions Opts;
  Opts.ParanoidVerify = true;
  unsigned Pipelined = 0;
  auto Check = [&](const WorkloadSpec &S) {
    BuiltWorkload W = S.Make();
    CompileResult CR = compileProgram(*W.Prog, MD, Opts);
    ASSERT_TRUE(CR.Ok) << S.Name << ": " << CR.Error;
    EXPECT_TRUE(CR.Report.VerifyErrors.empty())
        << S.Name << ": " << CR.Report.VerifyErrors.front();
    Pipelined += CR.Report.numPipelined();
  };
  for (const WorkloadSpec &S : livermoreKernels())
    Check(S);
  for (const WorkloadSpec &S : syntheticPopulation(16, 3))
    Check(S);
  EXPECT_GT(Pipelined, 10u) << "the suite must exercise the verifier on "
                               "real pipelined schedules";
}

TEST(CompilerOptions, FinalizeRejectsInvalidCombinations) {
  MachineDescription MD = MachineDescription::warpCell();
  auto Compile = [&](CompilerOptions Opts, DiagnosticEngine *DE) {
    Program P;
    IRBuilder B(P);
    unsigned A = P.createArray("a", RegClass::Float, 8);
    ForStmt *L = B.beginForImm(0, 7);
    B.fstore(A, B.ix(L), B.fadd(B.fload(A, B.ix(L)), B.fconst(1.0)));
    B.endFor();
    return compileProgram(P, MD, Opts, DE);
  };

  CompilerOptions Ok;
  EXPECT_TRUE(Compile(Ok, nullptr).Ok);

  CompilerOptions BadUnroll;
  BadUnroll.MaxUnroll = 0;
  DiagnosticEngine DE;
  CompileResult CR = Compile(BadUnroll, &DE);
  EXPECT_FALSE(CR.Ok);
  EXPECT_NE(CR.Error.find("MaxUnroll"), std::string::npos) << CR.Error;
  EXPECT_TRUE(DE.hasErrors());

  CompilerOptions BadEff;
  BadEff.EfficiencyThreshold = 0.0;
  EXPECT_FALSE(Compile(BadEff, nullptr).Ok);
  BadEff.EfficiencyThreshold = 1.5;
  EXPECT_FALSE(Compile(BadEff, nullptr).Ok);

  CompilerOptions BadLen;
  BadLen.MaxLoopLenToPipeline = 0;
  EXPECT_FALSE(Compile(BadLen, nullptr).Ok);
}
