//===- PipelinerTests.cpp - Modulo scheduler / MVE / reduction unit tests -----===//
//
// Part of warp-swp.
//
//===----------------------------------------------------------------------===//

#include "swp/Pipeliner/HierarchicalReducer.h"
#include "swp/Pipeliner/LoopUtils.h"
#include "swp/Pipeliner/ModuloScheduler.h"
#include "swp/Pipeliner/ModuloVariableExpansion.h"

#include "swp/DDG/DDGBuilder.h"
#include "swp/IR/IRBuilder.h"
#include "swp/Sched/ListScheduler.h"
#include "swp/Sched/ReservationTables.h"
#include "swp/Sched/Utilization.h"

#include <gtest/gtest.h>

using namespace swp;

namespace {

DepGraph loopGraph(const Program &, const ForStmt *L,
                   const MachineDescription &MD,
                   std::set<unsigned> Expanded = {}) {
  DDGBuildOptions Opts;
  Opts.CurrentLoopId = L->LoopId;
  Opts.ExpandedRegs = std::move(Expanded);
  return buildLoopDepGraph(reduceBodyToUnits(L->Body, MD, L->LoopId), MD,
                           Opts);
}

} // namespace

TEST(ModuloReservation, FoldsUsage) {
  MachineDescription MD = MachineDescription::warpCell();
  ModuloReservationTable MRT(MD, 3);
  Operation Load;
  Load.Opc = Opcode::FLoad;
  Load.Def = VReg(0);
  ScheduleUnit U = ScheduleUnit::makeSimple(Load, MD);
  EXPECT_TRUE(MRT.canPlace(U, 0));
  MRT.place(U, 0);
  // Cycle 3 folds onto row 0: the single memory port is taken.
  EXPECT_FALSE(MRT.canPlace(U, 3));
  EXPECT_TRUE(MRT.canPlace(U, 1));
  MRT.place(U, 1);
  MRT.remove(U, 0);
  EXPECT_TRUE(MRT.canPlace(U, 3));
}

TEST(ModuloScheduler, VectorAddToyHitsIIOne) {
  // Section 2 example: Read / Add / Write pipelines at II = 1.
  Program P;
  IRBuilder B(P);
  unsigned A = P.createArray("a", RegClass::Float, 64);
  VReg K = P.createVReg(RegClass::Float, "k", /*LiveIn=*/true);
  ForStmt *L = B.beginForImm(0, 63);
  B.fstore(A, B.ix(L), B.fadd(B.fload(A, B.ix(L)), K));
  B.endFor();
  MachineDescription MD = MachineDescription::toyCell();
  DepGraph G = loopGraph(P, L, MD);
  ModuloScheduleResult R = moduloSchedule(G, MD);
  ASSERT_TRUE(R.Success);
  EXPECT_EQ(R.MII, 1u);
  EXPECT_EQ(R.II, 1u);
  // Read at 0, Add at 1, Write at 3: four iterations overlap.
  EXPECT_EQ(R.Sched.startOf(0), 0);
  EXPECT_EQ(R.Sched.startOf(1), 1);
  EXPECT_EQ(R.Sched.startOf(2), 3);
  EXPECT_EQ(R.Stages, 4u);
}

TEST(ModuloScheduler, RecurrenceBoundIsAchieved) {
  // a[i] = a[i-1]*b + c on Warp: RecMII = 18 and the scheduler meets it.
  Program P;
  IRBuilder B(P);
  unsigned A = P.createArray("a", RegClass::Float, 256);
  VReg Cb = P.createVReg(RegClass::Float, "b", /*LiveIn=*/true);
  VReg Cc = P.createVReg(RegClass::Float, "c", /*LiveIn=*/true);
  ForStmt *L = B.beginForImm(1, 200);
  B.fstore(A, B.ix(L), B.fadd(B.fmul(B.fload(A, B.ix(L, 1, -1)), Cb), Cc));
  B.endFor();
  MachineDescription MD = MachineDescription::warpCell();
  DepGraph G = loopGraph(P, L, MD);
  ModuloScheduleResult R = moduloSchedule(G, MD);
  ASSERT_TRUE(R.Success);
  EXPECT_EQ(R.RecMII, 18u);
  EXPECT_EQ(R.II, 18u);
  EXPECT_TRUE(R.Sched.satisfiesPrecedence(G, R.II));
}

TEST(ModuloScheduler, ResourceBoundDominatesMemoryHeavyLoop) {
  // b[i] = x[i] + y[i]: three memory references, one port: II = 3.
  Program P;
  IRBuilder B(P);
  unsigned X = P.createArray("x", RegClass::Float, 64);
  unsigned Y = P.createArray("y", RegClass::Float, 64);
  unsigned Bb = P.createArray("b", RegClass::Float, 64);
  ForStmt *L = B.beginForImm(0, 63);
  B.fstore(Bb, B.ix(L), B.fadd(B.fload(X, B.ix(L)), B.fload(Y, B.ix(L))));
  B.endFor();
  MachineDescription MD = MachineDescription::warpCell();
  DepGraph G = loopGraph(P, L, MD);
  ModuloScheduleResult R = moduloSchedule(G, MD);
  ASSERT_TRUE(R.Success);
  EXPECT_EQ(R.ResMII, 3u);
  EXPECT_EQ(R.II, 3u);
}

TEST(ModuloScheduler, KernelUtilizationMatchesHandCount) {
  // b[i] = x[i] + y[i] at II = 3: the three memory references fill every
  // modulo row of the single port (100% — the paper's efficiency measure
  // says this kernel is memory-bound and optimal), the one add occupies a
  // third of the adder, and nothing touches the multiplier or queues.
  Program P;
  IRBuilder B(P);
  unsigned X = P.createArray("x", RegClass::Float, 64);
  unsigned Y = P.createArray("y", RegClass::Float, 64);
  unsigned Bb = P.createArray("b", RegClass::Float, 64);
  ForStmt *L = B.beginForImm(0, 63);
  B.fstore(Bb, B.ix(L), B.fadd(B.fload(X, B.ix(L)), B.fload(Y, B.ix(L))));
  B.endFor();
  MachineDescription MD = MachineDescription::warpCell();
  DepGraph G = loopGraph(P, L, MD);
  ModuloScheduleResult R = moduloSchedule(G, MD);
  ASSERT_TRUE(R.Success);
  ASSERT_EQ(R.II, 3u);

  UtilizationReport U = scheduleUtilization(G, R.Sched, R.II, MD);
  ASSERT_TRUE(U.measured());
  EXPECT_EQ(U.Cycles, 3u);
  EXPECT_EQ(U.OpsIssued, 4u); // 2 loads + 1 add + 1 store.
  auto Busy = [&](const char *Name) -> uint64_t {
    for (const ResourceUtilization &Res : U.Resources)
      if (Res.Name == Name)
        return Res.BusyUnitCycles;
    ADD_FAILURE() << "no resource named " << Name;
    return 0;
  };
  EXPECT_EQ(Busy("mem"), 3u);
  EXPECT_EQ(Busy("fadd"), 1u);
  EXPECT_EQ(Busy("fmul"), 0u);
  EXPECT_EQ(Busy("qin"), 0u);
  EXPECT_EQ(Busy("qout"), 0u);
  EXPECT_DOUBLE_EQ(U.bottleneckOccupancy(), 1.0);
  EXPECT_DOUBLE_EQ(U.issueFillRate(), 4.0 / 3.0);
}

TEST(ModuloScheduler, MaxStagesLimitForcesLargerII) {
  // FPS-164 mode: allowing only 2 overlapped iterations inflates the II.
  Program P;
  IRBuilder B(P);
  unsigned X = P.createArray("x", RegClass::Float, 64);
  unsigned Yy = P.createArray("y", RegClass::Float, 64);
  VReg K = P.createVReg(RegClass::Float, "k", /*LiveIn=*/true);
  ForStmt *L = B.beginForImm(0, 63);
  VReg V = B.fload(X, B.ix(L));
  B.fstore(Yy, B.ix(L), B.fmul(B.fadd(V, K), K));
  B.endFor();
  MachineDescription MD = MachineDescription::warpCell();
  DepGraph G = loopGraph(P, L, MD);

  ModuloScheduleResult Free = moduloSchedule(G, MD);
  ASSERT_TRUE(Free.Success);

  ModuloScheduleOptions Limited;
  Limited.MaxStages = 2;
  ModuloScheduleResult Lim = moduloSchedule(G, MD, Limited);
  ASSERT_TRUE(Lim.Success);
  EXPECT_LE(Lim.Stages, 2u);
  EXPECT_GT(Lim.II, Free.II);
}

TEST(ModuloScheduler, BinarySearchAlsoFindsSchedules) {
  Program P;
  IRBuilder B(P);
  unsigned A = P.createArray("a", RegClass::Float, 64);
  VReg K = P.createVReg(RegClass::Float, "k", /*LiveIn=*/true);
  ForStmt *L = B.beginForImm(0, 63);
  B.fstore(A, B.ix(L), B.fmul(B.fload(A, B.ix(L)), K));
  B.endFor();
  MachineDescription MD = MachineDescription::warpCell();
  DepGraph G = loopGraph(P, L, MD);
  ModuloScheduleOptions Opts;
  Opts.BinarySearch = true;
  ModuloScheduleResult R = moduloSchedule(G, MD, Opts);
  ASSERT_TRUE(R.Success);
  EXPECT_TRUE(R.Sched.satisfiesPrecedence(G, R.II));
}

TEST(ModuloScheduler, BinarySearchTerminatesAtMIIOne) {
  // Regression: the binary-search ablation carried a dead `Mid == 0`
  // guard and decremented Hi past Lo; with MII = 1 (the smallest legal
  // interval, immediately schedulable) the search must terminate on the
  // Mid == Lo success exit and still report the optimal interval.
  Program P;
  IRBuilder B(P);
  unsigned A = P.createArray("a", RegClass::Float, 64);
  VReg K = P.createVReg(RegClass::Float, "k", /*LiveIn=*/true);
  ForStmt *L = B.beginForImm(0, 63);
  B.fstore(A, B.ix(L), B.fadd(B.fload(A, B.ix(L)), K));
  B.endFor();
  MachineDescription MD = MachineDescription::toyCell();
  DepGraph G = loopGraph(P, L, MD);
  ModuloScheduleOptions Opts;
  Opts.BinarySearch = true;
  ModuloScheduleResult R = moduloSchedule(G, MD, Opts);
  ASSERT_TRUE(R.Success);
  EXPECT_EQ(R.MII, 1u);
  EXPECT_EQ(R.II, 1u);
  EXPECT_TRUE(R.Sched.satisfiesPrecedence(G, R.II));

  // The serial linear search finds the same interval and issue length.
  ModuloScheduleResult Linear = moduloSchedule(G, MD);
  ASSERT_TRUE(Linear.Success);
  EXPECT_EQ(Linear.II, R.II);
  EXPECT_EQ(Linear.Sched.issueLength(), R.Sched.issueLength());
}

TEST(MVE, RotatingRegisterExample) {
  // The section 2.3 example: def(R) ... use(R) two cycles later with
  // II = 1 needs 2 locations -> unroll 2.
  MachineDescription MD = MachineDescription::toyCell();
  Program P;
  IRBuilder B(P);
  unsigned A = P.createArray("a", RegClass::Float, 64);
  unsigned Bb = P.createArray("b", RegClass::Float, 64);
  ForStmt *L = B.beginForImm(0, 63);
  VReg T = B.fload(A, B.ix(L)); // latency 1
  B.fstore(Bb, B.ix(L), T);
  B.endFor();
  std::vector<ScheduleUnit> Units = reduceBodyToUnits(L->Body, MD, L->LoopId);
  std::set<unsigned> Eligible = mveEligibleRegs(Units, {}, P);
  EXPECT_TRUE(Eligible.count(T.Id));

  DDGBuildOptions Opts;
  Opts.CurrentLoopId = L->LoopId;
  Opts.ExpandedRegs = Eligible;
  DepGraph G = buildLoopDepGraph(Units, MD, Opts);
  ModuloScheduleResult R = moduloSchedule(G, MD);
  ASSERT_TRUE(R.Success);
  EXPECT_EQ(R.II, 1u);

  MVEPlan Plan = planModuloVariableExpansion(Units, R.Sched, R.II, Eligible,
                                             MVEPolicy::MinCodeSize);
  // Load at 0 commits at 1; store reads at 1: lifetime 1 -> one location
  // ... unless the scheduler stretched it; accept >= 1 and consistency.
  EXPECT_GE(Plan.copiesOf(T.Id), 1u);
  EXPECT_EQ(Plan.Unroll % Plan.copiesOf(T.Id), 0u);
}

TEST(MVE, LongLatencyNeedsMoreCopies) {
  MachineDescription MD = MachineDescription::warpCell();
  Program P;
  IRBuilder B(P);
  unsigned A = P.createArray("a", RegClass::Float, 64);
  unsigned Bb = P.createArray("b", RegClass::Float, 64);
  VReg K = P.createVReg(RegClass::Float, "k", /*LiveIn=*/true);
  ForStmt *L = B.beginForImm(0, 63);
  VReg T = B.fmul(B.fload(A, B.ix(L)), K); // 7-cycle producer
  B.fstore(Bb, B.ix(L), T);
  B.endFor();
  std::vector<ScheduleUnit> Units = reduceBodyToUnits(L->Body, MD, L->LoopId);
  std::set<unsigned> Eligible = mveEligibleRegs(Units, {}, P);
  DDGBuildOptions Opts;
  Opts.CurrentLoopId = L->LoopId;
  Opts.ExpandedRegs = Eligible;
  DepGraph G = buildLoopDepGraph(Units, MD, Opts);
  ModuloScheduleResult R = moduloSchedule(G, MD);
  ASSERT_TRUE(R.Success);
  // One memory port, two references: II = 2.
  EXPECT_EQ(R.II, 2u);
  MVEPlan Max = planModuloVariableExpansion(Units, R.Sched, R.II, Eligible,
                                            MVEPolicy::MinCodeSize);
  MVEPlan Lcm = planModuloVariableExpansion(Units, R.Sched, R.II, Eligible,
                                            MVEPolicy::MinRegisters);
  EXPECT_GE(Max.Unroll, 1u);
  for (const auto &[Id, Copies] : Max.Copies) {
    EXPECT_EQ(Max.Unroll % Copies, 0u)
        << "copy counts must divide the unroll degree";
    EXPECT_GE(Copies, Lcm.copiesOf(Id))
        << "min-code-size policy may only round copy counts up";
  }
}

TEST(MVE, AccumulatorIneligible) {
  MachineDescription MD = MachineDescription::warpCell();
  Program P;
  IRBuilder B(P);
  unsigned X = P.createArray("x", RegClass::Float, 64);
  VReg Acc = P.createVReg(RegClass::Float, "acc");
  B.assignUn(Acc, Opcode::FMov, B.fconst(0.0));
  ForStmt *L = B.beginForImm(0, 63);
  B.assign(Acc, Opcode::FAdd, Acc, B.fload(X, B.ix(L)));
  B.endFor();
  std::vector<ScheduleUnit> Units = reduceBodyToUnits(L->Body, MD, L->LoopId);
  std::set<unsigned> Eligible = mveEligibleRegs(Units, {}, P);
  EXPECT_FALSE(Eligible.count(Acc.Id))
      << "read-before-write registers carry values across iterations";
}

TEST(MVE, PredicatedDefIneligible) {
  MachineDescription MD = MachineDescription::warpCell();
  Program P;
  IRBuilder B(P);
  unsigned X = P.createArray("x", RegClass::Float, 64);
  unsigned Yy = P.createArray("y", RegClass::Float, 64);
  VReg Zero = B.fconst(0.0);
  VReg T = P.createVReg(RegClass::Float, "t");
  B.assignMov(T, Zero);
  ForStmt *L = B.beginForImm(0, 63);
  VReg V = B.fload(X, B.ix(L));
  VReg Neg = B.binop(Opcode::FCmpLT, V, Zero);
  B.beginIf(Neg);
  B.assignUn(T, Opcode::FNeg, V);
  B.endIf();
  B.fstore(Yy, B.ix(L), T);
  B.endFor();
  std::vector<ScheduleUnit> Units = reduceBodyToUnits(L->Body, MD, L->LoopId);
  std::set<unsigned> Eligible = mveEligibleRegs(Units, {}, P);
  EXPECT_FALSE(Eligible.count(T.Id))
      << "a conditionally written register is not redefined every iteration";
  EXPECT_TRUE(Eligible.count(V.Id));
}

TEST(HierarchicalReduction, UnionReservationIsMaxOfBranches) {
  MachineDescription MD = MachineDescription::warpCell();
  Program P;
  IRBuilder B(P);
  unsigned X = P.createArray("x", RegClass::Float, 64);
  unsigned Yy = P.createArray("y", RegClass::Float, 64);
  VReg Zero = B.fconst(0.0);
  ForStmt *L = B.beginForImm(0, 63);
  VReg V = B.fload(X, B.ix(L));
  VReg Cond = B.binop(Opcode::FCmpLT, V, Zero);
  VReg R = P.createVReg(RegClass::Float);
  B.beginIf(Cond);
  // THEN: two adder ops in sequence.
  B.assignUn(R, Opcode::FNeg, B.fadd(V, V));
  B.beginElse();
  // ELSE: one adder op.
  B.assignUn(R, Opcode::FMov, V);
  B.endIf();
  B.fstore(Yy, B.ix(L), R);
  B.endFor();

  std::vector<ScheduleUnit> Units = reduceBodyToUnits(L->Body, MD, L->LoopId);
  // load, compare, reduced-if, store.
  ASSERT_EQ(Units.size(), 4u);
  const ScheduleUnit &IfUnit = Units[2];
  EXPECT_TRUE(IfUnit.isReduced());
  // Both branches' ops are present, predicated both ways.
  bool SawThen = false, SawElse = false;
  for (const UnitOp &UO : IfUnit.ops()) {
    ASSERT_FALSE(UO.Preds.empty());
    (UO.Preds[0].Negated ? SawElse : SawThen) = true;
  }
  EXPECT_TRUE(SawThen);
  EXPECT_TRUE(SawElse);

  // Union reservation: the adder is used at most once per cycle even
  // though both branches use it (max, not sum).
  unsigned FAddRes = MD.opcodeInfo(Opcode::FAdd).Uses[0].ResId;
  for (const ResourceUse &Use : IfUnit.reservation()) {
    if (Use.ResId == FAddRes) {
      EXPECT_LE(Use.Units, 1u);
    }
  }

  // The reduced loop still pipelines.
  DDGBuildOptions Opts;
  Opts.CurrentLoopId = L->LoopId;
  DepGraph G = buildLoopDepGraph(Units, MD, Opts);
  ModuloScheduleResult MS = moduloSchedule(G, MD);
  ASSERT_TRUE(MS.Success);
  EXPECT_LT(MS.II, static_cast<unsigned>(
                       unpipelinedPeriod(G, listSchedule(G, MD))));
}

TEST(HierarchicalReduction, NestedConditionalsStackPredicates) {
  MachineDescription MD = MachineDescription::warpCell();
  Program P;
  IRBuilder B(P);
  unsigned X = P.createArray("x", RegClass::Float, 64);
  VReg Zero = B.fconst(0.0);
  VReg One = B.fconst(1.0);
  ForStmt *L = B.beginForImm(0, 63);
  VReg V = B.fload(X, B.ix(L));
  VReg C1 = B.binop(Opcode::FCmpLT, V, Zero);
  VReg C2 = B.binop(Opcode::FCmpLT, One, V);
  VReg R = P.createVReg(RegClass::Float);
  B.assignMov(R, V);
  B.beginIf(C1);
  B.beginIf(C2);
  B.assignUn(R, Opcode::FNeg, V);
  B.endIf();
  B.endIf();
  B.fstore(X, B.ix(L), R);
  B.endFor();

  std::vector<ScheduleUnit> Units = reduceBodyToUnits(L->Body, MD, L->LoopId);
  bool SawDouble = false;
  for (const ScheduleUnit &U : Units)
    for (const UnitOp &UO : U.ops())
      if (UO.Preds.size() == 2)
        SawDouble = true;
  EXPECT_TRUE(SawDouble) << "nested IFs must stack predicate terms";
}

TEST(LoopUtils, LiveOutAndIndVar) {
  Program P;
  IRBuilder B(P);
  unsigned X = P.createArray("x", RegClass::Float, 64);
  unsigned Out = P.createArray("out", RegClass::Float, 1);
  VReg Acc = P.createVReg(RegClass::Float, "acc");
  B.assignUn(Acc, Opcode::FMov, B.fconst(0.0));
  ForStmt *L = B.beginForImm(0, 63);
  VReg V = B.fload(X, B.ix(L));
  B.assign(Acc, Opcode::FAdd, Acc, V);
  B.endFor();
  B.fstore(Out, B.cx(0), Acc);

  std::set<unsigned> LiveOut = liveOutRegs(P, *L);
  EXPECT_TRUE(LiveOut.count(Acc.Id));
  EXPECT_FALSE(LiveOut.count(V.Id));
  EXPECT_FALSE(usesIndVarAsValue(*L));

  LoopPrep Prep = prepareLoopForCodegen(P, *L);
  EXPECT_FALSE(Prep.IndVarMaterialized);
  EXPECT_TRUE(Prep.Preheader.empty());
}

TEST(LoopUtils, IndVarMaterializationIsIdempotent) {
  Program P;
  IRBuilder B(P);
  unsigned X = P.createArray("x", RegClass::Float, 64);
  ForStmt *L = B.beginForImm(0, 63);
  B.fstore(X, B.ix(L), B.i2f(L->IndVar));
  B.endFor();
  EXPECT_TRUE(usesIndVarAsValue(*L));
  size_t Before = L->Body.size();
  LoopPrep First = prepareLoopForCodegen(P, *L);
  EXPECT_TRUE(First.IndVarMaterialized);
  EXPECT_EQ(L->Body.size(), Before + 1);
  EXPECT_EQ(First.Preheader.size(), 2u);
  LoopPrep Second = prepareLoopForCodegen(P, *L);
  EXPECT_TRUE(Second.IndVarMaterialized);
  EXPECT_TRUE(Second.Preheader.empty());
  EXPECT_EQ(L->Body.size(), Before + 1);
}

TEST(LoopUtils, InnermostDetection) {
  Program P;
  IRBuilder B(P);
  ForStmt *Outer = B.beginForImm(0, 3);
  ForStmt *Inner = B.beginForImm(0, 3);
  B.endFor();
  B.endFor();
  EXPECT_FALSE(isInnermost(*Outer));
  EXPECT_TRUE(isInnermost(*Inner));
  auto Loops = innermostLoops(P.Body);
  ASSERT_EQ(Loops.size(), 1u);
  EXPECT_EQ(Loops[0], Inner);
}
