//===- SchedTests.cpp - List scheduler / reservation table tests --------------===//
//
// Part of warp-swp.
//
//===----------------------------------------------------------------------===//

#include "swp/Sched/ListScheduler.h"
#include "swp/Sched/ReservationTables.h"

#include "swp/DDG/DDGBuilder.h"
#include "swp/IR/IRBuilder.h"

#include <gtest/gtest.h>

using namespace swp;

namespace {

DepGraph bodyGraph(const Program &, const ForStmt *L,
                   const MachineDescription &MD) {
  DDGBuildOptions Opts;
  Opts.CurrentLoopId = L->LoopId;
  return buildLoopDepGraph(simpleUnitsFromBody(L->Body, MD), MD, Opts);
}

} // namespace

TEST(ReservationTable, EnforcesUnitCounts) {
  MachineDescription MD = MachineDescription::warpCell();
  ReservationTable RT(MD);
  Operation Add;
  Add.Opc = Opcode::FAdd;
  Add.Def = VReg(0);
  Add.Operands = {VReg(1), VReg(2)};
  ScheduleUnit U = ScheduleUnit::makeSimple(Add, MD);
  EXPECT_TRUE(RT.canPlace(U, 0));
  RT.place(U, 0);
  EXPECT_FALSE(RT.canPlace(U, 0)) << "one adder only";
  EXPECT_TRUE(RT.canPlace(U, 1));
  unsigned FAddRes = MD.opcodeInfo(Opcode::FAdd).Uses[0].ResId;
  EXPECT_EQ(RT.usedAt(0, FAddRes), 1u);
  EXPECT_EQ(RT.usedAt(5, FAddRes), 0u);
}

TEST(ListScheduler, RespectsChainsAndResources) {
  // c[i] = (a[i] + k) * k: load -> add -> mul -> store serial chain.
  Program P;
  IRBuilder B(P);
  unsigned A = P.createArray("a", RegClass::Float, 64);
  unsigned C = P.createArray("c", RegClass::Float, 64);
  VReg K = P.createVReg(RegClass::Float, "k", /*LiveIn=*/true);
  ForStmt *L = B.beginForImm(0, 63);
  B.fstore(C, B.ix(L), B.fmul(B.fadd(B.fload(A, B.ix(L)), K), K));
  B.endFor();
  MachineDescription MD = MachineDescription::warpCell();
  DepGraph G = bodyGraph(P, L, MD);
  Schedule S = listSchedule(G, MD);
  // load at 0 (lat 3), add at 3 (lat 7), mul at 10 (lat 7), store at 17.
  EXPECT_EQ(S.startOf(0), 0);
  EXPECT_EQ(S.startOf(1), 3);
  EXPECT_EQ(S.startOf(2), 10);
  EXPECT_EQ(S.startOf(3), 17);
  EXPECT_EQ(S.issueLength(), 18);
  EXPECT_TRUE(S.satisfiesPrecedence(G, /*S=*/1'000'000));
}

TEST(ListScheduler, ParallelOpsShareCycleAcrossUnits) {
  // Independent add and mul can issue together; two adds cannot.
  Program P;
  IRBuilder B(P);
  VReg X = P.createVReg(RegClass::Float, "x", /*LiveIn=*/true);
  ForStmt *L = B.beginForImm(0, 3);
  (void)L;
  B.fadd(X, X);
  B.fmul(X, X);
  B.fadd(X, X);
  B.endFor();
  MachineDescription MD = MachineDescription::warpCell();
  DepGraph G = bodyGraph(P, L, MD);
  Schedule S = listSchedule(G, MD);
  EXPECT_EQ(std::min(S.startOf(0), S.startOf(1)), 0);
  EXPECT_EQ(S.startOf(1), 0) << "multiplier is free at cycle 0";
  EXPECT_NE(S.startOf(0), S.startOf(2)) << "single adder";
}

TEST(ListScheduler, HeightPrioritizesCriticalPath) {
  Program P;
  IRBuilder B(P);
  unsigned A = P.createArray("a", RegClass::Float, 64);
  unsigned Bb = P.createArray("b", RegClass::Float, 64);
  VReg K = P.createVReg(RegClass::Float, "k", /*LiveIn=*/true);
  ForStmt *L = B.beginForImm(0, 63);
  // Long chain: load a -> add -> store b. Short: unrelated add.
  VReg V = B.fload(A, B.ix(L));
  VReg W = B.fadd(V, K);
  B.fstore(Bb, B.ix(L), W);
  B.fadd(K, K);
  B.endFor();
  MachineDescription MD = MachineDescription::warpCell();
  DepGraph G = bodyGraph(P, L, MD);
  std::vector<int64_t> H = computeHeights(G);
  EXPECT_GT(H[0], H[3]) << "chain head must outrank the independent add";
}

TEST(UnpipelinedPeriod, CarriedDependencesStretchThePeriod) {
  // acc += x[i] on Warp: issue length is short but the carried add
  // latency forces a 7-cycle period... unless the period is already
  // longer. Use a tiny body to expose the carried bound.
  Program P;
  IRBuilder B(P);
  unsigned X = P.createArray("x", RegClass::Float, 64);
  VReg Acc = P.createVReg(RegClass::Float, "acc");
  B.assignUn(Acc, Opcode::FMov, B.fconst(0.0));
  ForStmt *L = B.beginForImm(0, 63);
  B.assign(Acc, Opcode::FAdd, Acc, B.fload(X, B.ix(L)));
  B.endFor();
  MachineDescription MD = MachineDescription::warpCell();
  DepGraph G = bodyGraph(P, L, MD);
  Schedule S = listSchedule(G, MD);
  int Period = unpipelinedPeriod(G, S);
  // Issue length is 4 (load@0, add@3) but acc -> acc needs 7 cycles
  // between adds: period >= 3 + 7 - 3 = 7... relative to the add at 3,
  // the next add at P+3 must be >= 3+7.
  EXPECT_GE(Period, 7);
}
