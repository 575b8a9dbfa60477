//===- TransformTests.cpp - LICM / DCE unit and semantics tests ----------------===//
//
// Part of warp-swp.
//
//===----------------------------------------------------------------------===//

#include "swp/IR/Transforms.h"

#include "swp/IR/Expansion.h"
#include "swp/IR/IRBuilder.h"
#include "swp/IR/Verifier.h"
#include "swp/Interp/Interpreter.h"
#include "swp/Workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace swp;

namespace {

unsigned opsIn(const StmtList &List) { return countOps(List); }

} // namespace

TEST(LICM, HoistsConstantsAndInvariantArithmetic) {
  Program P;
  IRBuilder B(P);
  unsigned A = P.createArray("a", RegClass::Float, 64);
  VReg K = P.createVReg(RegClass::Float, "k", /*LiveIn=*/true);
  ForStmt *L = B.beginForImm(0, 63);
  VReg C = B.fconst(2.0);         // Invariant.
  VReg KK = B.fmul(K, C);         // Invariant (after C hoists).
  B.fstore(A, B.ix(L), B.fadd(B.fload(A, B.ix(L)), KK));
  B.endFor();

  unsigned BodyBefore = opsIn(L->Body);
  unsigned Hoisted = hoistLoopInvariants(P);
  EXPECT_EQ(Hoisted, 2u);
  EXPECT_EQ(opsIn(L->Body), BodyBefore - 2);
  DiagnosticEngine DE;
  EXPECT_TRUE(verifyProgram(P, DE)) << DE.str();
}

TEST(LICM, HoistsInvariantLoadWhenSafe) {
  // kw[0] inside the loop: invariant address, no stores to kw, loop runs.
  Program P;
  IRBuilder B(P);
  unsigned A = P.createArray("a", RegClass::Float, 64);
  unsigned KW = P.createArray("kw", RegClass::Float, 4);
  ForStmt *L = B.beginForImm(0, 63);
  VReg W = B.fload(KW, B.cx(0));
  B.fstore(A, B.ix(L), B.fmul(B.fload(A, B.ix(L)), W));
  B.endFor();
  EXPECT_GE(hoistLoopInvariants(P), 1u);
  // The kw load left the body.
  bool LoadInBody = false;
  forEachStmt(L->Body, [&](const Stmt &S) {
    if (const auto *Op = dyn_cast<OpStmt>(&S))
      if (Op->Op.Opc == Opcode::FLoad && Op->Op.Mem.ArrayId == KW)
        LoadInBody = true;
  });
  EXPECT_FALSE(LoadInBody);
}

TEST(LICM, DoesNotHoistLoadsFromStoredArrays) {
  Program P;
  IRBuilder B(P);
  unsigned A = P.createArray("a", RegClass::Float, 64);
  ForStmt *L = B.beginForImm(0, 63);
  VReg V = B.fload(A, B.cx(0)); // a[0] is also written below.
  B.fstore(A, B.ix(L), V);
  B.endFor();
  EXPECT_EQ(hoistLoopInvariants(P), 0u);
}

TEST(LICM, DoesNotHoistVariantOrCarried) {
  Program P;
  IRBuilder B(P);
  unsigned A = P.createArray("a", RegClass::Float, 64);
  VReg Acc = P.createVReg(RegClass::Float, "acc");
  B.assignUn(Acc, Opcode::FMov, B.fconst(0.0));
  ForStmt *L = B.beginForImm(0, 63);
  // Variant: depends on the loop's load.
  VReg V = B.fload(A, B.ix(L));
  // Carried: acc reads itself.
  B.assign(Acc, Opcode::FAdd, Acc, V);
  B.endFor();
  EXPECT_EQ(hoistLoopInvariants(P), 0u);
}

TEST(LICM, ZeroTripLoopKeepsPostLoopState) {
  // x := 5.0; for (zero trips) { x := 3.0 }; out[0] := x.
  // Hoisting x := 3.0 would corrupt the post-loop value.
  Program P;
  IRBuilder B(P);
  unsigned Out = P.createArray("out", RegClass::Float, 1);
  VReg N = P.createVReg(RegClass::Int, "n", /*LiveIn=*/true);
  VReg X = P.createVReg(RegClass::Float, "x");
  B.assignUn(X, Opcode::FMov, B.fconst(5.0));
  ForStmt *L = B.beginForReg(1, N); // Runtime bound: may be zero-trip.
  (void)L;
  B.assignUn(X, Opcode::FMov, B.fconst(3.0));
  B.endFor();
  B.fstore(Out, B.cx(0), X);

  hoistLoopInvariants(P);
  ProgramInput In;
  In.IntScalars[N.Id] = 0; // Zero trips.
  ProgramState S = interpret(P, In);
  ASSERT_TRUE(S.Ok) << S.Error;
  EXPECT_FLOAT_EQ(S.FloatArrays[Out][0], 5.0f);
}

TEST(DCE, RemovesUnusedPureChains) {
  Program P;
  IRBuilder B(P);
  unsigned A = P.createArray("a", RegClass::Float, 8);
  VReg Used = B.fconst(1.0);
  VReg Dead1 = B.fconst(2.0);
  VReg Dead2 = B.fadd(Dead1, Dead1); // Chain dies together.
  (void)Dead2;
  B.fstore(A, B.cx(0), Used);
  EXPECT_EQ(eliminateDeadCode(P), 2u);
  EXPECT_EQ(countOps(P.Body), 2u);
}

TEST(DCE, KeepsSideEffects) {
  Program P;
  IRBuilder B(P);
  VReg V = B.recv(0); // Pops the channel even if unread.
  (void)V;
  B.send(0, B.fconst(1.0));
  EXPECT_EQ(eliminateDeadCode(P), 0u);
}

TEST(DCE, RemovesEmptyConditionalsAndLoops) {
  Program P;
  IRBuilder B(P);
  VReg C = B.iconst(1);
  B.beginIf(C);
  VReg Dead = B.fconst(3.0);
  (void)Dead;
  B.endIf();
  ForStmt *L = B.beginForImm(0, 7);
  (void)L;
  VReg AlsoDead = B.fconst(4.0);
  (void)AlsoDead;
  B.endFor();
  eliminateDeadCode(P);
  EXPECT_TRUE(P.Body.empty())
      << "dead body -> empty if/loop -> dead condition, all removed";
}

TEST(DCE, TrimsExpExpansion) {
  // The EXP expansion computes a scale that partially dies when the
  // result feeds a simple consumer; DCE must shrink it without changing
  // the value.
  Program P;
  IRBuilder B(P);
  unsigned Out = P.createArray("out", RegClass::Float, 1);
  VReg X = P.createVReg(RegClass::Float, "x", /*LiveIn=*/true);
  B.fstore(Out, B.cx(0), B.fexp(X));
  expandLibraryOps(P);
  unsigned Before = countOps(P.Body);
  ProgramInput In;
  In.FloatScalars[X.Id] = 1.75f;
  ProgramState Golden = interpret(P, In);
  unsigned Removed = eliminateDeadCode(P);
  ProgramState After = interpret(P, In);
  ASSERT_TRUE(Golden.Ok && After.Ok);
  EXPECT_EQ(compareStates(P, Golden, After), "");
  EXPECT_EQ(countOps(P.Body), Before - Removed);
}

//===----------------------------------------------------------------------===//
// Semantics preservation across the workload corpus.
//===----------------------------------------------------------------------===//

class TransformSemantics : public ::testing::TestWithParam<size_t> {};

TEST_P(TransformSemantics, OptimizedStateMatches) {
  static const auto Pop = syntheticPopulation(18, 2024);
  const WorkloadSpec &Spec = Pop[GetParam()];
  BuiltWorkload Original = Spec.Make();
  BuiltWorkload Optimized = Spec.Make();
  expandLibraryOps(*Original.Prog);
  expandLibraryOps(*Optimized.Prog);
  while (eliminateDeadCode(*Optimized.Prog) +
             hoistLoopInvariants(*Optimized.Prog) !=
         0) {
  }
  DiagnosticEngine DE;
  ASSERT_TRUE(verifyProgram(*Optimized.Prog, DE)) << DE.str();
  ProgramState A = interpret(*Original.Prog, Original.Input);
  ProgramState B = interpret(*Optimized.Prog, Optimized.Input);
  ASSERT_TRUE(A.Ok) << A.Error;
  ASSERT_TRUE(B.Ok) << B.Error;
  EXPECT_EQ(compareStates(*Original.Prog, A, B), "") << Spec.Name;
}

INSTANTIATE_TEST_SUITE_P(Population, TransformSemantics,
                         ::testing::Range<size_t>(0, 18));

TEST(TransformSemantics, LivermoreKernelsMatch) {
  for (const WorkloadSpec &Spec : livermoreKernels()) {
    BuiltWorkload Original = Spec.Make();
    BuiltWorkload Optimized = Spec.Make();
    expandLibraryOps(*Original.Prog);
    expandLibraryOps(*Optimized.Prog);
    while (eliminateDeadCode(*Optimized.Prog) +
               hoistLoopInvariants(*Optimized.Prog) !=
           0) {
    }
    ProgramState A = interpret(*Original.Prog, Original.Input);
    ProgramState B = interpret(*Optimized.Prog, Optimized.Input);
    ASSERT_TRUE(A.Ok && B.Ok) << Spec.Name;
    EXPECT_EQ(compareStates(*Original.Prog, A, B), "") << Spec.Name;
  }
}

//===----------------------------------------------------------------------===//
// Local value numbering.
//===----------------------------------------------------------------------===//

TEST(LVN, RewritesRedundantArithmeticAndLoads) {
  Program P;
  IRBuilder B(P);
  unsigned A = P.createArray("a", RegClass::Float, 16);
  unsigned Out = P.createArray("out", RegClass::Float, 4);
  VReg X = P.createVReg(RegClass::Float, "x", /*LiveIn=*/true);
  VReg S1 = B.fadd(X, X);
  VReg L1 = B.fload(A, B.cx(3));
  VReg S2 = B.fadd(X, X);      // Redundant arithmetic.
  VReg L2 = B.fload(A, B.cx(3)); // Redundant load.
  B.fstore(Out, B.cx(0), S1);
  B.fstore(Out, B.cx(1), S2);
  B.fstore(Out, B.cx(2), L1);
  B.fstore(Out, B.cx(3), L2);
  EXPECT_EQ(localValueNumbering(P), 2u);
  unsigned Movs = 0, Adds = 0, Loads = 0;
  forEachStmt(P.Body, [&](const Stmt &S) {
    if (const auto *Op = dyn_cast<OpStmt>(&S)) {
      if (Op->Op.Opc == Opcode::FMov)
        ++Movs;
      if (Op->Op.Opc == Opcode::FAdd)
        ++Adds;
      if (Op->Op.Opc == Opcode::FLoad)
        ++Loads;
    }
  });
  EXPECT_EQ(Movs, 2u);
  EXPECT_EQ(Adds, 1u);
  EXPECT_EQ(Loads, 1u);
}

TEST(LVN, RedefinedOperandBlocksReuse) {
  Program P;
  IRBuilder B(P);
  unsigned Out = P.createArray("out", RegClass::Float, 2);
  VReg X = P.createVReg(RegClass::Float, "x");
  B.assignMov(X, B.fconst(1.0));
  VReg S1 = B.fadd(X, X);
  B.assignMov(X, B.fconst(2.0)); // X changes: x+x is no longer available.
  VReg S2 = B.fadd(X, X);
  B.fstore(Out, B.cx(0), S1);
  B.fstore(Out, B.cx(1), S2);
  EXPECT_EQ(localValueNumbering(P), 0u);
}

// x = x + y reads the x it overwrites, so the expression x + y it computed
// is not available in x afterwards: a following t = x + y (over the new x)
// must be recomputed, not turned into t = mov x.
TEST(LVN, OpRedefiningItsOperandIsNotReused) {
  Program P;
  IRBuilder B(P);
  unsigned Out = P.createArray("out", RegClass::Float, 2);
  VReg X = P.createVReg(RegClass::Float, "x");
  B.assignMov(X, B.fconst(1.0));
  VReg Y = B.fconst(2.0);
  B.assign(X, Opcode::FAdd, X, Y);
  VReg T = B.fadd(X, Y);
  B.fstore(Out, B.cx(0), X);
  B.fstore(Out, B.cx(1), T);

  ProgramState Before = interpret(P, {});
  ASSERT_TRUE(Before.Ok) << Before.Error;
  EXPECT_FLOAT_EQ(Before.FloatArrays[Out][0], 3.0f);
  EXPECT_FLOAT_EQ(Before.FloatArrays[Out][1], 5.0f);
  EXPECT_EQ(localValueNumbering(P), 0u);
  ProgramState After = interpret(P, {});
  ASSERT_TRUE(After.Ok) << After.Error;
  EXPECT_FLOAT_EQ(After.FloatArrays[Out][0], 3.0f);
  EXPECT_FLOAT_EQ(After.FloatArrays[Out][1], 5.0f);
}

TEST(LVN, StoreInvalidatesLoads) {
  Program P;
  IRBuilder B(P);
  unsigned A = P.createArray("a", RegClass::Float, 8);
  unsigned Out = P.createArray("out", RegClass::Float, 2);
  VReg L1 = B.fload(A, B.cx(0));
  B.fstore(A, B.cx(0), B.fconst(9.0));
  VReg L2 = B.fload(A, B.cx(0)); // Must re-read.
  B.fstore(Out, B.cx(0), L1);
  B.fstore(Out, B.cx(1), L2);
  EXPECT_EQ(localValueNumbering(P), 0u);

  ProgramState S = interpret(P, {});
  ASSERT_TRUE(S.Ok) << S.Error;
  EXPECT_FLOAT_EQ(S.FloatArrays[Out][0], 0.0f);
  EXPECT_FLOAT_EQ(S.FloatArrays[Out][1], 9.0f);
}

TEST(LVN, ConditionalBoundaryFlushes) {
  Program P;
  IRBuilder B(P);
  unsigned A = P.createArray("a", RegClass::Float, 8);
  unsigned Out = P.createArray("out", RegClass::Float, 1);
  VReg L1 = B.fload(A, B.cx(0));
  VReg C = B.iconst(1);
  B.beginIf(C);
  B.fstore(A, B.cx(0), B.fconst(5.0)); // Conditional store.
  B.endIf();
  VReg L2 = B.fload(A, B.cx(0)); // Availability flushed at the IF.
  B.fstore(Out, B.cx(0), B.fsub(L2, L1));
  EXPECT_EQ(localValueNumbering(P), 0u);
  ProgramState S = interpret(P, {});
  ASSERT_TRUE(S.Ok);
  EXPECT_FLOAT_EQ(S.FloatArrays[Out][0], 5.0f);
}

TEST(LVN, PopulationSemanticsPreserved) {
  for (const WorkloadSpec &Spec : syntheticPopulation(10, 555)) {
    BuiltWorkload Original = Spec.Make();
    BuiltWorkload Optimized = Spec.Make();
    expandLibraryOps(*Original.Prog);
    expandLibraryOps(*Optimized.Prog);
    localValueNumbering(*Optimized.Prog);
    DiagnosticEngine DE;
    ASSERT_TRUE(verifyProgram(*Optimized.Prog, DE)) << DE.str();
    ProgramState A = interpret(*Original.Prog, Original.Input);
    ProgramState B = interpret(*Optimized.Prog, Optimized.Input);
    ASSERT_TRUE(A.Ok && B.Ok);
    EXPECT_EQ(compareStates(*Original.Prog, A, B), "") << Spec.Name;
  }
}
