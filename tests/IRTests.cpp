//===- IRTests.cpp - Unit tests for swp_ir -----------------------------------===//
//
// Part of warp-swp.
//
//===----------------------------------------------------------------------===//

#include "swp/IR/Expansion.h"
#include "swp/IR/IRBuilder.h"
#include "swp/IR/OpTraits.h"
#include "swp/IR/Printer.h"
#include "swp/IR/Verifier.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace swp;

namespace {

/// a[i] := a[i] + 1.0 over i in [0, 9].
struct VectorAddFixture {
  Program P;
  unsigned A;
  ForStmt *Loop = nullptr;

  VectorAddFixture() {
    IRBuilder B(P);
    A = P.createArray("a", RegClass::Float, 10);
    VReg K = B.fconst(1.0);
    Loop = B.beginForImm(0, 9);
    VReg X = B.fload(A, B.ix(Loop));
    B.fstore(A, B.ix(Loop), B.fadd(X, K));
    B.endFor();
  }
};

} // namespace

TEST(AffineExpr, TermArithmetic) {
  AffineExpr E;
  E.addTerm(0, 2);
  E.addTerm(1, 3);
  E.addTerm(0, -2); // cancels loop 0
  EXPECT_EQ(E.coefOf(0), 0);
  EXPECT_EQ(E.coefOf(1), 3);
  EXPECT_EQ(E.Terms.size(), 1u);
  E.addTerm(2, 0); // no-op
  EXPECT_EQ(E.Terms.size(), 1u);
}

TEST(AffineExpr, StaticEquality) {
  AffineExpr A, B;
  A.addTerm(0, 2);
  A.Const = 3;
  B.addTerm(0, 2);
  B.Const = 3;
  EXPECT_TRUE(A.equalsStatically(B));
  B.Const = 4;
  EXPECT_FALSE(A.equalsStatically(B));
  B.Const = 3;
  B.Addend = VReg(5);
  EXPECT_FALSE(A.equalsStatically(B));
}

TEST(IRBuilder, BuildsVectorAdd) {
  VectorAddFixture F;
  ASSERT_EQ(F.P.Body.size(), 2u); // fconst + for
  auto *For = dyn_cast<ForStmt>(F.P.Body[1].get());
  ASSERT_NE(For, nullptr);
  EXPECT_EQ(For->staticTripCount(), 10);
  EXPECT_EQ(For->Body.size(), 3u); // load, add, store
  EXPECT_EQ(countOps(F.P.Body), 4u);
}

TEST(IRBuilder, RuntimeBoundTripCountUnknown) {
  Program P;
  IRBuilder B(P);
  VReg N = P.createVReg(RegClass::Int, "n", /*LiveIn=*/true);
  ForStmt *L = B.beginForReg(0, N);
  B.endFor();
  EXPECT_FALSE(L->staticTripCount().has_value());
}

TEST(IRBuilder, NestedControl) {
  Program P;
  IRBuilder B(P);
  unsigned A = P.createArray("a", RegClass::Float, 100);
  ForStmt *I = B.beginForImm(0, 9);
  ForStmt *J = B.beginForImm(0, 9);
  VReg X = B.fload(A, B.ix(I, 10) + B.ix(J));
  (void)X;
  B.endFor();
  B.endFor();
  DiagnosticEngine DE;
  EXPECT_TRUE(verifyProgram(P, DE)) << DE.str();
}

TEST(Program, CloneIsDeep) {
  VectorAddFixture F;
  StmtList Copy = cloneStmts(F.P.Body);
  EXPECT_EQ(countOps(Copy), countOps(F.P.Body));
  // Mutating the clone must not affect the original.
  auto *For = cast<ForStmt>(Copy[1].get());
  For->Body.clear();
  EXPECT_EQ(countOps(F.P.Body), 4u);
}

TEST(Printer, RendersOperations) {
  VectorAddFixture F;
  std::ostringstream OS;
  printProgram(F.P, OS);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("array a: float[10]"), std::string::npos);
  EXPECT_NE(Out.find("for i0 := 0 to 9 {"), std::string::npos);
  EXPECT_NE(Out.find("fload a[i0]"), std::string::npos);
  EXPECT_NE(Out.find("fstore a[i0]"), std::string::npos);
  EXPECT_NE(Out.find("fadd"), std::string::npos);
}

TEST(OpTraits, SignatureConsistency) {
  // Every opcode has a coherent signature: operand classes defined for all
  // indices, and stores/sends define nothing.
  for (unsigned I = 0; I != NumOpcodes; ++I) {
    Opcode Opc = static_cast<Opcode>(I);
    unsigned N = numValueOperands(Opc);
    for (unsigned J = 0; J != N; ++J)
      EXPECT_NE(operandClassOf(Opc, J), RegClass::None)
          << opcodeName(Opc) << " operand " << J;
  }
  EXPECT_EQ(resultClassOf(Opcode::FStore), RegClass::None);
  EXPECT_EQ(resultClassOf(Opcode::Send), RegClass::None);
  EXPECT_EQ(resultClassOf(Opcode::FCmpLT), RegClass::Int);
  EXPECT_EQ(resultClassOf(Opcode::FSel), RegClass::Float);
  EXPECT_TRUE(isFlopOpcode(Opcode::FAdd));
  EXPECT_FALSE(isFlopOpcode(Opcode::FLoad));
}

TEST(Verifier, AcceptsWellFormed) {
  VectorAddFixture F;
  DiagnosticEngine DE;
  EXPECT_TRUE(verifyProgram(F.P, DE)) << DE.str();
}

TEST(Verifier, RejectsUseBeforeDef) {
  Program P;
  IRBuilder B(P);
  VReg Ghost = P.createVReg(RegClass::Float); // never defined, not live-in
  B.fadd(Ghost, Ghost);
  DiagnosticEngine DE;
  EXPECT_FALSE(verifyProgram(P, DE));
  EXPECT_NE(DE.str().find("read before any definition"), std::string::npos);
}

TEST(Verifier, AcceptsLiveIn) {
  Program P;
  IRBuilder B(P);
  VReg In = P.createVReg(RegClass::Float, "x", /*LiveIn=*/true);
  B.fadd(In, In);
  DiagnosticEngine DE;
  EXPECT_TRUE(verifyProgram(P, DE)) << DE.str();
}

TEST(Verifier, RejectsClassMismatch) {
  Program P;
  IRBuilder B(P);
  VReg I = B.iconst(1);
  Operation Op;
  Op.Opc = Opcode::FAdd;
  Op.Operands = {I, I}; // ints into a float op
  Op.Def = P.createVReg(RegClass::Float);
  B.emit(std::move(Op));
  DiagnosticEngine DE;
  EXPECT_FALSE(verifyProgram(P, DE));
  EXPECT_NE(DE.str().find("wrong register class"), std::string::npos);
}

TEST(Verifier, RejectsOutOfScopeSubscript) {
  Program P;
  IRBuilder B(P);
  unsigned A = P.createArray("a", RegClass::Float, 8);
  ForStmt *L = B.beginForImm(0, 7);
  B.endFor();
  // Subscript over a loop that is no longer open.
  B.fload(A, B.ix(L));
  DiagnosticEngine DE;
  EXPECT_FALSE(verifyProgram(P, DE));
  EXPECT_NE(DE.str().find("does not enclose"), std::string::npos);
}

TEST(Verifier, RejectsConstantOutOfBounds) {
  Program P;
  IRBuilder B(P);
  unsigned A = P.createArray("a", RegClass::Float, 8);
  B.fload(A, B.cx(8));
  DiagnosticEngine DE;
  EXPECT_FALSE(verifyProgram(P, DE));
  EXPECT_NE(DE.str().find("out of bounds"), std::string::npos);
}

TEST(Verifier, BranchLocalDefsDoNotEscape) {
  Program P;
  IRBuilder B(P);
  VReg C = B.iconst(1);
  VReg X = P.createVReg(RegClass::Float);
  B.beginIf(C);
  B.assignUn(X, Opcode::FMov, B.fconst(1.0));
  B.endIf();
  B.fadd(X, X); // X defined only in the THEN branch
  DiagnosticEngine DE;
  EXPECT_FALSE(verifyProgram(P, DE));
}

TEST(Verifier, BothBranchDefsEscape) {
  Program P;
  IRBuilder B(P);
  VReg C = B.iconst(1);
  VReg X = P.createVReg(RegClass::Float);
  B.beginIf(C);
  B.assignUn(X, Opcode::FMov, B.fconst(1.0));
  B.beginElse();
  B.assignUn(X, Opcode::FMov, B.fconst(2.0));
  B.endIf();
  B.fadd(X, X);
  DiagnosticEngine DE;
  EXPECT_TRUE(verifyProgram(P, DE)) << DE.str();
}

TEST(Expansion, InvIsSevenFlops) {
  Program P;
  IRBuilder B(P);
  VReg X = P.createVReg(RegClass::Float, "x", /*LiveIn=*/true);
  B.finv(X);
  ExpansionStats Stats = expandLibraryOps(P);
  EXPECT_EQ(Stats.NumInv, 1u);
  unsigned Flops = 0;
  forEachStmt(P.Body, [&](const Stmt &S) {
    if (const auto *Op = dyn_cast<OpStmt>(&S))
      if (isFlopOpcode(Op->Op.Opc))
        ++Flops;
  });
  EXPECT_EQ(Flops, 7u) << "paper 4.2: INVERSE expands to 7 fp operations";
  DiagnosticEngine DE;
  EXPECT_TRUE(verifyProgram(P, DE)) << DE.str();
}

TEST(Expansion, SqrtIsNineteenFlops) {
  Program P;
  IRBuilder B(P);
  VReg X = P.createVReg(RegClass::Float, "x", /*LiveIn=*/true);
  B.fsqrt(X);
  ExpansionStats Stats = expandLibraryOps(P);
  EXPECT_EQ(Stats.NumSqrt, 1u);
  unsigned Flops = 0;
  forEachStmt(P.Body, [&](const Stmt &S) {
    if (const auto *Op = dyn_cast<OpStmt>(&S))
      if (isFlopOpcode(Op->Op.Opc))
        ++Flops;
  });
  EXPECT_EQ(Flops, 19u) << "paper 4.2: SQRT expands to 19 fp operations";
}

TEST(Expansion, ExpIsConditionalHeavy) {
  Program P;
  IRBuilder B(P);
  VReg X = P.createVReg(RegClass::Float, "x", /*LiveIn=*/true);
  B.fexp(X);
  ExpansionStats Stats = expandLibraryOps(P);
  EXPECT_EQ(Stats.NumExp, 1u);
  unsigned Conds = 0;
  forEachStmt(P.Body, [&](const Stmt &S) {
    if (isa<IfStmt>(&S))
      ++Conds;
  });
  EXPECT_GE(Conds, 8u) << "EXP must be branch-heavy like the paper's library";
  DiagnosticEngine DE;
  EXPECT_TRUE(verifyProgram(P, DE)) << DE.str();
}

TEST(Expansion, LeavesNoPseudos) {
  Program P;
  IRBuilder B(P);
  VReg X = P.createVReg(RegClass::Float, "x", /*LiveIn=*/true);
  ForStmt *L = B.beginForImm(0, 3);
  (void)L;
  B.fexp(B.fsqrt(B.finv(X)));
  B.endFor();
  expandLibraryOps(P);
  forEachStmt(P.Body, [&](const Stmt &S) {
    if (const auto *Op = dyn_cast<OpStmt>(&S)) {
      EXPECT_FALSE(isLibraryPseudo(Op->Op.Opc));
    }
  });
}
