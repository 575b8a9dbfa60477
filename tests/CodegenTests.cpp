//===- CodegenTests.cpp - register allocator and emission invariants ----------===//
//
// Part of warp-swp.
//
//===----------------------------------------------------------------------===//

#include "swp/Codegen/Compiler.h"
#include "swp/Codegen/RegAlloc.h"

#include "swp/IR/IRBuilder.h"
#include "swp/Interp/Interpreter.h"
#include "swp/Sim/Simulator.h"
#include "swp/Workloads/Workloads.h"

#include "TripCountPrograms.h"

#include <gtest/gtest.h>

#include <set>

using namespace swp;

//===----------------------------------------------------------------------===//
// RegAlloc unit tests.
//===----------------------------------------------------------------------===//

TEST(RegAlloc, PermanentAndScopedAssignments) {
  MachineDescription MD = MachineDescription::warpCell();
  RegAlloc RA(MD);
  ASSERT_TRUE(RA.assignPermanent(0, RegClass::Float));
  ASSERT_TRUE(RA.assignPermanent(1, RegClass::Int));
  EXPECT_TRUE(RA.isAssigned(0));
  PhysReg R0 = RA.regFor(0);
  EXPECT_EQ(R0.RC, RegClass::Float);

  RA.beginScope();
  ASSERT_TRUE(RA.assignLocal(2, RegClass::Float, 3));
  EXPECT_EQ(RA.copiesOf(2), 3u);
  // Rotation: copy index wraps modulo the copy count.
  EXPECT_EQ(RA.regFor(2, 0).Index, RA.regFor(2, 3).Index);
  EXPECT_NE(RA.regFor(2, 0).Index, RA.regFor(2, 1).Index);
  PhysReg Local = RA.regFor(2, 0);
  RA.endScope();
  EXPECT_FALSE(RA.isAssigned(2));

  // Released registers are reusable.
  RA.beginScope();
  ASSERT_TRUE(RA.assignLocal(3, RegClass::Float, 1));
  EXPECT_EQ(RA.regFor(3).Index, Local.Index);
  RA.endScope();
}

TEST(RegAlloc, ExhaustionFailsCleanly) {
  MachineDescription MD;
  MD.setRegisterFileSizes(2, 2);
  RegAlloc RA(MD);
  RA.beginScope();
  EXPECT_FALSE(RA.assignLocal(0, RegClass::Float, 3));
  EXPECT_FALSE(RA.isAssigned(0)) << "failed allocation must not leak";
  EXPECT_TRUE(RA.assignLocal(1, RegClass::Float, 2));
  EXPECT_FALSE(RA.assignLocal(2, RegClass::Float, 1));
  RA.endScope();
  EXPECT_TRUE(RA.assignPermanent(3, RegClass::Float));
}

TEST(RegAlloc, AliasingSharesOneRegister) {
  MachineDescription MD = MachineDescription::warpCell();
  RegAlloc RA(MD);
  RA.beginScope();
  std::optional<PhysReg> Pool = RA.allocateScratch(RegClass::Float);
  ASSERT_TRUE(Pool.has_value());
  RA.aliasLocal(7, *Pool);
  RA.aliasLocal(8, *Pool);
  EXPECT_EQ(RA.regFor(7).Index, RA.regFor(8).Index);
  RA.endScope();
}

TEST(RegAlloc, HighWaterTracksPeak) {
  MachineDescription MD = MachineDescription::warpCell();
  RegAlloc RA(MD);
  RA.beginScope();
  ASSERT_TRUE(RA.assignLocal(0, RegClass::Int, 5));
  RA.endScope();
  EXPECT_GE(RA.highWater(RegClass::Int), 5u);
}

//===----------------------------------------------------------------------===//
// Emission invariants across the population.
//===----------------------------------------------------------------------===//

namespace {

/// Structural invariants on emitted code and loop reports.
void checkInvariants(const WorkloadSpec &Spec, const MachineDescription &MD,
                     const CompilerOptions &Opts) {
  BuiltWorkload W = Spec.Make();
  CompileResult CR = compileProgram(*W.Prog, MD, Opts);
  ASSERT_TRUE(CR.Ok) << Spec.Name << ": " << CR.Error;

  // Exactly one halt, at the end; every branch target in range.
  ASSERT_FALSE(CR.Code.Insts.empty());
  unsigned Halts = 0;
  for (size_t I = 0; I != CR.Code.Insts.size(); ++I) {
    const VLIWInst &Inst = CR.Code.Insts[I];
    if (Inst.Ctrl.K == ControlOp::Kind::Halt)
      ++Halts;
    if (Inst.Ctrl.K == ControlOp::Kind::Jump ||
        Inst.Ctrl.K == ControlOp::Kind::JumpIfZero ||
        Inst.Ctrl.K == ControlOp::Kind::DecJumpPos) {
      EXPECT_LT(Inst.Ctrl.Target, CR.Code.Insts.size()) << Spec.Name;
    }
    for (const MachOp &Op : Inst.Ops) {
      if (Op.Def.isValid()) {
        EXPECT_LT(Op.Def.Index, MD.registerFileSize(Op.Def.RC))
            << Spec.Name;
      }
      for (const PhysReg &U : Op.Uses)
        EXPECT_LT(U.Index, MD.registerFileSize(U.RC)) << Spec.Name;
    }
  }
  EXPECT_EQ(Halts, 1u) << Spec.Name;
  EXPECT_EQ(CR.Code.Insts.back().Ctrl.K, ControlOp::Kind::Halt)
      << Spec.Name;

  // Report invariants.
  for (const LoopReport &L : CR.Report.Loops) {
    EXPECT_EQ(L.MII, std::max(L.ResMII, L.RecMII)) << Spec.Name;
    if (L.pipelined()) {
      EXPECT_GE(L.II, L.MII) << Spec.Name;
      EXPECT_LT(L.II, L.UnpipelinedLen) << Spec.Name;
      EXPECT_GE(L.Stages, 1u) << Spec.Name;
      EXPECT_GE(L.Unroll, 1u) << Spec.Name;
      EXPECT_EQ(L.KernelInsts, L.II * L.Unroll) << Spec.Name;
    }
  }

  // Register usage reported within file bounds.
  EXPECT_LE(CR.Code.FloatRegsUsed, MD.registerFileSize(RegClass::Float));
  EXPECT_LE(CR.Code.IntRegsUsed, MD.registerFileSize(RegClass::Int));
}

} // namespace

TEST(CodegenInvariants, HoldAcrossPopulationAndKernels) {
  MachineDescription MD = MachineDescription::warpCell();
  for (const WorkloadSpec &S : syntheticPopulation(24, 7))
    checkInvariants(S, MD, CompilerOptions{});
  for (const WorkloadSpec &S : livermoreKernels())
    checkInvariants(S, MD, CompilerOptions{});
}

TEST(CodegenInvariants, HoldOnScaledMachines) {
  for (unsigned F : {2u, 4u}) {
    MachineDescription MD = MachineDescription::scaledWarpCell(F);
    for (const WorkloadSpec &S : syntheticPopulation(8, 11))
      checkInvariants(S, MD, CompilerOptions{});
  }
}

TEST(Codegen, RegisterOverflowFallsBackToUnpipelined) {
  // A machine with tiny register files: the pipeliner must refuse
  // (section 2.3's fallback) yet still produce correct code.
  MachineDescription MD = MachineDescription::warpCell();
  MD.setRegisterFileSizes(8, 8);

  Program P;
  IRBuilder B(P);
  unsigned A = P.createArray("a", RegClass::Float, 64);
  unsigned Bb = P.createArray("b", RegClass::Float, 64);
  VReg K = P.createVReg(RegClass::Float, "k", true);
  ForStmt *L = B.beginForImm(0, 63);
  // A wide body: many concurrent lifetimes.
  VReg V1 = B.fmul(B.fload(A, B.ix(L)), K);
  VReg V2 = B.fadd(V1, K);
  VReg V3 = B.fmul(V2, V1);
  VReg V4 = B.fadd(V3, V2);
  B.fstore(Bb, B.ix(L), B.fadd(B.fmul(V4, V3), V1));
  B.endFor();

  CompileResult CR = compileProgram(P, MD, CompilerOptions{});
  ASSERT_TRUE(CR.Ok) << CR.Error;

  ProgramInput In;
  for (int I = 0; I != 64; ++I)
    In.FloatArrays[A].push_back(0.01f * I);
  In.FloatScalars[K.Id] = 1.5f;
  SimResult Sim = simulate(CR.Code, P, MD, In);
  ASSERT_TRUE(Sim.State.Ok) << Sim.State.Error;
  ProgramState Golden = interpret(P, In);
  EXPECT_EQ(compareStates(P, Golden, Sim.State), "");
}

TEST(Codegen, VLIWPrinterRendersEverything) {
  Program P;
  IRBuilder B(P);
  unsigned A = P.createArray("a", RegClass::Float, 32);
  VReg Zero = B.fconst(0.0);
  ForStmt *L = B.beginForImm(0, 31);
  VReg V = B.fload(A, B.ix(L));
  VReg C = B.binop(Opcode::FCmpLT, V, Zero);
  VReg R = P.createVReg(RegClass::Float);
  B.assignMov(R, V);
  B.beginIf(C);
  B.assignUn(R, Opcode::FNeg, V);
  B.endIf();
  B.fstore(A, B.ix(L), R);
  B.endFor();
  MachineDescription MD = MachineDescription::warpCell();
  CompileResult CR = compileProgram(P, MD, CompilerOptions{});
  ASSERT_TRUE(CR.Ok) << CR.Error;
  std::string Text = vliwProgramToString(CR.Code, MD);
  EXPECT_NE(Text.find("halt"), std::string::npos);
  EXPECT_NE(Text.find("djp"), std::string::npos) << "loop backedge";
  EXPECT_NE(Text.find("fneg"), std::string::npos);
  EXPECT_NE(Text.find("?"), std::string::npos) << "predicated op";
  EXPECT_NE(Text.find("a0["), std::string::npos) << "memory reference";
}

TEST(Codegen, NoAliasDirectiveEnablesPipelining) {
  // Gather-update through a permutation: conservative analysis
  // serializes; the directive unlocks pipelining; both are correct.
  auto Build = [](Program &P, bool NoAlias) {
    IRBuilder B(P);
    unsigned Idx = P.createArray("idx", RegClass::Int, 64);
    unsigned D = P.createArray("d", RegClass::Float, 64);
    P.arrayInfo(D).NoAlias = NoAlias;
    VReg K = B.fconst(1.5);
    ForStmt *L = B.beginForImm(0, 63);
    VReg J = B.iload(Idx, B.ix(L));
    AffineExpr E;
    E.Addend = J;
    B.fstore(D, E, B.fmul(B.fload(D, E), K));
    B.endFor();
    return std::pair{Idx, D};
  };
  MachineDescription MD = MachineDescription::warpCell();

  uint64_t Cycles[2];
  for (int Mode = 0; Mode != 2; ++Mode) {
    Program P;
    auto [Idx, D] = Build(P, Mode == 1);
    ProgramInput In;
    for (int I = 0; I != 64; ++I) {
      In.IntArrays[Idx].push_back((I * 13) % 64); // A permutation.
      In.FloatArrays[D].push_back(1.0f + I);
    }
    CompileResult CR = compileProgram(P, MD, CompilerOptions{});
    ASSERT_TRUE(CR.Ok) << CR.Error;
    SimResult Sim = simulate(CR.Code, P, MD, In);
    ASSERT_TRUE(Sim.State.Ok) << Sim.State.Error;
    ProgramState Golden = interpret(P, In);
    ASSERT_EQ(compareStates(P, Golden, Sim.State), "");
    Cycles[Mode] = Sim.Cycles;
    if (Mode == 1) {
      EXPECT_TRUE(CR.Report.Loops[0].pipelined())
          << "noalias should unlock pipelining";
    }
  }
  EXPECT_LT(Cycles[1], Cycles[0]) << "directive must pay off";
}

// The trip-count dispatch writes what it emitted into the loop report.
// scale-add modulo-schedules at II 2 with 9 stages and unroll 1, so it
// needs 9 trips to fill the pipeline: 0 trips emit no loop code, 1 and 8
// run the plain list schedule, and 9 run the prolog, one kernel pass and
// the epilog. Each simulates to the interpreter's state.
TEST(Codegen, TripCountDispatchReportsItsPath) {
  MachineDescription MD = MachineDescription::warpCell();
  for (int64_t N : {0, 1, 8, 9}) {
    BuiltWorkload W = scaleAddSpec(N).Make();
    CompileResult CR = compileProgram(*W.Prog, MD, CompilerOptions{});
    ASSERT_TRUE(CR.Ok) << "n = " << N << ": " << CR.Error;
    ASSERT_EQ(CR.Report.Loops.size(), 1u);
    const LoopReport &L = CR.Report.Loops[0];
    EXPECT_EQ(L.II, 2u) << "n = " << N;
    EXPECT_EQ(L.Stages, 9u) << "n = " << N;
    EXPECT_EQ(L.Unroll, 1u) << "n = " << N;
    if (N == 0) {
      EXPECT_EQ(L.Decision, PipelineDecision::Fallback);
      EXPECT_EQ(L.Cause, FallbackCause::ZeroTrip);
      EXPECT_EQ(L.Rung, ScheduleRung::None);
      EXPECT_EQ(L.TotalLoopInsts, 0u);
    } else if (N < 9) {
      EXPECT_EQ(L.Decision, PipelineDecision::Fallback) << "n = " << N;
      EXPECT_EQ(L.Cause, FallbackCause::ShortTripCount) << "n = " << N;
      EXPECT_EQ(L.Rung, ScheduleRung::List) << "n = " << N;
      EXPECT_EQ(L.KernelInsts, 0u) << "n = " << N;
    } else {
      EXPECT_EQ(L.Decision, PipelineDecision::Pipelined);
      EXPECT_EQ(L.Cause, FallbackCause::None);
      EXPECT_EQ(L.Rung, ScheduleRung::Modulo);
      EXPECT_EQ(L.KernelInsts, 2u);
      EXPECT_EQ(L.Region.KernelBase, L.Region.PrologBase + 16);
      EXPECT_EQ(L.Region.EpilogBase, L.Region.KernelBase + 2);
      EXPECT_EQ(L.Region.End, L.Region.EpilogBase + 16);
      EXPECT_EQ(CR.Code.Insts[L.Region.EpilogBase - 1].Ctrl.K,
                ControlOp::Kind::DecJumpPos);
      EXPECT_EQ(CR.Code.Insts[L.Region.EpilogBase - 1].Ctrl.Target,
                L.Region.KernelBase);
    }
    if (N != 0) {
      EXPECT_GT(L.TotalLoopInsts, 0u) << "n = " << N;
    }

    SimResult Sim = simulate(CR.Code, *W.Prog, MD, W.Input);
    ASSERT_TRUE(Sim.State.Ok) << "n = " << N << ": " << Sim.State.Error;
    ProgramState Golden = interpret(*W.Prog, W.Input);
    EXPECT_EQ(compareStates(*W.Prog, Golden, Sim.State), "") << "n = " << N;
  }
}
