//===- SimulatorTests.cpp - VLIW simulator unit tests -------------------------===//
//
// Part of warp-swp.
//
// Exercises the simulator directly on hand-built VLIW programs: timing
// semantics (read-at-issue, visible-at-latency, store-at-end-of-cycle),
// predication, AGU loop variables, control flow, and the dynamic audits
// that turn scheduler bugs into hard failures.
//
//===----------------------------------------------------------------------===//

#include "swp/Sim/Simulator.h"

#include "DecodedCode.h"

#include <gtest/gtest.h>

using namespace swp;

namespace {

/// A fixture with a tiny program context (one float array) and helpers to
/// hand-assemble instructions.
class SimFixture : public ::testing::Test {
protected:
  SimFixture() : MD(MachineDescription::warpCell()) {
    Arr = P.createArray("a", RegClass::Float, 16);
  }

  static PhysReg f(unsigned I) { return {RegClass::Float, I}; }
  static PhysReg r(unsigned I) { return {RegClass::Int, I}; }

  MachOp fconst(PhysReg Def, double V) {
    MachOp M;
    M.Opc = Opcode::FConst;
    M.Def = Def;
    M.FImm = V;
    return M;
  }
  MachOp iconst(PhysReg Def, int64_t V) {
    MachOp M;
    M.Opc = Opcode::IConst;
    M.Def = Def;
    M.IImm = V;
    return M;
  }
  MachOp fadd(PhysReg Def, PhysReg A, PhysReg B) {
    MachOp M;
    M.Opc = Opcode::FAdd;
    M.Def = Def;
    M.Uses = {A, B};
    return M;
  }
  MachOp fmul(PhysReg Def, PhysReg A, PhysReg B) {
    MachOp M = fadd(Def, A, B);
    M.Opc = Opcode::FMul;
    return M;
  }
  MachOp fstore(int64_t Index, PhysReg Val) {
    MachOp M;
    M.Opc = Opcode::FStore;
    M.ArrayId = Arr;
    M.Index.Const = Index;
    M.Uses = {Val};
    return M;
  }
  MachOp fload(PhysReg Def, int64_t Index) {
    MachOp M;
    M.Opc = Opcode::FLoad;
    M.Def = Def;
    M.ArrayId = Arr;
    M.Index.Const = Index;
    return M;
  }

  static void halt(std::vector<VLIWInst> &Code) {
    VLIWInst I;
    I.Ctrl.K = ControlOp::Kind::Halt;
    Code.push_back(I);
  }

  static VLIWProgram program(std::vector<VLIWInst> Code) {
    VLIWProgram Prog;
    Prog.Insts = std::move(Code);
    return Prog;
  }

  SimResult run(std::vector<VLIWInst> Code, ProgramInput In = {}) {
    return simulate(program(std::move(Code)), P, MD, In);
  }

  Program P;
  unsigned Arr = 0;
  MachineDescription MD;
};

TEST_F(SimFixture, ResultVisibleExactlyAtLatency) {
  // fconst r0 (latency 1) at cycle 0; fadd at cycle 1 reads it; the add's
  // own result (latency 7) is stored at cycle 8 but NOT at cycle 7.
  std::vector<VLIWInst> Code;
  Code.resize(10);
  Code[0].Ops.push_back(fconst(f(0), 2.0));
  Code[1].Ops.push_back(fadd(f(1), f(0), f(0)));
  Code[7].Ops.push_back(fstore(0, f(1))); // Too early: sees 0.
  Code[8].Ops.push_back(fstore(1, f(1))); // Exactly at 1+7: sees 4.
  halt(Code);
  SimResult R = run(Code);
  ASSERT_TRUE(R.State.Ok) << R.State.Error;
  EXPECT_FLOAT_EQ(R.State.FloatArrays[Arr][0], 0.0f);
  EXPECT_FLOAT_EQ(R.State.FloatArrays[Arr][1], 4.0f);
}

TEST_F(SimFixture, LoadSamplesBeforeSameCycleStore) {
  // A load and a store to the same element in one cycle: the load sees
  // the old value (the dependence model's "store commits at end of
  // cycle").
  std::vector<VLIWInst> Code;
  Code.resize(12);
  Code[0].Ops.push_back(fconst(f(0), 9.0));
  // Need two memory ops in one cycle: use the x2 cell.
  MD = MachineDescription::scaledWarpCell(2);
  Code[1].Ops.push_back(fload(f(1), 3));   // Old value 5.
  Code[1].Ops.push_back(fstore(3, f(0)));  // Writes 9 at end.
  Code[5].Ops.push_back(fstore(4, f(1)));  // Load result: 5.
  halt(Code);
  ProgramInput In;
  In.FloatArrays[Arr] = {0, 0, 0, 5.0f};
  SimResult R = run(Code, In);
  ASSERT_TRUE(R.State.Ok) << R.State.Error;
  EXPECT_FLOAT_EQ(R.State.FloatArrays[Arr][3], 9.0f);
  EXPECT_FLOAT_EQ(R.State.FloatArrays[Arr][4], 5.0f);
}

TEST_F(SimFixture, PredicationSelectsVersion) {
  // Two complementary-predicated stores share one instruction (the union
  // emission of section 3.1): only the true-guard one takes effect.
  std::vector<VLIWInst> Code;
  Code.resize(5);
  Code[0].Ops.push_back(iconst(r(0), 1)); // Condition: true.
  Code[1].Ops.push_back(fconst(f(0), 7.0));
  Code[2].Ops.push_back(fconst(f(1), 8.0));
  MachOp Then = fstore(0, f(0));
  Then.Preds = {{r(0), false}};
  MachOp Else = fstore(0, f(1));
  Else.Preds = {{r(0), true}};
  Code[4].Ops.push_back(Then);
  Code[4].Ops.push_back(Else);
  halt(Code);
  SimResult R = run(Code);
  ASSERT_TRUE(R.State.Ok) << R.State.Error;
  EXPECT_FLOAT_EQ(R.State.FloatArrays[Arr][0], 7.0f);
  // Two active stores to one address would have been an error; the
  // complementary predicates made it legal.
}

TEST_F(SimFixture, InertOpsConsumeNoResources) {
  // Two same-resource ops with complementary predicates in one cycle:
  // legal, because only one is active.
  std::vector<VLIWInst> Code;
  Code.resize(4);
  Code[0].Ops.push_back(iconst(r(0), 0));
  Code[1].Ops.push_back(fconst(f(0), 1.0));
  MachOp A = fadd(f(1), f(0), f(0));
  A.Preds = {{r(0), false}};
  MachOp B = fadd(f(2), f(0), f(0));
  B.Preds = {{r(0), true}};
  Code[3].Ops.push_back(A);
  Code[3].Ops.push_back(B);
  // Give the B-add time to land, then store its result.
  Code.resize(11);
  Code[10].Ops.push_back(fstore(0, f(2)));
  halt(Code);
  SimResult R = run(Code);
  ASSERT_TRUE(R.State.Ok) << R.State.Error;
  EXPECT_FLOAT_EQ(R.State.FloatArrays[Arr][0], 2.0f);
}

TEST_F(SimFixture, ResourceOverSubscriptionIsCaught) {
  // Two unpredicated adds in one cycle on the single adder: hard error.
  std::vector<VLIWInst> Code;
  Code.resize(2);
  Code[0].Ops.push_back(fconst(f(0), 1.0));
  Code[1].Ops.push_back(fadd(f(1), f(0), f(0)));
  Code[1].Ops.push_back(fadd(f(2), f(0), f(0)));
  halt(Code);
  SimResult R = run(Code);
  EXPECT_FALSE(R.State.Ok);
  EXPECT_NE(R.State.Error.find("over-subscription"), std::string::npos);
}

TEST_F(SimFixture, WriteWriteCollisionIsCaught) {
  // Two results landing on one register in the same cycle.
  std::vector<VLIWInst> Code;
  Code.resize(2);
  Code[0].Ops.push_back(fconst(f(0), 1.0));
  Code[1].Ops.push_back(fconst(f(0), 2.0));
  // fconst latency 1: first lands at cycle 1... second at cycle 2: no
  // collision. Force one: two different-unit ops with latencies meeting.
  Code.resize(10);
  MachOp Mul;
  Mul.Opc = Opcode::FMul;
  Mul.Def = f(5);
  Mul.Uses = {f(0), f(0)};
  Code[2].Ops.push_back(Mul); // Lands at 9.
  Code[8].Ops.push_back(fconst(f(5), 3.0)); // Also lands at 9.
  halt(Code);
  SimResult R = run(Code);
  EXPECT_FALSE(R.State.Ok);
  EXPECT_NE(R.State.Error.find("collision"), std::string::npos);
}

TEST_F(SimFixture, WriteWriteCollisionStopsTheCell) {
  // The collision at cycle 9 ends the run there: the out-of-bounds store
  // at cycle 11 never issues, so its error cannot replace the first one.
  std::vector<VLIWInst> Code;
  Code.resize(12);
  Code[0].Ops.push_back(fconst(f(0), 1.0));
  MachOp Mul;
  Mul.Opc = Opcode::FMul;
  Mul.Def = f(5);
  Mul.Uses = {f(0), f(0)};
  Code[2].Ops.push_back(Mul);               // Lands at 9.
  Code[8].Ops.push_back(fconst(f(5), 3.0)); // Also lands at 9.
  Code[11].Ops.push_back(fstore(99, f(0)));
  halt(Code);
  SimResult R = run(Code);
  EXPECT_FALSE(R.State.Ok);
  EXPECT_EQ(R.State.Error,
            "cycle 9: write-write collision on register index 5");
  EXPECT_EQ(R.Cycles, 9u);
}

TEST_F(SimFixture, CollisionInsideAnIdleRunMatchesTheDecodedRun) {
  // Both results land at cycle 9, in the middle of the idle words 9-19:
  // stepping over them must still land the writebacks, catch the
  // collision in the same cycle and stop there.
  std::vector<VLIWInst> Code(20);
  Code[0].Ops.push_back(fconst(f(0), 1.0));
  Code[2].Ops.push_back(fmul(f(5), f(0), f(0))); // Lands at 9.
  Code[8].Ops.push_back(fconst(f(5), 3.0));      // Also lands at 9.
  halt(Code);
  VLIWProgram Idle = program(Code);
  ASSERT_TRUE(Idle.Insts.isIdle(9));
  SimResult R = simulate(Idle, P, MD, {});
  EXPECT_FALSE(R.State.Ok);
  EXPECT_EQ(R.State.Error,
            "cycle 9: write-write collision on register index 5");
  EXPECT_EQ(R.Cycles, 9u);
  SimResult D = run(decodeEveryWord(Code));
  EXPECT_EQ(D.State.Error, R.State.Error);
  EXPECT_EQ(D.Cycles, R.Cycles);
  EXPECT_EQ(D.Util.toJson(), R.Util.toJson());
}

TEST_F(SimFixture, CycleLimitInsideAnIdleRunMatchesTheDecodedRun) {
  // The limit falls inside the idle words 1-29: the run stops at exactly
  // MaxCycles, before the store issues, as it does when every word is
  // decoded.
  std::vector<VLIWInst> Code(31);
  Code[0].Ops.push_back(fconst(f(0), 1.0));
  Code[30].Ops.push_back(fstore(0, f(0)));
  halt(Code);
  SimOptions Opts;
  Opts.MaxCycles = 17;
  SimResult R = simulate(program(Code), P, MD, {}, Opts);
  EXPECT_FALSE(R.State.Ok);
  EXPECT_EQ(R.State.Error, "cycle limit exceeded (runaway loop?)");
  EXPECT_EQ(R.Cycles, 17u);
  EXPECT_EQ(R.Util.ExecCycles, 17u);
  EXPECT_FLOAT_EQ(R.State.FloatArrays[Arr][0], 0.0f);
  SimResult D = simulate(program(decodeEveryWord(Code)), P, MD, {}, Opts);
  EXPECT_EQ(D.State.Error, R.State.Error);
  EXPECT_EQ(D.Cycles, R.Cycles);
  EXPECT_EQ(D.Util.toJson(), R.Util.toJson());
  // With room to finish, both halt on the same cycle.
  Opts.MaxCycles = 32;
  R = simulate(program(Code), P, MD, {}, Opts);
  ASSERT_TRUE(R.State.Ok) << R.State.Error;
  EXPECT_EQ(R.Cycles, 32u);
  EXPECT_FLOAT_EQ(R.State.FloatArrays[Arr][0], 1.0f);
  D = simulate(program(decodeEveryWord(Code)), P, MD, {}, Opts);
  EXPECT_EQ(D.Cycles, R.Cycles);
  EXPECT_EQ(D.Util.toJson(), R.Util.toJson());
}

TEST_F(SimFixture, SameCycleStoresToOneAddressAreCaught) {
  MD = MachineDescription::scaledWarpCell(2); // Two memory ports.
  std::vector<VLIWInst> Code;
  Code.resize(3);
  Code[0].Ops.push_back(fconst(f(0), 1.0));
  Code[1].Ops.push_back(fstore(2, f(0)));
  Code[1].Ops.push_back(fstore(2, f(0)));
  halt(Code);
  SimResult R = run(Code);
  EXPECT_FALSE(R.State.Ok);
  EXPECT_NE(R.State.Error.find("two stores"), std::string::npos);
}

TEST_F(SimFixture, AguLoopVariableDrivesSubscripts) {
  // A two-iteration loop writing a[LV]: SetLoopVar, then a store whose
  // subscript is the loop variable, advance + DecJumpPos.
  std::vector<VLIWInst> Code;
  Code.resize(3);
  Code[0].Ops.push_back(fconst(f(0), 6.5));
  Code[1].Ops.push_back(iconst(r(0), 3)); // Counter: 3 iterations.
  AguOp Init;
  Init.LoopId = 0;
  Init.Relative = false;
  Init.Imm = 4;
  Code[1].Agu.push_back(Init);
  // Loop body at instruction 2.
  MachOp St;
  St.Opc = Opcode::FStore;
  St.ArrayId = Arr;
  St.Index.addTerm(0, 1); // a[LV0]
  St.Uses = {f(0)};
  Code[2].Ops.push_back(St);
  Code[2].Agu.push_back(AguOp{0, /*Relative=*/true, {}, 1});
  Code[2].Ctrl.K = ControlOp::Kind::DecJumpPos;
  Code[2].Ctrl.Counter = r(0);
  Code[2].Ctrl.Target = 2;
  halt(Code);
  // Program needs a loop id: create one so LoopVars is sized.
  P.createLoopId();
  SimResult R = run(Code);
  ASSERT_TRUE(R.State.Ok) << R.State.Error;
  EXPECT_FLOAT_EQ(R.State.FloatArrays[Arr][4], 6.5f);
  EXPECT_FLOAT_EQ(R.State.FloatArrays[Arr][5], 6.5f);
  EXPECT_FLOAT_EQ(R.State.FloatArrays[Arr][6], 6.5f);
  EXPECT_FLOAT_EQ(R.State.FloatArrays[Arr][7], 0.0f);
}

TEST_F(SimFixture, JumpIfZeroAndJump) {
  std::vector<VLIWInst> Code;
  Code.resize(6);
  Code[0].Ops.push_back(iconst(r(0), 0));
  Code[1].Ops.push_back(fconst(f(0), 1.0));
  Code[1].Ctrl.K = ControlOp::Kind::JumpIfZero;
  Code[1].Ctrl.Counter = r(0);
  Code[1].Ctrl.Target = 4;
  Code[2].Ops.push_back(fstore(0, f(0))); // Skipped.
  Code[4].Ops.push_back(fstore(1, f(0))); // Reached.
  halt(Code);
  SimResult R = run(Code);
  ASSERT_TRUE(R.State.Ok) << R.State.Error;
  EXPECT_FLOAT_EQ(R.State.FloatArrays[Arr][0], 0.0f);
  EXPECT_FLOAT_EQ(R.State.FloatArrays[Arr][1], 1.0f);
}

TEST_F(SimFixture, FallingOffTheEndIsCaught) {
  std::vector<VLIWInst> Code;
  Code.resize(2); // No halt.
  SimResult R = run(Code);
  EXPECT_FALSE(R.State.Ok);
  EXPECT_NE(R.State.Error.find("fell off"), std::string::npos);
}

TEST_F(SimFixture, RunawayLoopHitsCycleLimit) {
  std::vector<VLIWInst> Code;
  Code.resize(1);
  Code[0].Ctrl.K = ControlOp::Kind::Jump;
  Code[0].Ctrl.Target = 0;
  SimOptions Opts;
  Opts.MaxCycles = 1000;
  SimResult R = simulate(program(Code), P, MD, {}, Opts);
  EXPECT_FALSE(R.State.Ok);
  EXPECT_NE(R.State.Error.find("cycle limit"), std::string::npos);
}

TEST_F(SimFixture, PendingWritesDrainAfterHalt) {
  // A multiply issued right before halt still lands in the final state.
  std::vector<VLIWInst> Code;
  Code.resize(2);
  Code[0].Ops.push_back(fconst(f(0), 3.0));
  MachOp Mul;
  Mul.Opc = Opcode::FMul;
  Mul.Def = f(1);
  Mul.Uses = {f(0), f(0)};
  Code[1].Ops.push_back(Mul);
  halt(Code); // Halt at cycle 2; the product lands at cycle 8.
  SimResult R = run(Code);
  ASSERT_TRUE(R.State.Ok) << R.State.Error;
  EXPECT_EQ(R.Cycles, 3u);
  EXPECT_EQ(R.State.Flops, 1u);
}

/// A machine whose multiply lands 40 cycles after issue and reserves its
/// unit 20 cycles after issue, further out than anything on the Warp
/// cell: the simulator's rings must be sized from the machine. The add
/// takes the same unit in its issue cycle.
MachineDescription slowMultiplyCell() {
  MachineDescription MD;
  unsigned Alu = MD.addResource("alu", 1);
  unsigned Slow = MD.addResource("slow", 1);
  unsigned Mem = MD.addResource("mem", 1);
  MD.setOpcodeInfo(Opcode::FConst,
                   OpcodeInfo{1, {{Alu, 0, 1}}, RegClass::Float, 0, false});
  MD.setOpcodeInfo(Opcode::FMul,
                   OpcodeInfo{40, {{Slow, 20, 1}}, RegClass::Float, 2, true});
  MD.setOpcodeInfo(Opcode::FAdd,
                   OpcodeInfo{1, {{Slow, 0, 1}}, RegClass::Float, 2, true});
  MD.setOpcodeInfo(Opcode::FStore,
                   OpcodeInfo{1, {{Mem, 0, 1}}, RegClass::None, 1, false});
  return MD;
}

TEST_F(SimFixture, LongLatencyLandsExactlyAtLatency) {
  MD = slowMultiplyCell();
  std::vector<VLIWInst> Code;
  Code.resize(42);
  Code[0].Ops.push_back(fconst(f(0), 3.0));
  // One multiply per word from cycle 1 to 20: their reservations at +20
  // are all outstanding at once and must not meet in one row.
  for (unsigned C = 1; C <= 20; ++C)
    Code[C].Ops.push_back(fmul(f(1), f(0), f(0))); // Lands at C + 40.
  Code[40].Ops.push_back(fstore(0, f(1))); // Issue + 39: sees 0.
  Code[41].Ops.push_back(fstore(1, f(1))); // Issue + 40: sees 9.
  halt(Code);
  SimResult R = run(Code);
  ASSERT_TRUE(R.State.Ok) << R.State.Error;
  EXPECT_FLOAT_EQ(R.State.FloatArrays[Arr][0], 0.0f);
  EXPECT_FLOAT_EQ(R.State.FloatArrays[Arr][1], 9.0f);
  EXPECT_EQ(R.State.Flops, 20u);
  EXPECT_EQ(R.Util.Resources[1].BusyUnitCycles, 20u);
}

TEST_F(SimFixture, FarReservationOverSubscriptionIsCaught) {
  // A multiply at cycle 1 holds the unit at cycle 21. A second multiply
  // in the same word collides there, and so does an add issued at cycle
  // 21 itself; each is reported in the cycle the second op issues.
  MD = slowMultiplyCell();
  for (unsigned Second : {1u, 21u}) {
    std::vector<VLIWInst> Code;
    Code.resize(Second + 1);
    Code[0].Ops.push_back(fconst(f(0), 3.0));
    Code[1].Ops.push_back(fmul(f(1), f(0), f(0)));
    Code[Second].Ops.push_back(Second == 1 ? fmul(f(2), f(0), f(0))
                                                 : fadd(f(2), f(0), f(0)));
    halt(Code);
    SimResult R = run(Code);
    EXPECT_FALSE(R.State.Ok);
    EXPECT_EQ(R.State.Error, "cycle " + std::to_string(Second) +
                                 ": resource over-subscription on 'slow'");
    EXPECT_EQ(R.Cycles, Second);
  }
}

TEST_F(SimFixture, ReservationDueOnAnIdleWordIsReleased) {
  // The multiply at cycle 1 holds the slow unit at cycle 21, an idle
  // word. The reservation ring has 32 rows, so cycle 53 reuses that row:
  // stepping over the idle word must still free it for the add there, as
  // decoding every word does.
  MD = slowMultiplyCell();
  std::vector<VLIWInst> Code(54);
  Code[0].Ops.push_back(fconst(f(0), 3.0));
  Code[1].Ops.push_back(fmul(f(1), f(0), f(0)));
  Code[53].Ops.push_back(fadd(f(2), f(0), f(0)));
  halt(Code);
  VLIWProgram Prog = program(Code);
  ASSERT_TRUE(Prog.Insts.isIdle(21));
  SimResult R = simulate(Prog, P, MD, {});
  ASSERT_TRUE(R.State.Ok) << R.State.Error;
  EXPECT_EQ(R.Util.Resources[1].BusyUnitCycles, 2u);
  SimResult D = run(decodeEveryWord(Code));
  EXPECT_EQ(D.State.Error, R.State.Error);
  EXPECT_EQ(D.Util.toJson(), R.Util.toJson());
}

} // namespace
