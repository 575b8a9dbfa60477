//===- ArraySimTests.cpp - Warp-array co-simulation tests ---------------------===//
//
// Part of warp-swp.
//
//===----------------------------------------------------------------------===//

#include "swp/Sim/ArraySimulator.h"

#include "swp/Codegen/Compiler.h"
#include "swp/IR/IRBuilder.h"

#include "DecodedCode.h"

#include <gtest/gtest.h>

using namespace swp;

namespace {

/// A compiled streaming cell: FOR i := 0 TO N-1: send(recv()*Scale + Bias).
struct StreamCell {
  std::unique_ptr<Program> Prog;
  VLIWProgram Code;
  bool Ok = false;

  StreamCell(int64_t N, float Scale, float Bias,
             const MachineDescription &MD,
             bool Pipelined = true) {
    Prog = std::make_unique<Program>();
    IRBuilder B(*Prog);
    VReg S = B.fconst(Scale);
    VReg Bi = B.fconst(Bias);
    ForStmt *L = B.beginForImm(0, N - 1);
    (void)L;
    B.send(0, B.fadd(B.fmul(B.recv(0), S), Bi));
    B.endFor();
    CompilerOptions Opts;
    Opts.EnablePipelining = Pipelined;
    CompileResult CR = compileProgram(*Prog, MD, Opts);
    EXPECT_TRUE(CR.Ok) << CR.Error;
    Ok = CR.Ok;
    Code = std::move(CR.Code);
  }
};

size_t idleWords(const VLIWProgram &Code) {
  size_t N = 0;
  for (size_t I = 0; I != Code.Insts.size(); ++I)
    N += Code.Insts.isIdle(I);
  return N;
}

} // namespace

TEST(ArraySim, TwoCellPipelineComposes) {
  MachineDescription MD = MachineDescription::warpCell();
  StreamCell C0(16, 2.0f, 0.0f, MD); // x -> 2x
  StreamCell C1(16, 1.0f, 1.0f, MD); // y -> y+1
  ASSERT_TRUE(C0.Ok && C1.Ok);

  std::vector<float> Input;
  for (int I = 0; I != 16; ++I)
    Input.push_back(0.5f * I);

  std::vector<ArrayCell> Cells = {{&C0.Code, C0.Prog.get(), {}},
                                  {&C1.Code, C1.Prog.get(), {}}};
  ArrayRunResult R = simulateLinearArray(Cells, MD, Input);
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(R.ArrayOutput.size(), 16u);
  for (int I = 0; I != 16; ++I)
    EXPECT_FLOAT_EQ(R.ArrayOutput[I], 2.0f * (0.5f * I) + 1.0f);
}

TEST(ArraySim, TenCellHomogeneousChainScalesThroughput) {
  // The paper's homogeneous model: ten identical cells; the pipeline's
  // aggregate rate approaches ten times one cell's.
  MachineDescription MD = MachineDescription::warpCell();
  constexpr int N = 256;
  std::vector<std::unique_ptr<StreamCell>> Cells;
  std::vector<ArrayCell> Specs;
  for (int I = 0; I != 10; ++I) {
    Cells.push_back(std::make_unique<StreamCell>(N, 1.0f, 1.0f, MD));
    ASSERT_TRUE(Cells.back()->Ok);
    Specs.push_back({&Cells.back()->Code, Cells.back()->Prog.get(), {}});
  }
  std::vector<float> Input(N, 0.0f);
  ArrayRunResult R = simulateLinearArray(Specs, MD, Input);
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(R.ArrayOutput.size(), static_cast<size_t>(N));
  for (float V : R.ArrayOutput)
    EXPECT_FLOAT_EQ(V, 10.0f);

  // Aggregate rate close to 10x the single-cell rate.
  double CellRate = R.Cells[0].MFLOPS;
  EXPECT_GT(R.ArrayMFLOPS, 6.0 * CellRate);
  // Steady state without starvation: stalls happen only during pipeline
  // fill (downstream cells waiting for their first words).
  EXPECT_LT(R.StallCycles[9], R.Cycles / 2);
}

TEST(ArraySim, BoundedChannelBackpressure) {
  // Fast producer, slow consumer, a 4-word channel: the producer must
  // stall (backpressure) and the data must still arrive intact.
  MachineDescription MD = MachineDescription::warpCell();
  constexpr int N = 64;
  StreamCell Fast(N, 1.0f, 0.0f, MD);
  // Slow consumer: extra arithmetic between recv and send, unpipelined.
  std::unique_ptr<Program> SlowProg = std::make_unique<Program>();
  {
    IRBuilder B(*SlowProg);
    VReg K = B.fconst(1.0);
    ForStmt *L = B.beginForImm(0, N - 1);
    (void)L;
    VReg V = B.recv(0);
    for (int I = 0; I != 4; ++I)
      V = B.fadd(V, K); // A serial chain: ~28 cycles per word.
    B.send(0, V);
    B.endFor();
  }
  CompilerOptions Off;
  Off.EnablePipelining = false;
  CompileResult Slow = compileProgram(*SlowProg, MD, Off);
  ASSERT_TRUE(Slow.Ok) << Slow.Error;

  std::vector<float> Input;
  for (int I = 0; I != N; ++I)
    Input.push_back(static_cast<float>(I));
  std::vector<ArrayCell> Cells = {{&Fast.Code, Fast.Prog.get(), {}},
                                  {&Slow.Code, SlowProg.get(), {}}};
  ArrayOptions Opts;
  Opts.ChannelCapacity = 4;
  ArrayRunResult R = simulateLinearArray(Cells, MD, Input, Opts);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_GT(R.StallCycles[0], 0u) << "producer must feel backpressure";
  ASSERT_EQ(R.ArrayOutput.size(), static_cast<size_t>(N));
  for (int I = 0; I != N; ++I)
    EXPECT_FLOAT_EQ(R.ArrayOutput[I], I + 4.0f);
}

TEST(ArraySim, StallsAcrossIdleWordsMatchTheDecodedRun) {
  // A pipelined producer feeds an unpipelined consumer whose serial
  // chain leaves idle words between its ops, through a 2-word channel:
  // both cells stall, and stepping over idle words must not move a
  // single stall, cycle or output word against decoding every word.
  MachineDescription MD = MachineDescription::warpCell();
  constexpr int N = 48;
  StreamCell Fast(N, 2.0f, 0.0f, MD);
  StreamCell Slow(N, 1.0f, 1.0f, MD, /*Pipelined=*/false);
  ASSERT_TRUE(Fast.Ok && Slow.Ok);
  ASSERT_GT(idleWords(Fast.Code), 0u);
  ASSERT_GT(idleWords(Slow.Code), 0u);
  VLIWProgram FastD = decodeEveryWord(Fast.Code);
  VLIWProgram SlowD = decodeEveryWord(Slow.Code);
  EXPECT_EQ(idleWords(FastD) + idleWords(SlowD), 0u);

  std::vector<float> Input;
  for (int I = 0; I != N; ++I)
    Input.push_back(static_cast<float>(I));
  ArrayOptions Opts;
  Opts.ChannelCapacity = 2;
  ArrayRunResult R = simulateLinearArray(
      {{&Fast.Code, Fast.Prog.get(), {}}, {&Slow.Code, Slow.Prog.get(), {}}},
      MD, Input, Opts);
  ArrayRunResult D = simulateLinearArray(
      {{&FastD, Fast.Prog.get(), {}}, {&SlowD, Slow.Prog.get(), {}}}, MD,
      Input, Opts);
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_TRUE(D.Ok) << D.Error;
  EXPECT_GT(R.StallCycles[0], 0u) << "producer must feel backpressure";
  EXPECT_EQ(R.Cycles, D.Cycles);
  EXPECT_EQ(R.StallCycles, D.StallCycles);
  EXPECT_EQ(R.ArrayOutput, D.ArrayOutput);
  ASSERT_EQ(R.Cells.size(), D.Cells.size());
  for (size_t I = 0; I != R.Cells.size(); ++I) {
    EXPECT_EQ(R.Cells[I].Cycles, D.Cells[I].Cycles) << "cell " << I;
    EXPECT_EQ(R.Cells[I].Util.toJson(), D.Cells[I].Util.toJson())
        << "cell " << I;
  }
  ASSERT_EQ(R.ArrayOutput.size(), static_cast<size_t>(N));
  for (int I = 0; I != N; ++I)
    EXPECT_FLOAT_EQ(R.ArrayOutput[I], 2.0f * I + 1.0f);
}

TEST(ArraySim, StarvationIsAnError) {
  // Cell 0 sends 8 words; cell 1 wants 16: once cell 0 halts, the
  // channel closes and the over-read is a hard error, not a hang.
  MachineDescription MD = MachineDescription::warpCell();
  StreamCell Producer(8, 1.0f, 0.0f, MD);
  StreamCell Consumer(16, 1.0f, 0.0f, MD);
  ASSERT_TRUE(Producer.Ok && Consumer.Ok);
  std::vector<float> Input(8, 1.0f);
  std::vector<ArrayCell> Cells = {{&Producer.Code, Producer.Prog.get(), {}},
                                  {&Consumer.Code, Consumer.Prog.get(), {}}};
  ArrayRunResult R = simulateLinearArray(Cells, MD, Input);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("exhausted"), std::string::npos) << R.Error;
}

TEST(ArraySim, MatchesSingleCellSemantics) {
  // A cell's final state inside the array equals its standalone run on
  // the same stream (timing differs; values must not).
  MachineDescription MD = MachineDescription::warpCell();
  constexpr int N = 32;
  StreamCell C0(N, 3.0f, -1.0f, MD);
  ASSERT_TRUE(C0.Ok);
  std::vector<float> Input;
  for (int I = 0; I != N; ++I)
    Input.push_back(0.25f * I - 2.0f);

  ProgramInput Single;
  Single.InputQueue = Input;
  SimResult Alone = simulate(C0.Code, *C0.Prog, MD, Single);
  ASSERT_TRUE(Alone.State.Ok) << Alone.State.Error;

  std::vector<ArrayCell> Cells = {{&C0.Code, C0.Prog.get(), {}}};
  ArrayRunResult R = simulateLinearArray(Cells, MD, Input);
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(R.ArrayOutput.size(), Alone.State.OutputQueue.size());
  for (size_t I = 0; I != R.ArrayOutput.size(); ++I)
    EXPECT_EQ(R.ArrayOutput[I], Alone.State.OutputQueue[I]);
  EXPECT_EQ(R.Cells[0].State.Flops, Alone.State.Flops);
}

TEST(ArraySim, CellFailingInTheDrainFailsTheArray) {
  // The cell halts at cycle 7 with two results still in flight to one
  // register, both landing at cycle 8: the collision shows only when the
  // cell's result is drained, and the array must report it.
  MachineDescription MD = MachineDescription::warpCell();
  Program P;
  std::vector<VLIWInst> Insts(8);
  MachOp One;
  One.Opc = Opcode::FConst;
  One.Def = {RegClass::Float, 0};
  One.FImm = 1.0;
  Insts[0].Ops.push_back(One);
  MachOp Mul;
  Mul.Opc = Opcode::FMul;
  Mul.Def = {RegClass::Float, 5};
  Mul.Uses = {One.Def, One.Def};
  Insts[1].Ops.push_back(Mul); // Lands at 8.
  MachOp Two = One;
  Two.Def = Mul.Def;
  Insts[7].Ops.push_back(Two); // Also lands at 8.
  Insts[7].Ctrl.K = ControlOp::Kind::Halt;
  VLIWProgram Code;
  Code.Insts = std::move(Insts);

  ArrayRunResult R = simulateLinearArray({{&Code, &P, {}}}, MD, {});
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "cell 0: cycle 8: write-write collision on register "
                     "index 5");
  ASSERT_EQ(R.Cells.size(), 1u);
  EXPECT_FALSE(R.Cells[0].State.Ok);
}
