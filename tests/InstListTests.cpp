//===- InstListTests.cpp - Shared, compact instruction lists ----------------===//
//
// Part of warp-swp.
//
// An InstList stores only the instructions that do something and shares
// them between copies. These tests hold it to reading back exactly what
// was emitted (field for field, idle words included), to sharing instead
// of copying, to counting its bytes once, and to being safe to copy,
// read and drop from several threads at once.
//
//===----------------------------------------------------------------------===//

#include "swp/Codegen/VLIWProgram.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

using namespace swp;

namespace {

bool sameOp(const MachOp &A, const MachOp &B) {
  if (A.Preds.size() != B.Preds.size() ||
      A.Index.Terms.size() != B.Index.Terms.size())
    return false;
  for (size_t I = 0; I != A.Preds.size(); ++I)
    if (!(A.Preds[I].Reg == B.Preds[I].Reg) ||
        A.Preds[I].Negated != B.Preds[I].Negated)
      return false;
  for (size_t I = 0; I != A.Index.Terms.size(); ++I)
    if (A.Index.Terms[I].LoopId != B.Index.Terms[I].LoopId ||
        A.Index.Terms[I].Coef != B.Index.Terms[I].Coef)
      return false;
  return A.Opc == B.Opc && A.Def == B.Def && A.Uses == B.Uses &&
         A.ArrayId == B.ArrayId && A.Index.Const == B.Index.Const &&
         A.AddendReg == B.AddendReg &&
         A.FImm == B.FImm && A.IImm == B.IImm && A.Queue == B.Queue;
}

bool sameInst(const VLIWInst &A, const VLIWInst &B) {
  if (A.Ops.size() != B.Ops.size() || A.Agu.size() != B.Agu.size())
    return false;
  for (size_t I = 0; I != A.Ops.size(); ++I)
    if (!sameOp(A.Ops[I], B.Ops[I]))
      return false;
  for (size_t I = 0; I != A.Agu.size(); ++I)
    if (A.Agu[I].LoopId != B.Agu[I].LoopId ||
        A.Agu[I].Relative != B.Agu[I].Relative ||
        !(A.Agu[I].A == B.Agu[I].A) || A.Agu[I].Imm != B.Agu[I].Imm)
      return false;
  return A.Ctrl.K == B.Ctrl.K && A.Ctrl.Target == B.Ctrl.Target &&
         A.Ctrl.Counter == B.Ctrl.Counter;
}

/// Every kind of instruction the emitter can produce, with idle words
/// between and around them: ops only, AGU only, control only, a jump
/// target without a control kind, a counter without one, and a store
/// whose subscript and predicate lists spilled to the heap.
std::vector<VLIWInst> mixedCode() {
  std::vector<VLIWInst> Code(14);
  MachOp Add;
  Add.Opc = Opcode::FAdd;
  Add.Def = {RegClass::Float, 2};
  Add.Uses = {{RegClass::Float, 0}, {RegClass::Float, 1}};
  Code[1].Ops.push_back(Add);
  Code[2].Agu.push_back(AguOp{0, /*Relative=*/true, {}, 1});
  Code[4].Ctrl.K = ControlOp::Kind::Halt;
  Code[5].Ctrl.Target = 3; // Kind None: the target alone is not idle.
  Code[7].Ctrl.Counter = {RegClass::Int, 1};
  MachOp Store;
  Store.Opc = Opcode::FStore;
  Store.ArrayId = 0;
  Store.Index.Terms = {{0, 64}, {1, 8}, {2, 1}};
  Store.Uses = {{RegClass::Float, 2}};
  Store.Preds = {{{RegClass::Int, 3}, false}, {{RegClass::Int, 4}, true}};
  Code[9].Ops.push_back(Store);
  Code[9].Ops.push_back(Add);
  Code[9].Agu.push_back(AguOp{1, /*Relative=*/false, {RegClass::Int, 5}, 7});
  Code[9].Ctrl.K = ControlOp::Kind::DecJumpPos;
  Code[9].Ctrl.Target = 9;
  Code[9].Ctrl.Counter = {RegClass::Int, 6};
  Code[11].Ctrl.K = ControlOp::Kind::JumpIfZero;
  return Code;
}

TEST(InstList, ExpandEqualsTheEmittedCode) {
  const std::vector<VLIWInst> Emitted = mixedCode();
  InstList L(mixedCode());
  ASSERT_EQ(L.size(), Emitted.size());
  std::vector<VLIWInst> Back = L.expand();
  ASSERT_EQ(Back.size(), Emitted.size());
  size_t Idle = 0;
  for (size_t I = 0; I != Emitted.size(); ++I) {
    EXPECT_TRUE(sameInst(Back[I], Emitted[I])) << "instruction " << I;
    EXPECT_TRUE(sameInst(L[I], Emitted[I])) << "instruction " << I;
    EXPECT_EQ(L.isIdle(I), InstList::idle(Emitted[I])) << "instruction " << I;
    Idle += L.isIdle(I);
  }
  EXPECT_EQ(Idle, 7u);
  EXPECT_TRUE(sameInst(L.front(), Emitted.front()));
  EXPECT_TRUE(sameInst(L.back(), Emitted.back()));
  size_t N = 0;
  for (const VLIWInst &I : L)
    EXPECT_TRUE(sameInst(I, Emitted[N++]));
  EXPECT_EQ(N, Emitted.size());
}

TEST(InstList, IdleSlotsReadAsTheSharedDefaultInstruction) {
  InstList L(mixedCode());
  const VLIWInst Default;
  for (size_t I = 0; I != L.size(); ++I) {
    if (!L.isIdle(I))
      continue;
    EXPECT_EQ(&L[I], &InstList::Idle) << "instruction " << I;
    EXPECT_TRUE(sameInst(L[I], Default)) << "instruction " << I;
  }
  EXPECT_TRUE(InstList::idle(Default));
  EXPECT_TRUE(L.isIdle(0));
  EXPECT_TRUE(L.isIdle(L.size() - 1));
}

TEST(InstList, CopiesShareOneBody) {
  VLIWProgram A;
  A.Insts = mixedCode();
  A.LiveInRegs[3] = {RegClass::Float, 4};
  VLIWProgram B = A;
  VLIWProgram C;
  C = B;
  ASSERT_EQ(B.Insts.size(), A.Insts.size());
  for (size_t I = 0; I != A.Insts.size(); ++I) {
    EXPECT_EQ(&B.Insts[I], &A.Insts[I]) << "instruction " << I;
    EXPECT_EQ(&C.Insts[I], &A.Insts[I]) << "instruction " << I;
  }
  EXPECT_EQ(B.Insts.bytes(), A.Insts.bytes());
  // The rest of the program is still a value: each copy owns its map.
  B.LiveInRegs.clear();
  EXPECT_EQ(A.LiveInRegs.size(), 1u);
  // The body outlives the list it was built for.
  const VLIWInst *Halt = &A.Insts[4];
  A = VLIWProgram();
  EXPECT_TRUE(A.Insts.empty());
  EXPECT_EQ(&B.Insts[4], Halt);
  EXPECT_EQ(B.Insts[4].Ctrl.K, ControlOp::Kind::Halt);
}

TEST(InstList, EmptyListHoldsNothing) {
  InstList L;
  EXPECT_TRUE(L.empty());
  EXPECT_EQ(L.size(), 0u);
  EXPECT_EQ(L.bytes(), 0u);
  EXPECT_TRUE(L.begin() == L.end());
  EXPECT_TRUE(L.expand().empty());
  InstList FromEmpty{std::vector<VLIWInst>()};
  EXPECT_TRUE(FromEmpty.empty());
  EXPECT_EQ(FromEmpty.bytes(), 0u);
}

// The byte count is taken once, at construction: the stored instructions
// (not the idle ones), their op and AGU storage, the lists an op spilled
// to the heap, and one 32-bit slot per instruction.
TEST(InstList, BytesCountStoredCodeOnly) {
  std::vector<VLIWInst> Emitted = mixedCode();
  size_t Want = Emitted.size() * sizeof(uint32_t);
  for (const VLIWInst &I : Emitted) {
    if (InstList::idle(I))
      continue;
    Want += sizeof(VLIWInst) + I.Ops.size() * sizeof(MachOp) +
            I.Agu.size() * sizeof(AguOp);
    for (const MachOp &M : I.Ops) {
      if (M.Index.Terms.onHeap())
        Want += M.Index.Terms.capacity() * sizeof(AffineExpr::Term);
      if (M.Preds.onHeap())
        Want += M.Preds.capacity() * sizeof(PredPhys);
      EXPECT_FALSE(M.Uses.onHeap());
    }
  }
  InstList L(std::move(Emitted));
  EXPECT_TRUE(Emitted.empty());
  EXPECT_EQ(L.bytes(), Want);

  // Slack left by the emitter's growth is not kept.
  std::vector<VLIWInst> Grown(3);
  Grown[1].Ops.reserve(16);
  Grown[1].Ops.push_back(MachOp());
  InstList G(std::move(Grown));
  EXPECT_EQ(G[1].Ops.capacity(), 1u);
  EXPECT_EQ(G.bytes(),
            3 * sizeof(uint32_t) + sizeof(VLIWInst) + sizeof(MachOp));
}

// Four threads copy one list, read every instruction through their copy
// and drop it, while the original goes away on the main thread: the
// shared body's reference count is the only state they touch.
TEST(InstList, ThreadsCopyReadAndDropOneList) {
  auto Owner = std::make_unique<VLIWProgram>();
  Owner->Insts = mixedCode();
  const VLIWProgram &Shared = *Owner;
  const std::vector<VLIWInst> Emitted = mixedCode();
  std::atomic<unsigned> Ready{0};
  std::atomic<size_t> Mismatches{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != 4; ++T)
    Threads.emplace_back([&] {
      VLIWProgram Mine = Shared;
      Ready.fetch_add(1);
      for (unsigned Round = 0; Round != 200; ++Round) {
        VLIWProgram Copy = Mine;
        for (size_t I = 0; I != Emitted.size(); ++I)
          if (!sameInst(Copy.Insts[I], Emitted[I]))
            Mismatches.fetch_add(1);
      }
    });
  // Every thread holds its own copy before the original is dropped.
  while (Ready.load() != 4)
    std::this_thread::yield();
  Owner.reset();
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Mismatches.load(), 0u);
}

} // namespace
