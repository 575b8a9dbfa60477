//===- VLIWProgram.cpp - Long-instruction code ---------------------------------===//
//
// Part of warp-swp. See VLIWProgram.h.
//
//===----------------------------------------------------------------------===//

#include "swp/Codegen/VLIWProgram.h"

#include <algorithm>
#include <cassert>
#include <sstream>

using namespace swp;

/// Heap bytes behind \p V once it has spilled past its inline capacity.
template <typename T, unsigned N>
static size_t spilledBytes(const SmallVec<T, N> &V) {
  return V.onHeap() ? V.capacity() * sizeof(T) : 0;
}

InstList::InstList(std::vector<VLIWInst> &&Insts) {
  if (Insts.empty())
    return;
  assert(Insts.size() < IdleSlot && "slot table indexes with 32 bits");
  auto NewBody = std::make_shared<Body>();
  NewBody->Slots.reserve(Insts.size());
  NewBody->Stored.reserve(static_cast<size_t>(std::count_if(
      Insts.begin(), Insts.end(),
      [](const VLIWInst &I) { return !idle(I); })));
  size_t Bytes = NewBody->Slots.capacity() * sizeof(uint32_t) +
                 NewBody->Stored.capacity() * sizeof(VLIWInst);
  for (VLIWInst &I : Insts) {
    if (idle(I)) {
      NewBody->Slots.push_back(IdleSlot);
      continue;
    }
    NewBody->Slots.push_back(static_cast<uint32_t>(NewBody->Stored.size()));
    I.Ops.shrink_to_fit();
    I.Agu.shrink_to_fit();
    Bytes += I.Ops.capacity() * sizeof(MachOp) +
             I.Agu.capacity() * sizeof(AguOp);
    for (const MachOp &M : I.Ops)
      Bytes += spilledBytes(M.Uses) + spilledBytes(M.Index.Terms) +
               spilledBytes(M.Preds);
    NewBody->Stored.push_back(std::move(I));
  }
  Insts.clear();
  NewBody->Bytes = Bytes;
  B = std::move(NewBody);
}

static std::string regToString(PhysReg R) {
  if (!R.isValid())
    return "-";
  return (R.RC == RegClass::Float ? "f" : "r") + std::to_string(R.Index);
}

static std::string affineToString(const AffineExpr &E) {
  std::string Out;
  bool First = true;
  for (const AffineExpr::Term &T : E.Terms) {
    if (!First)
      Out += "+";
    First = false;
    if (T.Coef != 1)
      Out += std::to_string(T.Coef) + "*";
    Out += "L" + std::to_string(T.LoopId);
  }
  if (E.Const != 0 || First) {
    if (!First && E.Const > 0)
      Out += "+";
    Out += std::to_string(E.Const);
  }
  return Out;
}

std::string swp::vliwProgramToString(const VLIWProgram &Prog,
                                     const MachineDescription &MD) {
  (void)MD;
  std::ostringstream OS;
  for (size_t I = 0; I != Prog.Insts.size(); ++I) {
    const VLIWInst &Inst = Prog.Insts[I];
    OS << I << ":";
    for (const MachOp &Op : Inst.Ops) {
      OS << "  ";
      for (const PredPhys &Pr : Op.Preds)
        OS << (Pr.Negated ? "!" : "") << regToString(Pr.Reg) << "? ";
      if (Op.Def.isValid())
        OS << regToString(Op.Def) << "=";
      OS << opcodeName(Op.Opc);
      if (Op.Opc == Opcode::FConst)
        OS << " " << Op.FImm;
      if (Op.Opc == Opcode::IConst)
        OS << " " << Op.IImm;
      if (Op.hasMem()) {
        OS << " a" << Op.ArrayId << "[" << affineToString(Op.Index);
        if (Op.AddendReg.isValid())
          OS << "+" << regToString(Op.AddendReg);
        OS << "]";
      }
      for (const PhysReg &U : Op.Uses)
        OS << " " << regToString(U);
      if (Op.Opc == Opcode::Recv || Op.Opc == Opcode::Send)
        OS << " q" << Op.Queue;
    }
    for (const AguOp &A : Inst.Agu) {
      OS << "  L" << A.LoopId << (A.Relative ? "+=" : "=");
      if (A.A.isValid())
        OS << regToString(A.A) << "+";
      OS << A.Imm;
    }
    switch (Inst.Ctrl.K) {
    case ControlOp::Kind::None:
      break;
    case ControlOp::Kind::Halt:
      OS << "  halt";
      break;
    case ControlOp::Kind::Jump:
      OS << "  jump " << Inst.Ctrl.Target;
      break;
    case ControlOp::Kind::JumpIfZero:
      OS << "  jz " << regToString(Inst.Ctrl.Counter) << " "
         << Inst.Ctrl.Target;
      break;
    case ControlOp::Kind::DecJumpPos:
      OS << "  djp " << regToString(Inst.Ctrl.Counter) << " "
         << Inst.Ctrl.Target;
      break;
    }
    OS << "\n";
  }
  return OS.str();
}
