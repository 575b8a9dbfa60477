//===- ScheduleUnit.cpp - Minimally indivisible sequences -------------------===//
//
// Part of warp-swp. See ScheduleUnit.h.
//
//===----------------------------------------------------------------------===//

#include "swp/DDG/ScheduleUnit.h"

#include "swp/IR/OpTraits.h"

#include <algorithm>

using namespace swp;

ScheduleUnit ScheduleUnit::makeSimple(Operation Op,
                                      const MachineDescription &MD) {
  ScheduleUnit U;
  const OpcodeInfo &Info = MD.opcodeInfo(Op.Opc);
  U.Reservation = Info.Uses;
  U.Length = 1;
  for (const ResourceUse &Use : Info.Uses)
    U.Length = std::max(U.Length, static_cast<int>(Use.Cycle) + 1);
  U.Ops.push_back(UnitOp{std::move(Op), 0, {}});
  U.Reduced = false;
  U.deriveAccessInfo(MD);
  return U;
}

ScheduleUnit ScheduleUnit::makeReduced(std::vector<UnitOp> Ops,
                                       std::vector<ResourceUse> Reservation,
                                       int Length,
                                       const MachineDescription &MD) {
  ScheduleUnit U;
  U.Ops = std::move(Ops);
  U.Reservation = std::move(Reservation);
  U.Length = std::max(Length, 1);
  U.Reduced = true;
  U.deriveAccessInfo(MD);
  return U;
}

bool ScheduleUnit::definesReg(VReg R) const {
  for (const RegWrite &W : Writes)
    if (W.R == R)
      return true;
  return false;
}

void ScheduleUnit::deriveAccessInfo(const MachineDescription &MD) {
  // Size each list exactly first, so each allocates once.
  size_t NumReads = 0, NumWrites = 0, NumMem = 0, NumQueue = 0;
  for (const UnitOp &UO : Ops) {
    NumReads += UO.Op.Operands.size() + UO.Preds.size();
    NumWrites += UO.Op.Def.isValid();
    NumMem += isMemAccess(UO.Op.Opc);
    NumQueue += UO.Op.Opc == Opcode::Recv || UO.Op.Opc == Opcode::Send;
  }
  Reads.reserve(NumReads);
  Writes.reserve(NumWrites);
  MemAccs.reserve(NumMem);
  QueueAccs.reserve(NumQueue);
  for (const UnitOp &UO : Ops) {
    const Operation &Op = UO.Op;
    for (const VReg &R : Op.Operands)
      Reads.push_back({R, UO.Offset});
    // Predicate guards are register reads too: the guard value must be
    // available when the guarded operation issues.
    for (const PredTerm &PT : UO.Preds)
      Reads.push_back({PT.Cond, UO.Offset});
    if (Op.Def.isValid())
      Writes.push_back({Op.Def, UO.Offset, MD.opcodeInfo(Op.Opc).Latency});
    if (isMemAccess(Op.Opc))
      MemAccs.push_back({&Op, UO.Offset, isStore(Op.Opc)});
    if (Op.Opc == Opcode::Recv || Op.Opc == Opcode::Send)
      QueueAccs.push_back({Op.Queue, UO.Offset, Op.Opc == Opcode::Send});
  }
}
