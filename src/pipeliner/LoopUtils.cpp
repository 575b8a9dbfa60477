//===- LoopUtils.cpp - Loop preparation helpers --------------------------------===//
//
// Part of warp-swp. See LoopUtils.h.
//
//===----------------------------------------------------------------------===//

#include "swp/Pipeliner/LoopUtils.h"

using namespace swp;

namespace {

/// Ors \p Bit into \p Mask[v] for every register v defined in \p List.
void markDefs(const StmtList &List, std::vector<uint8_t> &Mask, uint8_t Bit) {
  for (const StmtPtr &S : List) {
    if (const auto *Op = dyn_cast<OpStmt>(S.get())) {
      if (Op->Op.Def.isValid())
        Mask[Op->Op.Def.Id] |= Bit;
    } else if (const auto *If = dyn_cast<IfStmt>(S.get())) {
      markDefs(If->Then, Mask, Bit);
      markDefs(If->Else, Mask, Bit);
    } else {
      markDefs(cast<ForStmt>(S.get())->Body, Mask, Bit);
    }
  }
}

/// Ors \p Bit into \p Mask[v] for every register v read (operands,
/// subscript addends, conditions, loop bounds) in \p List outside the
/// subtree rooted at \p Skip.
void markReadsOutside(const StmtList &List, const ForStmt *Skip,
                      std::vector<uint8_t> &Mask, uint8_t Bit) {
  for (const StmtPtr &S : List) {
    if (S.get() == Skip)
      continue;
    if (const auto *Op = dyn_cast<OpStmt>(S.get())) {
      for (const VReg &R : Op->Op.Operands)
        Mask[R.Id] |= Bit;
      if (Op->Op.Mem.isValid() && Op->Op.Mem.Index.hasAddend())
        Mask[Op->Op.Mem.Index.Addend.Id] |= Bit;
      continue;
    }
    if (const auto *If = dyn_cast<IfStmt>(S.get())) {
      Mask[If->Cond.Id] |= Bit;
      markReadsOutside(If->Then, Skip, Mask, Bit);
      markReadsOutside(If->Else, Skip, Mask, Bit);
      continue;
    }
    const auto *For = cast<ForStmt>(S.get());
    if (!For->Lo.IsImm)
      Mask[For->Lo.Reg.Id] |= Bit;
    if (!For->Hi.IsImm)
      Mask[For->Hi.Reg.Id] |= Bit;
    markReadsOutside(For->Body, Skip, Mask, Bit);
  }
}

} // namespace

void swp::liveOutRegs(const Program &P, const ForStmt &For,
                      std::vector<uint8_t> &LiveOut) {
  LiveOut.assign(P.numVRegs(), 0);
  markDefs(For.Body, LiveOut, 1);
  markReadsOutside(P.Body, &For, LiveOut, 2);
  for (uint8_t &V : LiveOut)
    V = V == 3;
}

std::set<unsigned> swp::liveOutRegs(const Program &P, const ForStmt &For) {
  std::vector<uint8_t> Mask;
  liveOutRegs(P, For, Mask);
  std::set<unsigned> LiveOut;
  for (unsigned Id = 0; Id != Mask.size(); ++Id)
    if (Mask[Id])
      LiveOut.insert(LiveOut.end(), Id);
  return LiveOut;
}

bool swp::usesIndVarAsValue(const ForStmt &For) {
  bool Used = false;
  forEachStmt(For.Body, [&](const Stmt &S) {
    if (const auto *Op = dyn_cast<OpStmt>(&S)) {
      for (const VReg &R : Op->Op.Operands)
        if (R == For.IndVar)
          Used = true;
      if (Op->Op.Mem.isValid() && Op->Op.Mem.Index.hasAddend() &&
          Op->Op.Mem.Index.Addend == For.IndVar)
        Used = true;
    } else if (const auto *If = dyn_cast<IfStmt>(&S)) {
      if (If->Cond == For.IndVar)
        Used = true;
    }
  });
  return Used;
}

LoopPrep swp::prepareLoopForCodegen(Program &P, ForStmt &For) {
  LoopPrep Prep;
  if (!usesIndVarAsValue(For))
    return Prep;

  // Idempotence: a trailing "iv := iadd iv, <x>" means we already ran.
  if (!For.Body.empty()) {
    if (const auto *Last = dyn_cast<OpStmt>(For.Body.back().get()))
      if (Last->Op.Opc == Opcode::IAdd && Last->Op.Def == For.IndVar &&
          !Last->Op.Operands.empty() && Last->Op.Operands[0] == For.IndVar) {
        Prep.IndVarMaterialized = true;
        return Prep;
      }
  }

  VReg One = P.createVReg(RegClass::Int, "one");
  Operation MakeOne;
  MakeOne.Opc = Opcode::IConst;
  MakeOne.IImm = 1;
  MakeOne.Def = One;
  Prep.Preheader.push_back(std::move(MakeOne));

  Operation InitIV;
  if (For.Lo.IsImm) {
    InitIV.Opc = Opcode::IConst;
    InitIV.IImm = For.Lo.Imm;
  } else {
    InitIV.Opc = Opcode::IMov;
    InitIV.Operands = {For.Lo.Reg};
  }
  InitIV.Def = For.IndVar;
  Prep.Preheader.push_back(std::move(InitIV));

  Operation Inc;
  Inc.Opc = Opcode::IAdd;
  Inc.Operands = {For.IndVar, One};
  Inc.Def = For.IndVar;
  For.Body.push_back(std::make_unique<OpStmt>(std::move(Inc)));
  Prep.IndVarMaterialized = true;
  return Prep;
}

bool swp::isInnermost(const ForStmt &For) {
  bool HasLoop = false;
  forEachStmt(For.Body, [&](const Stmt &S) {
    if (isa<ForStmt>(&S))
      HasLoop = true;
  });
  return !HasLoop;
}

std::vector<ForStmt *> swp::innermostLoops(StmtList &List) {
  std::vector<ForStmt *> Result;
  for (StmtPtr &S : List) {
    if (auto *For = dyn_cast<ForStmt>(S.get())) {
      if (isInnermost(*For))
        Result.push_back(For);
      else {
        auto Nested = innermostLoops(For->Body);
        Result.insert(Result.end(), Nested.begin(), Nested.end());
      }
    } else if (auto *If = dyn_cast<IfStmt>(S.get())) {
      auto T = innermostLoops(If->Then);
      Result.insert(Result.end(), T.begin(), T.end());
      auto E = innermostLoops(If->Else);
      Result.insert(Result.end(), E.begin(), E.end());
    }
  }
  return Result;
}
