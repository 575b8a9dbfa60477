//===- CellSim.cpp - Steppable single-cell simulator ----------------------------===//
//
// Part of warp-swp. See CellSim.h.
//
//===----------------------------------------------------------------------===//

#include "CellSim.h"

#include "swp/IR/OpSemantics.h"
#include "swp/IR/OpTraits.h"

#include <algorithm>
#include <bit>

using namespace swp;
using namespace swp::simdetail;

CellSim::CellSim(const VLIWProgram &Code, const Program &P,
                 const MachineDescription &MD, const ProgramInput &Input,
                 Channel *In, Channel *Out)
    : Code(Code), P(P), MD(MD), In(In), Out(Out) {
  unsigned MaxLatency = 1, MaxUseCycle = 0;
  for (unsigned I = 0; I != NumOpcodes; ++I) {
    Opcode Opc = static_cast<Opcode>(I);
    const OpcodeInfo &Info = MD.opcodeInfoAllowIllegal(Opc);
    Timing[I] = {Info.Latency, isFlopOpcode(Opc), Info.Uses};
    if (!Info.Legal)
      continue;
    MaxLatency = std::max(MaxLatency, Info.Latency);
    for (const ResourceUse &Use : Info.Uses)
      MaxUseCycle = std::max(MaxUseCycle, Use.Cycle);
  }
  Pending.resize(std::bit_ceil(uint64_t(MaxLatency) + 1));
  PendingMask = Pending.size() - 1;
  NumRes = MD.numResources();
  uint64_t ResRows = std::bit_ceil(uint64_t(MaxUseCycle) + 1);
  ResMask = ResRows - 1;
  ResUse.assign(ResRows * NumRes, 0);
  UtilBusy.assign(NumRes, 0);

  FRegs.assign(std::max(1u, MD.registerFileSize(RegClass::Float)), 0.0f);
  IRegs.assign(std::max(1u, MD.registerFileSize(RegClass::Int)), 0);
  FStamp.assign(FRegs.size(), 0);
  IStamp.assign(IRegs.size(), 0);
  LoopVars.assign(P.numLoops() + 1, 0);

  Result.State.FloatArrays.resize(P.numArrays());
  Result.State.IntArrays.resize(P.numArrays());
  for (unsigned Id = 0; Id != P.numArrays(); ++Id) {
    const ArrayInfo &A = P.arrayInfo(Id);
    if (A.Elem == RegClass::Float) {
      auto &Dst = Result.State.FloatArrays[Id];
      Dst.assign(A.Size, 0.0f);
      auto It = Input.FloatArrays.find(Id);
      if (It != Input.FloatArrays.end())
        for (size_t I = 0; I != It->second.size() && I != Dst.size(); ++I)
          Dst[I] = It->second[I];
    } else {
      auto &Dst = Result.State.IntArrays[Id];
      Dst.assign(A.Size, 0);
      auto It = Input.IntArrays.find(Id);
      if (It != Input.IntArrays.end())
        for (size_t I = 0; I != It->second.size() && I != Dst.size(); ++I)
          Dst[I] = It->second[I];
    }
  }
  for (const auto &[VRegId, Reg] : Code.LiveInRegs) {
    if (Reg.RC == RegClass::Float) {
      auto It = Input.FloatScalars.find(VRegId);
      if (It != Input.FloatScalars.end())
        FRegs[Reg.Index] = It->second;
    } else {
      auto It = Input.IntScalars.find(VRegId);
      if (It != Input.IntScalars.end())
        IRegs[Reg.Index] = It->second;
    }
  }
}

void CellSim::fail(const std::string &Msg) {
  if (Current == Status::Failed)
    return;
  Current = Status::Failed;
  Result.State.Ok = false;
  Result.State.Error = "cycle " + std::to_string(Cycle) + ": " + Msg;
}

bool CellSim::predsHold(const MachOp &Op) const {
  for (const PredPhys &Pr : Op.Preds) {
    bool True = IRegs[Pr.Reg.Index] != 0;
    if (True == Pr.Negated)
      return false;
  }
  return true;
}

void CellSim::scheduleWrite(PhysReg Reg, unsigned Latency, float FV,
                            int64_t IV) {
  Pending[(Exec + Latency) & PendingMask].push_back({Reg, FV, IV});
}

void CellSim::applyWritebacks(uint64_t At) {
  std::vector<PendingWrite> &Slot = Pending[At & PendingMask];
  for (const PendingWrite &W : Slot) {
    bool IsFloat = W.Reg.RC == RegClass::Float;
    uint64_t &Stamp = (IsFloat ? FStamp : IStamp)[W.Reg.Index];
    if (Stamp == At + 1)
      fail("write-write collision on register index " +
           std::to_string(W.Reg.Index));
    Stamp = At + 1;
    if (IsFloat)
      FRegs[W.Reg.Index] = W.FVal;
    else
      IRegs[W.Reg.Index] = W.IVal;
  }
  Slot.clear();
}

int64_t CellSim::evalIndex(const MachOp &Op) const {
  int64_t V = Op.Index.Const;
  for (const AffineExpr::Term &T : Op.Index.Terms)
    V += T.Coef * LoopVars[T.LoopId];
  if (Op.AddendReg.isValid())
    V += IRegs[Op.AddendReg.Index];
  return V;
}

void CellSim::auditResources(std::span<const ResourceUse> Uses) {
  for (const ResourceUse &Use : Uses) {
    unsigned &Reserved =
        ResUse[((Exec + Use.Cycle) & ResMask) * NumRes + Use.ResId];
    Reserved += Use.Units;
    UtilBusy[Use.ResId] += Use.Units;
    if (Reserved > MD.resource(Use.ResId).Units)
      fail("resource over-subscription on '" + MD.resource(Use.ResId).Name +
           "'");
  }
}

void CellSim::execOp(const MachOp &Op) {
  if (Op.Opc == Opcode::Nop)
    return;
  if (!predsHold(Op))
    return;
  assert(MD.isLegal(Op.Opc) && "querying an opcode this machine cannot issue");
  const OpTiming &T = Timing[static_cast<unsigned>(Op.Opc)];
  auditResources(T.Uses);
  ++Result.State.DynOps;
  if (T.IsFlop)
    ++Result.State.Flops;
  const unsigned Lat = T.Latency;

  switch (Op.Opc) {
  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
  case Opcode::FMin:
  case Opcode::FMax:
    scheduleWrite(Op.Def, Lat,
                  evalFBin(Op.Opc, FRegs[Op.Uses[0].Index],
                           FRegs[Op.Uses[1].Index]),
                  0);
    return;
  case Opcode::FNeg:
  case Opcode::FAbs:
  case Opcode::FMov:
  case Opcode::FRecipSeed:
  case Opcode::FRSqrtSeed:
    scheduleWrite(Op.Def, Lat, evalFUn(Op.Opc, FRegs[Op.Uses[0].Index]), 0);
    return;
  case Opcode::FCmpLT:
  case Opcode::FCmpLE:
  case Opcode::FCmpEQ:
  case Opcode::FCmpNE:
    scheduleWrite(Op.Def, Lat, 0,
                  evalFCmp(Op.Opc, FRegs[Op.Uses[0].Index],
                           FRegs[Op.Uses[1].Index]));
    return;
  case Opcode::FConst:
    scheduleWrite(Op.Def, Lat, static_cast<float>(Op.FImm), 0);
    return;
  case Opcode::IConst:
    scheduleWrite(Op.Def, Lat, 0, Op.IImm);
    return;
  case Opcode::IAdd:
  case Opcode::ISub:
  case Opcode::IMul:
  case Opcode::IDiv:
  case Opcode::IMod:
  case Opcode::ICmpLT:
  case Opcode::ICmpLE:
  case Opcode::ICmpEQ:
  case Opcode::ICmpNE:
  case Opcode::IAnd:
  case Opcode::IOr:
    scheduleWrite(Op.Def, Lat, 0,
                  evalIBin(Op.Opc, IRegs[Op.Uses[0].Index],
                           IRegs[Op.Uses[1].Index]));
    return;
  case Opcode::IMov:
  case Opcode::INot:
    scheduleWrite(Op.Def, Lat, 0, evalIUn(Op.Opc, IRegs[Op.Uses[0].Index]));
    return;
  case Opcode::FSel:
    scheduleWrite(Op.Def, Lat,
                  IRegs[Op.Uses[0].Index] != 0 ? FRegs[Op.Uses[1].Index]
                                               : FRegs[Op.Uses[2].Index],
                  0);
    return;
  case Opcode::ISel:
    scheduleWrite(Op.Def, Lat, 0,
                  IRegs[Op.Uses[0].Index] != 0 ? IRegs[Op.Uses[1].Index]
                                               : IRegs[Op.Uses[2].Index]);
    return;
  case Opcode::I2F:
    scheduleWrite(Op.Def, Lat, evalI2F(IRegs[Op.Uses[0].Index]), 0);
    return;
  case Opcode::F2I:
    scheduleWrite(Op.Def, Lat, 0, evalF2I(FRegs[Op.Uses[0].Index]));
    return;
  case Opcode::FLoad:
  case Opcode::ILoad: {
    int64_t Idx = evalIndex(Op);
    const ArrayInfo &A = P.arrayInfo(Op.ArrayId);
    if (Idx < 0 || Idx >= A.Size) {
      fail("load out of bounds: " + A.Name + "[" + std::to_string(Idx) +
           "]");
      return;
    }
    if (Op.Opc == Opcode::FLoad)
      scheduleWrite(Op.Def, Lat, Result.State.FloatArrays[Op.ArrayId][Idx],
                    0);
    else
      scheduleWrite(Op.Def, Lat, 0, Result.State.IntArrays[Op.ArrayId][Idx]);
    return;
  }
  case Opcode::FStore:
  case Opcode::IStore: {
    int64_t Idx = evalIndex(Op);
    const ArrayInfo &A = P.arrayInfo(Op.ArrayId);
    if (Idx < 0 || Idx >= A.Size) {
      fail("store out of bounds: " + A.Name + "[" + std::to_string(Idx) +
           "]");
      return;
    }
    if (Op.Opc == Opcode::FStore)
      StoresThisCycle.push_back({Op.ArrayId, Idx, FRegs[Op.Uses[0].Index],
                                 0, true});
    else
      StoresThisCycle.push_back({Op.ArrayId, Idx, 0.0f,
                                 IRegs[Op.Uses[0].Index], false});
    return;
  }
  case Opcode::Recv:
    // Availability was checked by the stall scan.
    scheduleWrite(Op.Def, Lat, In->Data[In->ReadCursor++], 0);
    return;
  case Opcode::Send:
    SendsThisCycle.push_back(FRegs[Op.Uses[0].Index]);
    return;
  case Opcode::FInv:
  case Opcode::FSqrt:
  case Opcode::FExp:
    fail("library pseudo-op reached the simulator");
    return;
  case Opcode::Nop:
    return;
  }
  fail("unknown opcode");
}

CellSim::Status CellSim::run(uint64_t Until) {
  const InstList &Insts = Code.Insts;
  const size_t NumInsts = Insts.size();
  while (Cycle < Until &&
         (Current == Status::Running || Current == Status::Stalled)) {
    if (PC >= NumInsts) {
      fail("execution fell off the end of the program");
      return Current;
    }

    // Results due at this point of the execution clock land first, so
    // the stall scan and execution read the same register state. (No
    // double-apply across stalls: a slot is emptied once applied.) A
    // collision stops the cell here.
    applyWritebacks(Exec);
    if (Current == Status::Failed)
      return Current;

    // An idle instruction issues nothing and cannot stall: the cycle
    // only lands its writebacks (above), frees its reservation row and
    // falls through.
    if (Insts.isIdle(PC)) {
      Current = Status::Running;
      std::fill_n(ResUse.begin() + (Exec & ResMask) * NumRes, NumRes, 0u);
      ++PC;
      ++Cycle;
      ++Exec;
      continue;
    }
    const VLIWInst &Inst = Insts[PC];

    // Flow control: count the channel words this instruction's active
    // ops need; stall the whole cell when the queues cannot satisfy
    // them. Only Recv and Send have their predicates evaluated here.
    size_t NeedIn = 0, NeedOut = 0;
    for (const MachOp &Op : Inst.Ops) {
      if (Op.Opc != Opcode::Recv && Op.Opc != Opcode::Send)
        continue;
      if (!predsHold(Op))
        continue;
      if (Op.Opc == Opcode::Recv)
        ++NeedIn;
      else
        ++NeedOut;
    }
    if (NeedIn > 0 && !In->canPop(NeedIn)) {
      if (In->Closed) {
        fail("input channel exhausted");
        return Current;
      }
      ++Stalls;
      ++InputStalls;
      ++Cycle;
      Current = Status::Stalled;
      continue;
    }
    if (NeedOut > 0 && !Out->canPush(NeedOut)) {
      ++Stalls;
      ++OutputStalls;
      ++Cycle;
      Current = Status::Stalled;
      continue;
    }
    Current = Status::Running;

    StoresThisCycle.clear();
    SendsThisCycle.clear();
    for (const MachOp &Op : Inst.Ops) {
      execOp(Op);
      if (Current == Status::Failed)
        return Current;
    }

    for (auto SC = StoresThisCycle.begin(); SC != StoresThisCycle.end();
         ++SC) {
      if (std::any_of(StoresThisCycle.begin(), SC,
                      [&](const StoreCommit &E) {
                        return E.ArrayId == SC->ArrayId &&
                               E.Index == SC->Index;
                      })) {
        fail("two stores to the same address in one cycle");
        return Current;
      }
      if (SC->IsFloat)
        Result.State.FloatArrays[SC->ArrayId][SC->Index] = SC->FVal;
      else
        Result.State.IntArrays[SC->ArrayId][SC->Index] = SC->IVal;
    }
    for (float V : SendsThisCycle)
      Out->Data.push_back(V);
    for (const AguOp &A : Inst.Agu) {
      int64_t V = A.Relative ? LoopVars[A.LoopId] : 0;
      if (A.A.isValid())
        V += IRegs[A.A.Index];
      LoopVars[A.LoopId] = V + A.Imm;
    }

    size_t NextPC = PC + 1;
    switch (Inst.Ctrl.K) {
    case ControlOp::Kind::None:
      break;
    case ControlOp::Kind::Halt:
      Current = Status::Halted;
      break;
    case ControlOp::Kind::Jump:
      NextPC = Inst.Ctrl.Target;
      break;
    case ControlOp::Kind::JumpIfZero:
      if (IRegs[Inst.Ctrl.Counter.Index] == 0)
        NextPC = Inst.Ctrl.Target;
      break;
    case ControlOp::Kind::DecJumpPos: {
      int64_t V = IRegs[Inst.Ctrl.Counter.Index] - 1;
      IRegs[Inst.Ctrl.Counter.Index] = V;
      if (V > 0)
        NextPC = Inst.Ctrl.Target;
      break;
    }
    }
    PC = NextPC;
    // No later issue can reserve this cycle, so its row is free for
    // reuse.
    std::fill_n(ResUse.begin() + (Exec & ResMask) * NumRes, NumRes, 0u);
    ++Cycle;
    ++Exec;
  }
  return Current;
}

SimResult CellSim::takeResult() {
  // Everything in flight lands within one turn of the ring, in order.
  uint64_t End = Exec + Pending.size();
  for (uint64_t At = Exec; At != End && Current != Status::Failed; ++At)
    applyWritebacks(At);
  Result.Cycles = Cycle;
  if (Cycle > 0)
    Result.MFLOPS = static_cast<double>(Result.State.Flops) * MD.clockMHz() /
                    static_cast<double>(Cycle);
  Result.Util.Cycles = Cycle;
  Result.Util.ExecCycles = Exec;
  Result.Util.StallCycles = Stalls;
  Result.Util.InputStallCycles = InputStalls;
  Result.Util.OutputStallCycles = OutputStalls;
  Result.Util.OpsIssued = Result.State.DynOps;
  Result.Util.Resources.reserve(MD.numResources());
  for (unsigned R = 0; R != MD.numResources(); ++R)
    Result.Util.Resources.push_back(
        {MD.resource(R).Name, MD.resource(R).Units, UtilBusy[R]});
  return std::move(Result);
}
