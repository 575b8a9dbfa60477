//===- Compiler.cpp - Program-to-VLIW compilation ------------------------------===//
//
// Part of warp-swp. See Compiler.h. Emission conventions:
//
//  * Memory subscripts stay symbolic over AGU loop variables. An operation
//    instance belonging to iteration (LoopVar + K) folds K into the
//    subscript constant: coef*(LV + K) + c == coef*LV + (c + coef*K).
//  * Expanded registers rotate by iteration index: instance K of register
//    v uses physical copy K mod copies(v). Copy counts divide the kernel
//    unroll degree, so every rotation index in prolog, kernel and epilog
//    is a compile-time constant.
//  * Regions (straight-line segments, loops) are separated by a drain pad
//    of max-latency empty instructions so cross-region flow dependences
//    resolve at region boundaries. Hierarchical overlap of prolog/epilog
//    with surrounding code is a measured optimization, not assumed.
//
//===----------------------------------------------------------------------===//

#include "swp/Codegen/Compiler.h"

#include "swp/Codegen/RegAlloc.h"
#include "swp/Metrics/Metrics.h"
#include "swp/DDG/DDGBuilder.h"
#include "swp/IR/Expansion.h"
#include "swp/IR/Transforms.h"
#include "swp/IR/OpTraits.h"
#include "swp/Pipeliner/HierarchicalReducer.h"
#include "swp/Pipeliner/LoopUtils.h"
#include "swp/Sched/ListScheduler.h"
#include "swp/Sched/ScheduleDump.h"
#include "swp/Sched/Utilization.h"
#include "swp/Support/FaultInject.h"
#include "swp/Support/Trace.h"
#include "swp/Verify/ScheduleVerifier.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <new>
#include <optional>
#include <set>
#include <sstream>

using namespace swp;

namespace {

/// Worst-case producer latency on this machine; regions are separated by
/// this many empty instructions so all in-flight writes land.
unsigned drainPad(const MachineDescription &MD) {
  unsigned Max = 1;
  for (unsigned I = 0; I != NumOpcodes; ++I) {
    Opcode Opc = static_cast<Opcode>(I);
    if (MD.isLegal(Opc))
      Max = std::max(Max, MD.opcodeInfo(Opc).Latency);
  }
  return Max;
}


/// Arrays carrying the user's no-alias directive in \p P.
static std::set<unsigned> noAliasArrays(const Program &P) {
  std::set<unsigned> Out;
  for (unsigned Id = 0; Id != P.numArrays(); ++Id)
    if (P.arrayInfo(Id).NoAlias)
      Out.insert(Id);
  return Out;
}

/// \p U copies of one iteration's dependence graph, manually folded: copy
/// r of node i is r*n + i, and an edge (Src -> Dst, omega) becomes an edge
/// from copy r of Src to copy (r + omega) mod U of Dst at distance
/// (r + omega) / U. Register-reuse serialization survives the fold — the
/// plain graph materializes anti/output edges for every reused temporary,
/// and those edges land between the copies that share the register.
static DepGraph unrollDepGraph(const DepGraph &G, unsigned U) {
  const unsigned N = G.numNodes();
  std::vector<ScheduleUnit> Units;
  Units.reserve(static_cast<size_t>(N) * U);
  for (unsigned R = 0; R != U; ++R)
    for (unsigned I = 0; I != N; ++I)
      Units.push_back(G.unit(I));
  DepGraph UG(std::move(Units));
  for (const DepEdge &E : G.edges())
    for (unsigned R = 0; R != U; ++R) {
      DepEdge F = E;
      F.Src = R * N + E.Src;
      F.Dst = ((R + E.Omega) % U) * N + E.Dst;
      F.Omega = (R + E.Omega) / U;
      UG.addEdge(F);
    }
  return UG;
}

class CompilerImpl {
public:
  CompilerImpl(Program &P, const MachineDescription &MD,
               const CompilerOptions &Opts, DiagnosticEngine *Diags)
      : P(P), MD(MD), Opts(Opts), Diags(Diags), RA(MD), Pad(drainPad(MD)) {
    if (Opts.Tracker) {
      Budget = Opts.Tracker;
    } else if (Opts.Budget.limited()) {
      BudgetStore.emplace(Opts.Budget);
      Budget = &*BudgetStore;
    }
  }

  CompileResult run();

private:
  //===--- Phase 0: preparation and allocation -----------------------------===

  void prepareAllLoops(StmtList &List);
  void classifyAndAllocateGlobals();

  //===--- Emission primitives ---------------------------------------------===

  VLIWInst &instAt(size_t Index) {
    if (Result.Code.Insts.size() <= Index)
      Result.Code.Insts.resize(Index + 1);
    return Result.Code.Insts[Index];
  }

  /// Lowers one operation instance for iteration offset \p K of loop
  /// \p CurLoopId, guarded by \p Preds.
  MachOp lowerOp(const Operation &Op, int64_t K, unsigned CurLoopId,
                 const std::vector<PredTerm> &Preds);

  /// Appends \p Op at the cursor as its own instruction and advances past
  /// its latency so the next serial op can consume the result.
  void emitSerial(MachOp Op, unsigned Latency);

  PhysReg scratchInt();
  PhysReg emitIConst(int64_t V);
  PhysReg emitIBin(Opcode Opc, PhysReg A, PhysReg B);

  /// Appends a control-only instruction; returns its index for patching.
  size_t emitCtrl(ControlOp::Kind K, PhysReg Counter = {});
  void patchTarget(size_t Inst, size_t Target) {
    Result.Code.Insts[Inst].Ctrl.Target = static_cast<unsigned>(Target);
  }

  void emitAgu(size_t Inst, AguOp A) { instAt(Inst).Agu.push_back(A); }
  void padDrain() { Cursor = std::max(Cursor, Frontier) + Pad; }

  //===--- Region emission --------------------------------------------------===

  void emitStmtList(StmtList &List);
  void emitSegment(const std::vector<const Stmt *> &Stmts);
  void emitLoop(ForStmt &For);
  void emitOuterLoop(ForStmt &For);

  /// Emits the body once per backedge with period \p Period; the caller
  /// set up the counter, loop variable, and guards. Returns the index of
  /// the first loop instruction. A nonzero \p NodesPerCopy marks \p G as a
  /// copy-major unrolled graph: node r*NodesPerCopy + i is iteration
  /// offset r of original node i, so its operations fold r into register
  /// rotation and subscripts; \p AguStep is the loop-variable advance per
  /// backedge (the unroll degree).
  size_t emitUnpipelinedRun(const DepGraph &G, const Schedule &Sched,
                            int Period, unsigned LoopId, PhysReg Counter,
                            unsigned NodesPerCopy = 0, unsigned AguStep = 1);

  bool tryEmitPipelined(ForStmt &For, const std::vector<ScheduleUnit> &Units,
                        const DepGraph &PlainG, int UnpipelinedPeriod,
                        LoopReport &Report);

  /// Emits the loop's code on one rung of the degradation ladder (List,
  /// UnrolledList, or Sequential). Returns false — without emitting
  /// anything — when the register files cannot hold the rung's locals;
  /// the caller rolls back the scope and tries the next rung down.
  bool emitLadderRung(ForStmt &For, const DepGraph &PlainG,
                      const Schedule &LocalSched, int PlainPeriod,
                      ScheduleRung Rung, LoopReport &Report);

  /// Emits preheader operations (serially) for a prepared loop.
  void emitPreheader(const ForStmt &For);

  /// Trip count n = hi - lo + 1 as a scratch register (runtime bounds).
  PhysReg emitTripCount(const ForStmt &For);

  /// Local register allocation for an unpipelined loop: circular-arc
  /// sharing on the period. Returns false on file overflow.
  bool allocateUnpipelinedLocals(const ForStmt &For, const DepGraph &G,
                                 const Schedule &Sched, int Period);

  //===--- State -------------------------------------------------------------

  Program &P;
  const MachineDescription &MD;
  const CompilerOptions &Opts;
  DiagnosticEngine *Diags;
  CompileResult Result;
  RegAlloc RA;
  unsigned Pad;

  /// Next free instruction index for sequential emission.
  size_t Cursor = 0;
  /// High-water mark of scheduled placements (regions may place ops beyond
  /// the cursor).
  size_t Frontier = 0;

  std::map<const ForStmt *, LoopPrep> Preps;
  /// Innermost loop owning all accesses of a vreg; absent or null = global.
  std::map<unsigned, const ForStmt *> LocalTo;
  /// Live charge against CompilerOptions::Budget (engaged only when some
  /// ceiling is configured; the scheduler sees it via Sched.Budget).
  std::optional<BudgetTracker> BudgetStore;
  /// The tracker this compile charges: CompilerOptions::Tracker when the
  /// caller supplied one (async cancellation), else &*BudgetStore, else
  /// null (the scheduler then never consults a tracker at all).
  BudgetTracker *Budget = nullptr;

  bool Failed = false;
  std::string FirstError;

  void fail(const std::string &Msg) {
    if (Failed)
      return;
    Failed = true;
    FirstError = Msg;
  }

  /// Records independent-verifier findings under ParanoidVerify: each
  /// finding lands in the report, in the diagnostics engine when present,
  /// and fails the compilation. For findings on code that was never
  /// emitted, use recordRecoveredFindings instead. Returns true when
  /// \p VR had findings.
  bool recordVerifyFindings(const VerifyReport &VR, const std::string &What,
                            unsigned LoopId) {
    if (VR.ok())
      return false;
    for (const VerifyError &E : VR.Errors) {
      std::string Msg = "loop i" + std::to_string(LoopId) + " " + What +
                        ": " + E.str();
      Result.Report.VerifyErrors.push_back(Msg);
      if (Diags)
        Diags->error(SourceLoc{}, Msg);
    }
    fail("paranoid verify: " + Result.Report.VerifyErrors.front());
    return true;
  }

  /// Records findings the compiler recovered from: the rejected schedule
  /// was discarded before any code committed to it, and a lower ladder
  /// rung (itself verified) is emitted instead. The compile stays
  /// successful; the findings land in CompileReport::RecoveredErrors for
  /// observability. Returns true when \p VR had findings.
  bool recordRecoveredFindings(const VerifyReport &VR,
                               const std::string &What, unsigned LoopId) {
    if (VR.ok())
      return false;
    for (const VerifyError &E : VR.Errors)
      Result.Report.RecoveredErrors.push_back(
          "loop i" + std::to_string(LoopId) + " " + What + ": " + E.str());
    return true;
  }
};

//===----------------------------------------------------------------------===//
// Phase 0.
//===----------------------------------------------------------------------===//

void CompilerImpl::prepareAllLoops(StmtList &List) {
  for (StmtPtr &S : List) {
    if (auto *For = dyn_cast<ForStmt>(S.get())) {
      Preps[For] = prepareLoopForCodegen(P, *For);
      prepareAllLoops(For->Body);
    } else if (auto *If = dyn_cast<IfStmt>(S.get())) {
      prepareAllLoops(If->Then);
      prepareAllLoops(If->Else);
    }
  }
}

namespace access_walk {

/// Visits every register access with the innermost enclosing loop (null
/// outside all loops).
template <typename Fn>
void walk(const StmtList &List, const ForStmt *Inner, Fn &&F) {
  for (const StmtPtr &S : List) {
    if (const auto *Op = dyn_cast<OpStmt>(S.get())) {
      for (const VReg &R : Op->Op.Operands)
        F(R.Id, Inner);
      if (Op->Op.Mem.isValid() && Op->Op.Mem.Index.hasAddend())
        F(Op->Op.Mem.Index.Addend.Id, Inner);
      if (Op->Op.Def.isValid())
        F(Op->Op.Def.Id, Inner);
      continue;
    }
    if (const auto *If = dyn_cast<IfStmt>(S.get())) {
      F(If->Cond.Id, Inner);
      walk(If->Then, Inner, F);
      walk(If->Else, Inner, F);
      continue;
    }
    const auto *For = cast<ForStmt>(S.get());
    // Loop bounds are read by the loop header, outside the body.
    if (!For->Lo.IsImm)
      F(For->Lo.Reg.Id, Inner);
    if (!For->Hi.IsImm)
      F(For->Hi.Reg.Id, Inner);
    // The induction variable is initialized by the (emitted) preheader,
    // outside the body, so it is global by construction.
    F(For->IndVar.Id, Inner);
    walk(For->Body, isInnermost(*For) ? For : nullptr, F);
  }
}

} // namespace access_walk

void CompilerImpl::classifyAndAllocateGlobals() {
  // LocalTo[v] = the unique innermost loop containing every access, if any.
  std::map<unsigned, const ForStmt *> Owner;
  std::set<unsigned> Global;
  access_walk::walk(P.Body, nullptr, [&](unsigned Id, const ForStmt *Inner) {
    if (!Inner) {
      Global.insert(Id);
      return;
    }
    auto [It, New] = Owner.try_emplace(Id, Inner);
    if (!New && It->second != Inner)
      Global.insert(Id);
  });
  // Preheader operations run outside the loop and touch their defs.
  for (const auto &[For, Prep] : Preps)
    for (const Operation &Op : Prep.Preheader) {
      if (Op.Def.isValid())
        Global.insert(Op.Def.Id);
      for (const VReg &R : Op.Operands)
        Global.insert(R.Id);
    }

  for (const auto &[Id, Inner] : Owner)
    if (!Global.count(Id) && !P.vregInfo(VReg(Id)).IsLiveIn)
      LocalTo[Id] = Inner;

  for (unsigned Id = 0; Id != P.numVRegs(); ++Id) {
    const VRegInfo &Info = P.vregInfo(VReg(Id));
    bool Accessed = Owner.count(Id) || Global.count(Id) || Info.IsLiveIn;
    if (!Accessed || LocalTo.count(Id))
      continue;
    if (!RA.assignPermanent(Id, Info.RC)) {
      fail("register file overflow while allocating globals (register " +
           std::to_string(Id) + ")");
      return;
    }
    if (Info.IsLiveIn)
      Result.Code.LiveInRegs[Id] = RA.regFor(Id);
  }
}

//===----------------------------------------------------------------------===//
// Emission primitives.
//===----------------------------------------------------------------------===//

MachOp CompilerImpl::lowerOp(const Operation &Op, int64_t K,
                             unsigned CurLoopId,
                             const std::vector<PredTerm> &Preds) {
  assert(K >= 0 && "iteration offsets are nonnegative by construction");
  MachOp M;
  M.Opc = Op.Opc;
  if (Op.Def.isValid())
    M.Def = RA.regFor(Op.Def.Id, static_cast<unsigned>(K));
  unsigned NumVals = numValueOperands(Op.Opc);
  for (unsigned I = 0; I != NumVals; ++I)
    M.Uses.push_back(RA.regFor(Op.Operands[I].Id, static_cast<unsigned>(K)));
  if (Op.Mem.isValid()) {
    M.ArrayId = Op.Mem.ArrayId;
    M.Index = Op.Mem.Index;
    if (M.Index.hasAddend()) {
      M.AddendReg =
          RA.regFor(M.Index.Addend.Id, static_cast<unsigned>(K));
      M.Index.Addend = VReg();
    }
    M.Index.Const += M.Index.coefOf(CurLoopId) * K;
  }
  M.FImm = Op.FImm;
  M.IImm = Op.IImm;
  M.Queue = Op.Queue;
  for (const PredTerm &PT : Preds)
    M.Preds.push_back(
        {RA.regFor(PT.Cond.Id, static_cast<unsigned>(K)), PT.Negated});
  return M;
}

void CompilerImpl::emitSerial(MachOp Op, unsigned Latency) {
  instAt(Cursor).Ops.push_back(std::move(Op));
  Cursor += Latency;
  Frontier = std::max(Frontier, Cursor);
}

PhysReg CompilerImpl::scratchInt() {
  std::optional<PhysReg> R = RA.allocateScratch(RegClass::Int);
  if (!R) {
    fail("integer register file overflow in loop setup code");
    return PhysReg{RegClass::Int, 0};
  }
  return *R;
}

PhysReg CompilerImpl::emitIConst(int64_t V) {
  PhysReg R = scratchInt();
  MachOp M;
  M.Opc = Opcode::IConst;
  M.Def = R;
  M.IImm = V;
  emitSerial(std::move(M), MD.opcodeInfo(Opcode::IConst).Latency);
  return R;
}

PhysReg CompilerImpl::emitIBin(Opcode Opc, PhysReg A, PhysReg B) {
  PhysReg R = scratchInt();
  MachOp M;
  M.Opc = Opc;
  M.Def = R;
  M.Uses = {A, B};
  emitSerial(std::move(M), MD.opcodeInfo(Opc).Latency);
  return R;
}

size_t CompilerImpl::emitCtrl(ControlOp::Kind K, PhysReg Counter) {
  size_t Index = Cursor;
  VLIWInst &Inst = instAt(Index);
  assert(Inst.Ctrl.K == ControlOp::Kind::None &&
         "control slot already occupied");
  Inst.Ctrl.K = K;
  Inst.Ctrl.Counter = Counter;
  ++Cursor;
  Frontier = std::max(Frontier, Cursor);
  return Index;
}

//===----------------------------------------------------------------------===//
// Regions.
//===----------------------------------------------------------------------===//

void CompilerImpl::emitStmtList(StmtList &List) {
  std::vector<const Stmt *> Segment;
  auto Flush = [&] {
    if (Segment.empty())
      return;
    emitSegment(Segment);
    Segment.clear();
  };
  for (StmtPtr &S : List) {
    if (Failed)
      return;
    if (auto *For = dyn_cast<ForStmt>(S.get())) {
      Flush();
      emitLoop(*For);
      continue;
    }
    Segment.push_back(S.get());
  }
  Flush();
}

void CompilerImpl::emitSegment(const std::vector<const Stmt *> &Stmts) {
  // A fresh loop id that matches no subscript term: memory analysis then
  // requires full static equality, which is right for straight-line code.
  unsigned NoLoop = P.numLoops();
  std::vector<ScheduleUnit> Units = reduceStmtsToUnits(Stmts, MD, NoLoop);
  if (Units.empty())
    return;
  DDGBuildOptions BOpts;
  BOpts.CurrentLoopId = NoLoop;
  BOpts.NoAliasArrays = noAliasArrays(P);
  DepGraph G = buildLoopDepGraph(std::move(Units), MD, BOpts);
  Schedule Sched = listSchedule(G, MD);

  size_t Base = Cursor;
  for (unsigned I = 0; I != G.numNodes(); ++I)
    for (const UnitOp &UO : G.unit(I).ops()) {
      instAt(Base + Sched.startOf(I) + UO.Offset)
          .Ops.push_back(lowerOp(UO.Op, 0, NoLoop, UO.Preds));
      Frontier = std::max(Frontier, Base + Sched.startOf(I) + UO.Offset + 1);
    }
  Cursor = Base + Sched.issueLength();
  Frontier = std::max(Frontier, Cursor);
  padDrain();
}

void CompilerImpl::emitPreheader(const ForStmt &For) {
  auto It = Preps.find(&For);
  if (It == Preps.end())
    return;
  for (const Operation &Op : It->second.Preheader)
    emitSerial(lowerOp(Op, 0, P.numLoops(), {}),
               MD.opcodeInfo(Op.Opc).Latency);
}

PhysReg CompilerImpl::emitTripCount(const ForStmt &For) {
  assert(!For.staticTripCount() && "static trip counts are folded");
  // n = hi - (lo - 1).
  PhysReg Hi;
  if (For.Hi.IsImm)
    Hi = emitIConst(For.Hi.Imm);
  else
    Hi = RA.regFor(For.Hi.Reg.Id);
  PhysReg LoMinus1;
  if (For.Lo.IsImm) {
    LoMinus1 = emitIConst(For.Lo.Imm - 1);
  } else {
    PhysReg One = emitIConst(1);
    LoMinus1 = emitIBin(Opcode::ISub, RA.regFor(For.Lo.Reg.Id), One);
  }
  return emitIBin(Opcode::ISub, Hi, LoMinus1);
}

size_t CompilerImpl::emitUnpipelinedRun(const DepGraph &G,
                                        const Schedule &Sched, int Period,
                                        unsigned LoopId, PhysReg Counter,
                                        unsigned NodesPerCopy,
                                        unsigned AguStep) {
  size_t Base = Cursor;
  for (unsigned I = 0; I != G.numNodes(); ++I) {
    int64_t K = NodesPerCopy ? I / NodesPerCopy : 0;
    for (const UnitOp &UO : G.unit(I).ops())
      instAt(Base + Sched.startOf(I) + UO.Offset)
          .Ops.push_back(lowerOp(UO.Op, K, LoopId, UO.Preds));
  }
  size_t Last = Base + Period - 1;
  VLIWInst &Tail = instAt(Last);
  assert(Tail.Ctrl.K == ControlOp::Kind::None && "control slot collision");
  Tail.Ctrl.K = ControlOp::Kind::DecJumpPos;
  Tail.Ctrl.Counter = Counter;
  Tail.Ctrl.Target = static_cast<unsigned>(Base);
  Tail.Agu.push_back(AguOp{LoopId, /*Relative=*/true, PhysReg{}, AguStep});
  Cursor = Last + 1;
  Frontier = std::max(Frontier, Cursor);
  return Base;
}

bool CompilerImpl::allocateUnpipelinedLocals(const ForStmt &For,
                                             const DepGraph &G,
                                             const Schedule &Sched,
                                             int Period) {
  // Occupancy arcs: [first def issue, max(last read, last def commit)],
  // on the circle of length Period.
  struct Arc {
    unsigned Id;
    RegClass RC;
    int64_t Start, End;
  };
  std::map<unsigned, Arc> Arcs;
  for (unsigned I = 0; I != G.numNodes(); ++I) {
    int64_t T = Sched.startOf(I);
    for (const ScheduleUnit::RegWrite &W : G.unit(I).writes()) {
      auto LocalIt = LocalTo.find(W.R.Id);
      if (LocalIt == LocalTo.end() || LocalIt->second != &For)
        continue;
      Arc &A = Arcs
                    .try_emplace(W.R.Id, Arc{W.R.Id, P.vregInfo(W.R).RC,
                                             T + W.Offset, T + W.Offset})
                    .first->second;
      A.Start = std::min(A.Start, T + W.Offset);
      A.End = std::max(A.End, T + W.Offset + W.Latency);
    }
    for (const ScheduleUnit::RegRead &R : G.unit(I).reads()) {
      auto LocalIt = LocalTo.find(R.R.Id);
      if (LocalIt == LocalTo.end() || LocalIt->second != &For)
        continue;
      auto It = Arcs.find(R.R.Id);
      if (It == Arcs.end())
        continue; // Read-only local: impossible, but be safe.
      It->second.End = std::max(It->second.End, T + R.Offset);
    }
  }

  // Pool registers with per-cycle occupancy bitmaps.
  struct Pool {
    PhysReg R;
    std::vector<bool> Busy;
  };
  std::vector<Pool> Pools[2];
  auto FileOf = [](RegClass RC) { return RC == RegClass::Float ? 0 : 1; };

  // Longer arcs first gives a better packing.
  std::vector<Arc> Order;
  for (auto &[Id, A] : Arcs)
    Order.push_back(A);
  std::sort(Order.begin(), Order.end(), [](const Arc &A, const Arc &B) {
    return (A.End - A.Start) > (B.End - B.Start) ||
           ((A.End - A.Start) == (B.End - B.Start) && A.Id < B.Id);
  });

  for (const Arc &A : Order) {
    int64_t Len = A.End - A.Start + 1;
    if (Len >= Period) {
      // Alive the whole iteration: exclusive register.
      if (!RA.assignLocal(A.Id, A.RC, 1))
        return false;
      continue;
    }
    std::vector<unsigned> Cells;
    for (int64_t C = A.Start; C <= A.End; ++C) {
      int64_t W = C % Period;
      Cells.push_back(static_cast<unsigned>(W < 0 ? W + Period : W));
    }
    bool Placed = false;
    for (Pool &Pl : Pools[FileOf(A.RC)]) {
      bool Clash = false;
      for (unsigned C : Cells)
        if (Pl.Busy[C]) {
          Clash = true;
          break;
        }
      if (Clash)
        continue;
      for (unsigned C : Cells)
        Pl.Busy[C] = true;
      RA.aliasLocal(A.Id, Pl.R);
      Placed = true;
      break;
    }
    if (Placed)
      continue;
    std::optional<PhysReg> Fresh = RA.allocateScratch(A.RC);
    if (!Fresh)
      return false;
    Pool Pl{*Fresh, std::vector<bool>(Period, false)};
    for (unsigned C : Cells)
      Pl.Busy[C] = true;
    RA.aliasLocal(A.Id, Pl.R);
    Pools[FileOf(A.RC)].push_back(std::move(Pl));
  }
  return true;
}

void CompilerImpl::emitOuterLoop(ForStmt &For) {
  RA.beginScope();
  emitPreheader(For);

  std::optional<int64_t> StaticN = For.staticTripCount();
  if (StaticN && *StaticN <= 0) {
    RA.endScope();
    return;
  }

  PhysReg Counter;
  size_t GuardInst = SIZE_MAX;
  if (StaticN) {
    Counter = emitIConst(*StaticN);
  } else {
    PhysReg N = emitTripCount(For);
    PhysReg Zero = emitIConst(0);
    PhysReg Pos = emitIBin(Opcode::ICmpLT, Zero, N);
    GuardInst = emitCtrl(ControlOp::Kind::JumpIfZero, Pos);
    Counter = N;
  }

  // Initialize the loop variable.
  {
    size_t At = Cursor;
    (void)instAt(At);
    AguOp Init;
    Init.LoopId = For.LoopId;
    Init.Relative = false;
    if (For.Lo.IsImm) {
      Init.Imm = For.Lo.Imm;
    } else {
      Init.A = RA.regFor(For.Lo.Reg.Id);
    }
    emitAgu(At, Init);
    ++Cursor;
    Frontier = std::max(Frontier, Cursor);
  }

  size_t LoopStart = Cursor;
  emitStmtList(For.Body);
  if (Failed) {
    RA.endScope();
    return;
  }
  // Backedge instruction: decrement, advance the loop variable, loop.
  size_t Back = emitCtrl(ControlOp::Kind::DecJumpPos, Counter);
  patchTarget(Back, LoopStart);
  emitAgu(Back, AguOp{For.LoopId, /*Relative=*/true, PhysReg{}, 1});

  if (GuardInst != SIZE_MAX)
    patchTarget(GuardInst, Cursor);
  padDrain();
  RA.endScope();
}

void CompilerImpl::emitLoop(ForStmt &For) {
  if (!isInnermost(For)) {
    emitOuterLoop(For);
    return;
  }

  SWP_TRACE_SPAN(LoopSpan, "compileLoop");

  LoopReport Report;
  Report.LoopId = For.LoopId;
  auto FinishLoopSpan = [&] {
    if (!LoopSpan.active())
      return;
    std::string A = "\"loop\": " + std::to_string(Report.LoopId) +
                    ", \"units\": " + std::to_string(Report.NumUnits) +
                    ", \"decision\": \"" + decisionText(Report.Decision) +
                    "\"";
    if (Report.Cause != FallbackCause::None)
      A += std::string(", \"cause\": \"") + fallbackCauseText(Report.Cause) +
           "\"";
    if (Report.pipelined())
      A += ", \"ii\": " + std::to_string(Report.II) +
           ", \"stages\": " + std::to_string(Report.Stages) +
           ", \"unroll\": " + std::to_string(Report.Unroll);
    LoopSpan.args(std::move(A));
  };

  std::vector<ScheduleUnit> Units =
      reduceBodyToUnits(For.Body, MD, For.LoopId);
  Report.NumUnits = Units.size();
  Report.HasConditionals = bodyHasConditionals(For.Body);
  if (Units.empty()) {
    FinishLoopSpan();
    Result.Report.Loops.push_back(Report);
    return;
  }

  // Plain (unexpanded) graph: drives the unpipelined fallback and the
  // policy thresholds.
  DDGBuildOptions PlainOpts;
  PlainOpts.CurrentLoopId = For.LoopId;
  PlainOpts.NoAliasArrays = noAliasArrays(P);
  DepGraph PlainG = buildLoopDepGraph(Units, MD, PlainOpts);
  Schedule LocalSched = listSchedule(PlainG, MD);
  int Period = std::max(unpipelinedPeriod(PlainG, LocalSched),
                        LocalSched.spanLength(PlainG));
  Report.UnpipelinedLen = Period;
  for (const auto &Comp : PlainG.stronglyConnectedComponents())
    if (Comp.size() > 1)
      Report.HasRecurrence = true;
  for (const DepEdge &E : PlainG.edges())
    if (E.Src == E.Dst && E.Kind == DepKind::Flow)
      Report.HasRecurrence = true;

  RA.beginScope();
  bool Pipelined = false;
  if (Opts.MinLadderRung > 0) {
    // Testing knob: force the loop straight onto a lower ladder rung so
    // every rung can be proven end-to-end.
    Report.Decision = PipelineDecision::Degraded;
  } else if (!Opts.EnablePipelining) {
    Report.Decision = PipelineDecision::Skipped;
    Report.Cause = FallbackCause::PipeliningDisabled;
  } else if (static_cast<unsigned>(Period) > Opts.MaxLoopLenToPipeline) {
    Report.Decision = PipelineDecision::Skipped;
    Report.Cause = FallbackCause::BodyTooLong;
  } else if (!Opts.PipelineConditionalLoops && Report.HasConditionals) {
    Report.Decision = PipelineDecision::Skipped;
    Report.Cause = FallbackCause::ConditionalsExcluded;
  } else {
    // tryEmitPipelined refines Decision/Cause to Pipelined, Fallback, or
    // Degraded (the compile budget tripped mid-search).
    Pipelined = tryEmitPipelined(For, Units, PlainG, Period, Report);
    if (!Pipelined) {
      // Roll back any local register assignments the attempt made.
      RA.endScope();
      RA.beginScope();
    }
  }

  if (!Pipelined && !Failed) {
    // Walk down the degradation ladder until a rung's locals fit the
    // register files. The normal fallback is the locally compacted list
    // schedule; a budget-exhausted (or rung-forced) loop starts at the
    // cheap unrolled list schedule instead; the sequential rung is the
    // last resort with minimal concurrent lifetimes.
    bool Degrading = Opts.MinLadderRung > 0 ||
                     Report.Cause == FallbackCause::BudgetExhausted;
    std::vector<ScheduleRung> Ladder;
    if (Opts.MinLadderRung >= 2)
      Ladder = {ScheduleRung::Sequential};
    else if (Degrading)
      Ladder = {ScheduleRung::UnrolledList, ScheduleRung::Sequential};
    else
      Ladder = {ScheduleRung::List, ScheduleRung::Sequential};
    if (Degrading)
      Report.Decision = PipelineDecision::Degraded;

    bool Emitted = false;
    for (size_t RI = 0; RI != Ladder.size() && !Failed; ++RI) {
      if (RI != 0) {
        // The previous rung did not fit; dropping below it is itself a
        // degradation worth reporting.
        Report.Decision = PipelineDecision::Degraded;
        if (Report.Cause == FallbackCause::None)
          Report.Cause = FallbackCause::RegisterPressure;
      }
      if (emitLadderRung(For, PlainG, LocalSched, Period, Ladder[RI],
                         Report)) {
        Emitted = true;
        break;
      }
      RA.endScope();
      RA.beginScope();
    }
    if (!Emitted && !Failed)
      fail("register file overflow in unpipelined loop i" +
           std::to_string(For.LoopId));
  }
  RA.endScope();
  FinishLoopSpan();
  Result.Report.Loops.push_back(Report);
}

bool CompilerImpl::emitLadderRung(ForStmt &For, const DepGraph &PlainG,
                                  const Schedule &LocalSched,
                                  int PlainPeriod, ScheduleRung Rung,
                                  LoopReport &Report) {
  // Resolve the rung's graph, schedule, and period. List reuses the
  // locally compacted schedule; UnrolledList list-schedules two manually
  // folded copies of the body together (cross-iteration overlap without
  // any II search); Sequential runs one unit at a time in program order,
  // the minimal-lifetime last resort.
  const unsigned U = Rung == ScheduleRung::UnrolledList ? 2u : 1u;
  std::optional<DepGraph> UnrolledG;
  std::optional<Schedule> OwnSched;
  const DepGraph *G = &PlainG;
  const Schedule *Sched = &LocalSched;
  int Period = PlainPeriod;
  if (Rung == ScheduleRung::UnrolledList) {
    UnrolledG.emplace(unrollDepGraph(PlainG, U));
    OwnSched.emplace(listSchedule(*UnrolledG, MD));
    G = &*UnrolledG;
    Sched = &*OwnSched;
    Period = std::max(unpipelinedPeriod(*G, *Sched), Sched->spanLength(*G));
  } else if (Rung == ScheduleRung::Sequential) {
    // One unit at a time in program order, spaced far enough apart that
    // every same-iteration dependence delay is honored (issue length
    // alone is not enough: a producer's result latency can exceed the
    // slots it occupies). Same-iteration edges always point forward in
    // program order, so a single pass computes the earliest legal start;
    // carried edges are covered by unpipelinedPeriod below.
    Schedule Seq(PlainG.numNodes());
    std::vector<int64_t> Earliest(PlainG.numNodes(), 0);
    int64_t T = 0;
    for (unsigned I = 0; I != PlainG.numNodes(); ++I) {
      T = std::max(T, Earliest[I]);
      Seq.setStart(I, static_cast<int>(T));
      for (unsigned EI : PlainG.succs(I)) {
        const DepEdge &E = PlainG.edges()[EI];
        if (E.Omega == 0 && E.Dst > I)
          Earliest[E.Dst] =
              std::max(Earliest[E.Dst], T + std::max(0, E.Delay));
      }
      T += std::max(1, PlainG.unit(I).length());
    }
    OwnSched.emplace(std::move(Seq));
    Sched = &*OwnSched;
    Period = std::max(unpipelinedPeriod(PlainG, *Sched),
                      Sched->spanLength(PlainG));
  }

  // Register allocation. List keeps the circular-arc sharing with the
  // period-doubling rescue; the unrolled rung gives every local an
  // exclusive register, which stays safe across the plain remainder run
  // it also emits (sharing arcs computed on one schedule would not be).
  int AllocPeriod = Period;
  if (Rung == ScheduleRung::UnrolledList) {
    for (const auto &[Id, Loop] : LocalTo) {
      if (Loop != &For)
        continue;
      if (!RA.assignLocal(Id, P.vregInfo(VReg(Id)).RC, 1))
        return false;
    }
  } else {
    bool LocalsOk = false;
    for (int Attempt = 0; Attempt != 4 && !LocalsOk; ++Attempt) {
      if (allocateUnpipelinedLocals(For, *G, *Sched, AllocPeriod)) {
        LocalsOk = true;
        break;
      }
      RA.endScope();
      RA.beginScope();
      AllocPeriod *= 2;
    }
    if (!LocalsOk)
      return false;
  }

  if (Opts.ParanoidVerify) {
    // Every rung is re-checked by the independent verifier before code
    // commits to it; at a period covering the whole span the modulo
    // resource fold is the identity, so this is the plain precedence and
    // reservation check.
    VerifyReport VR = verifyModuloSchedule(*G, *Sched,
                                           static_cast<unsigned>(AllocPeriod),
                                           MD);
    if (recordVerifyFindings(
            VR, std::string(scheduleRungText(Rung)) + " rung schedule",
            For.LoopId))
      return true; // Failed is latched; no rung below can help.
  }

  Report.UnpipelinedLen = AllocPeriod;
  Report.Rung = Rung;
  if (Rung == ScheduleRung::UnrolledList)
    Report.Unroll = U;

  emitPreheader(For);
  std::optional<int64_t> StaticN = For.staticTripCount();
  size_t LoopInstsBegin = Cursor;

  auto EmitLoopVarInit = [&] {
    size_t At = Cursor;
    (void)instAt(At);
    AguOp Init;
    Init.LoopId = For.LoopId;
    Init.Relative = false;
    if (For.Lo.IsImm)
      Init.Imm = For.Lo.Imm;
    else
      Init.A = RA.regFor(For.Lo.Reg.Id);
    emitAgu(At, Init);
    ++Cursor;
    Frontier = std::max(Frontier, Cursor);
  };

  if (!(StaticN && *StaticN <= 0)) {
    if (U == 1) {
      PhysReg Counter;
      size_t GuardInst = SIZE_MAX;
      if (StaticN) {
        Counter = emitIConst(*StaticN);
      } else {
        PhysReg N = emitTripCount(For);
        PhysReg Zero = emitIConst(0);
        PhysReg Pos = emitIBin(Opcode::ICmpLT, Zero, N);
        GuardInst = emitCtrl(ControlOp::Kind::JumpIfZero, Pos);
        Counter = N;
      }
      EmitLoopVarInit();
      emitUnpipelinedRun(*G, *Sched, AllocPeriod, For.LoopId, Counter);
      if (GuardInst != SIZE_MAX)
        patchTarget(GuardInst, Cursor);
    } else if (StaticN) {
      // n = U*k + rem: rem plain iterations, then k unrolled runs. The
      // remainder runs first so the unrolled body's backedge can advance
      // the loop variable by a constant U every time.
      int64_t N = *StaticN;
      int64_t Rem = N % U;
      int64_t Kp = N / U;
      EmitLoopVarInit();
      if (Rem > 0)
        emitUnpipelinedRun(PlainG, LocalSched, PlainPeriod, For.LoopId,
                           emitIConst(Rem));
      if (Kp > 0)
        emitUnpipelinedRun(*G, *Sched, AllocPeriod, For.LoopId,
                           emitIConst(Kp), PlainG.numNodes(), U);
    } else {
      // Runtime trip count: both counts guarded (n <= 0 runs nothing —
      // truncating div/mod keep both nonpositive then).
      PhysReg N = emitTripCount(For);
      PhysReg UC = emitIConst(U);
      PhysReg Rem = emitIBin(Opcode::IMod, N, UC);
      PhysReg Kp = emitIBin(Opcode::IDiv, N, UC);
      EmitLoopVarInit();
      PhysReg Zero = emitIConst(0);
      PhysReg PosRem = emitIBin(Opcode::ICmpLT, Zero, Rem);
      size_t SkipRem = emitCtrl(ControlOp::Kind::JumpIfZero, PosRem);
      emitUnpipelinedRun(PlainG, LocalSched, PlainPeriod, For.LoopId, Rem);
      patchTarget(SkipRem, Cursor);
      PhysReg PosKp = emitIBin(Opcode::ICmpLT, Zero, Kp);
      size_t SkipMain = emitCtrl(ControlOp::Kind::JumpIfZero, PosKp);
      emitUnpipelinedRun(*G, *Sched, AllocPeriod, For.LoopId, Kp,
                         PlainG.numNodes(), U);
      patchTarget(SkipMain, Cursor);
    }
  }
  Report.TotalLoopInsts = static_cast<unsigned>(Cursor - LoopInstsBegin);
  padDrain();
  return true;
}

bool CompilerImpl::tryEmitPipelined(ForStmt &For,
                                    const std::vector<ScheduleUnit> &Units,
                                    const DepGraph &PlainG,
                                    int UnpipelinedPeriod,
                                    LoopReport &Report) {
  // Chaos: allocation failure entering the pipeline attempt. Propagates
  // to compileProgram, which turns it into a structured compile failure.
  if (faults::shouldFire(faults::Site::OomAllocation))
    throw std::bad_alloc();

  // Eligibility for modulo variable expansion.
  std::set<unsigned> LiveOut = liveOutRegs(P, For);
  std::set<unsigned> Eligible;
  if (Opts.MVE != MVEPolicy::Disabled) {
    Eligible = mveEligibleRegs(Units, LiveOut, P);
    // Registers shared with other regions cannot rotate.
    for (auto It = Eligible.begin(); It != Eligible.end();) {
      auto LocalIt = LocalTo.find(*It);
      if (LocalIt == LocalTo.end() || LocalIt->second != &For)
        It = Eligible.erase(It);
      else
        ++It;
    }
  }

  DDGBuildOptions BOpts;
  BOpts.CurrentLoopId = For.LoopId;
  BOpts.ExpandedRegs = Eligible;
  BOpts.NoAliasArrays = noAliasArrays(P);
  DepGraph G = buildLoopDepGraph(Units, MD, BOpts);

  ModuloScheduleOptions SOpts = Opts.Sched;
  if (SOpts.MaxII == 0)
    SOpts.MaxII = static_cast<unsigned>(UnpipelinedPeriod);
  if (Budget)
    SOpts.Budget = Budget;
  ModuloScheduleResult MS = moduloSchedule(G, MD, SOpts);
  Report.Decision = PipelineDecision::Fallback;
  Report.MII = MS.MII;
  Report.ResMII = MS.ResMII;
  Report.RecMII = MS.RecMII;
  Report.TriedIntervals = MS.TriedIntervals;
  Report.Stats = MS.Stats;
  // A recurrence that matters is one that survives variable expansion and
  // actually bounds the interval (the plain graph calls every reused
  // temporary a cycle).
  Report.HasRecurrence = MS.RecMII > 1;
  if (MS.BudgetExhausted && !MS.Success) {
    // The budget tripped before the search finished: degrade rather than
    // spend more time; emitLoop starts the ladder at UnrolledList.
    Report.Decision = PipelineDecision::Degraded;
    Report.Cause = FallbackCause::BudgetExhausted;
    return false;
  }
  if (static_cast<double>(MS.MII) >=
      Opts.EfficiencyThreshold * UnpipelinedPeriod) {
    Report.Cause = FallbackCause::EfficiencyThreshold;
    return false;
  }
  if (!MS.Success) {
    Report.Cause = FallbackCause::NoSchedule;
    return false;
  }
  if (MS.II >= static_cast<unsigned>(UnpipelinedPeriod)) {
    Report.Cause = FallbackCause::IINotBetter;
    return false;
  }

  MVEPlan Plan = planModuloVariableExpansion(Units, MS.Sched, MS.II,
                                             Eligible, Opts.MVE);
  if (Opts.MVE == MVEPolicy::MinRegisters && Plan.Unroll > Opts.MaxUnroll)
    Plan = planModuloVariableExpansion(Units, MS.Sched, MS.II, Eligible,
                                       MVEPolicy::MinCodeSize);

  if (Opts.ParanoidVerify) {
    // Chaos: perturb the schedule the verifier is about to re-check. A
    // perturbation the verifier proves harmless may be emitted; any other
    // must be caught here, before code commits to it.
    if (faults::shouldFire(faults::Site::CorruptSchedule))
      MS.Sched.setStart(0, MS.Sched.startOf(0) + 1);
    // Re-check the schedule and the expansion plan with the independent
    // verifier before committing any code to them. A finding at this
    // point is recoverable — nothing was emitted yet — so the schedule is
    // discarded and the loop falls back to a verified lower rung.
    VerifyReport VR = verifyModuloSchedule(G, MS.Sched, MS.II, MD,
                                           SOpts.MaxStages);
    VR.merge(verifyMVEPlan(Units, MS.Sched, MS.II, Plan, Eligible));
    if (recordRecoveredFindings(VR, "modulo schedule", For.LoopId)) {
      Report.Cause = FallbackCause::VerifyFailed;
      return false;
    }
  }

  // Exclusive local registers: expanded regs take their copy sets; other
  // locals take one register each.
  std::set<unsigned> Locals;
  for (const auto &[Id, Loop] : LocalTo)
    if (Loop == &For)
      Locals.insert(Id);
  for (unsigned Id : Locals) {
    unsigned Copies = Plan.copiesOf(Id);
    if (!RA.assignLocal(Id, P.vregInfo(VReg(Id)).RC, Copies)) {
      Report.Cause = FallbackCause::RegisterPressure;
      return false;
    }
  }

  unsigned S = MS.II;
  // Flatten (unit, member-op) pairs to stages and rows.
  struct FlatOp {
    const UnitOp *UO;
    unsigned Stage;
    unsigned Row;
  };
  std::vector<FlatOp> Flat;
  int64_t MaxIssue = 0;
  for (unsigned I = 0; I != G.numNodes(); ++I)
    for (const UnitOp &UO : G.unit(I).ops()) {
      int64_t Abs = MS.Sched.startOf(I) + UO.Offset;
      assert(Abs >= 0 && "schedule times are normalized to be nonnegative");
      Flat.push_back({&UO, static_cast<unsigned>(Abs / S),
                      static_cast<unsigned>(Abs % S)});
      MaxIssue = std::max(MaxIssue, Abs);
    }
  unsigned M = static_cast<unsigned>(MaxIssue / S) + 1; // Stage count.
  unsigned U = Plan.Unroll;
  Report.Decision = PipelineDecision::Pipelined;
  Report.Rung = ScheduleRung::Modulo;
  Report.Cause = FallbackCause::None;
  Report.II = S;
  Report.Stages = M;
  Report.Unroll = U;
  Report.KernelUtil = scheduleUtilization(G, MS.Sched, S, MD);
  if (Opts.Explain) {
    std::ostringstream ExplainOS;
    ExplainOS << "loop i" << For.LoopId << ": II=" << S << " stages=" << M
              << " unroll=" << U << " (MII=" << MS.MII
              << " res=" << MS.ResMII << " rec=" << MS.RecMII << ")\n"
              << "flat schedule (one iteration):\n"
              << scheduleToString(G, MS.Sched, S)
              << "modulo reservation table (II=" << S << "):\n"
              << moduloTableToString(G, MS.Sched, S, MD);
    Report.KernelUtil.print(ExplainOS);
    Report.ExplainText = ExplainOS.str();
  }

  std::optional<int64_t> StaticN = For.staticTripCount();
  int64_t Threshold = static_cast<int64_t>(M - 1) + U;

  emitPreheader(For);
  size_t LoopInstsBegin = Cursor;

  // Locally compacted version for the remainder and for short trip counts.
  Schedule LocalSched = listSchedule(PlainG, MD);
  int Period = std::max(unpipelinedPeriod(PlainG, LocalSched),
                        LocalSched.spanLength(PlainG));

  auto EmitLoopVarInit = [&] {
    size_t At = Cursor;
    (void)instAt(At);
    AguOp Init;
    Init.LoopId = For.LoopId;
    Init.Relative = false;
    if (For.Lo.IsImm)
      Init.Imm = For.Lo.Imm;
    else
      Init.A = RA.regFor(For.Lo.Reg.Id);
    emitAgu(At, Init);
    ++Cursor;
    Frontier = std::max(Frontier, Cursor);
  };

  auto EmitPipelinedBody = [&](PhysReg KernelCounter) {
    size_t Base = Cursor;
    // Prolog: windows 0..M-2.
    for (unsigned W = 0; W + 1 < M; ++W)
      for (const FlatOp &F : Flat) {
        if (F.Stage > W)
          continue;
        int64_t K = static_cast<int64_t>(W) - F.Stage;
        instAt(Base + static_cast<size_t>(W) * S + F.Row)
            .Ops.push_back(
                lowerOp(F.UO->Op, K, For.LoopId, F.UO->Preds));
      }
    size_t KernelBase = Base + static_cast<size_t>(M - 1) * S;
    // Kernel: U unrolled windows.
    for (unsigned R = 0; R != U; ++R)
      for (const FlatOp &F : Flat) {
        int64_t K = static_cast<int64_t>(M - 1) + R - F.Stage;
        instAt(KernelBase + static_cast<size_t>(R) * S + F.Row)
            .Ops.push_back(
                lowerOp(F.UO->Op, K, For.LoopId, F.UO->Preds));
      }
    size_t KernelLast = KernelBase + static_cast<size_t>(U) * S - 1;
    VLIWInst &Back = instAt(KernelLast);
    assert(Back.Ctrl.K == ControlOp::Kind::None && "control slot collision");
    Back.Ctrl.K = ControlOp::Kind::DecJumpPos;
    Back.Ctrl.Counter = KernelCounter;
    Back.Ctrl.Target = static_cast<unsigned>(KernelBase);
    Back.Agu.push_back(
        AguOp{For.LoopId, /*Relative=*/true, PhysReg{}, U});
    Report.KernelInsts = static_cast<unsigned>(U) * S;
    // Epilog: windows 0..M-2, draining stages.
    size_t EpilogBase = KernelLast + 1;
    for (unsigned E = 0; E + 1 < M; ++E)
      for (const FlatOp &F : Flat) {
        if (F.Stage < E + 1)
          continue;
        int64_t K = static_cast<int64_t>(M - 1) + E - F.Stage;
        instAt(EpilogBase + static_cast<size_t>(E) * S + F.Row)
            .Ops.push_back(
                lowerOp(F.UO->Op, K, For.LoopId, F.UO->Preds));
      }
    Cursor = EpilogBase + static_cast<size_t>(M - 1) * S;
    // The epilog may be empty (M == 1); keep the cursor past the kernel.
    Cursor = std::max(Cursor, KernelLast + 1);
    Frontier = std::max(Frontier, Cursor);
    Report.Region = {Base, KernelBase, EpilogBase, Cursor};

    if (Opts.ParanoidVerify) {
      // The region is fully emitted; re-derive its structure from the
      // schedule and compare against the instructions actually in Code.
      // Trailing epilog rows with no operations are created lazily, so
      // materialize the whole region before handing it to the verifier.
      if (Cursor > 0)
        (void)instAt(Cursor - 1);
      // Chaos: corrupt the emitted kernel (duplicate its first operation)
      // so the emission check below must catch it — the code is already
      // committed, so this one is a structured compile failure, not a
      // recoverable fallback.
      if (faults::shouldFire(faults::Site::CorruptEmission)) {
        for (size_t I = KernelBase; I <= KernelLast; ++I)
          if (!Result.Code.Insts[I].Ops.empty()) {
            Result.Code.Insts[I].Ops.push_back(
                Result.Code.Insts[I].Ops.front());
            break;
          }
      }
      PipelinedLoopLayout L;
      L.PrologBase = Base;
      L.II = S;
      L.Stages = M;
      L.Unroll = U;
      L.LoopId = For.LoopId;
      recordVerifyFindings(verifyPipelinedLoop(Result.Code, L, G, MS.Sched),
                           "emitted pipelined loop", For.LoopId);
    }
  };

  if (StaticN) {
    int64_t N = *StaticN;
    if (N <= 0) {
      Report.Decision = PipelineDecision::Fallback;
      Report.Cause = FallbackCause::ZeroTrip;
      Report.Rung = ScheduleRung::None;
      Report.TotalLoopInsts = 0;
      padDrain();
      return true;
    }
    if (N < Threshold) {
      // Too short to fill the pipeline: run everything unpipelined.
      Report.Decision = PipelineDecision::Fallback;
      Report.Cause = FallbackCause::ShortTripCount;
      Report.Rung = ScheduleRung::List;
      PhysReg Counter = emitIConst(N);
      EmitLoopVarInit();
      emitUnpipelinedRun(PlainG, LocalSched, Period, For.LoopId, Counter);
      Report.TotalLoopInsts = Cursor - LoopInstsBegin;
      padDrain();
      return true;
    }
    int64_t T1 = N - (M - 1);
    int64_t Rem = T1 % U;
    int64_t Kp = T1 / U;
    EmitLoopVarInit();
    if (Rem > 0) {
      PhysReg Counter = emitIConst(Rem);
      emitUnpipelinedRun(PlainG, LocalSched, Period, For.LoopId, Counter);
    }
    PhysReg KernelCounter = emitIConst(Kp);
    EmitPipelinedBody(KernelCounter);
    Report.TotalLoopInsts = Cursor - LoopInstsBegin;
    padDrain();
    return true;
  }

  // Runtime trip count: full dual-version dispatch.
  PhysReg N = emitTripCount(For);
  PhysReg Mm1C = emitIConst(M - 1);
  PhysReg UC = emitIConst(U);
  PhysReg T1 = emitIBin(Opcode::ISub, N, Mm1C);
  PhysReg Small = emitIBin(Opcode::ICmpLT, T1, UC);
  PhysReg Big = scratchInt();
  {
    MachOp Not;
    Not.Opc = Opcode::INot;
    Not.Def = Big;
    Not.Uses = {Small};
    emitSerial(std::move(Not), MD.opcodeInfo(Opcode::INot).Latency);
  }
  // Both versions compare against zero, so define it ahead of the
  // dispatch branch.
  PhysReg Zero = emitIConst(0);
  size_t ToUnpipelined = emitCtrl(ControlOp::Kind::JumpIfZero, Big);

  PhysReg Rem = emitIBin(Opcode::IMod, T1, UC);
  PhysReg Kp = emitIBin(Opcode::IDiv, T1, UC);
  EmitLoopVarInit();
  PhysReg PosRem = emitIBin(Opcode::ICmpLT, Zero, Rem);
  size_t SkipRem = emitCtrl(ControlOp::Kind::JumpIfZero, PosRem);
  emitUnpipelinedRun(PlainG, LocalSched, Period, For.LoopId, Rem);
  patchTarget(SkipRem, Cursor);
  EmitPipelinedBody(Kp);
  size_t ToDone = emitCtrl(ControlOp::Kind::Jump);

  // Unpipelined-everything version (n < m-1+u, possibly n <= 0).
  patchTarget(ToUnpipelined, Cursor);
  PhysReg PosN = emitIBin(Opcode::ICmpLT, Zero, N);
  size_t SkipAll = emitCtrl(ControlOp::Kind::JumpIfZero, PosN);
  EmitLoopVarInit();
  emitUnpipelinedRun(PlainG, LocalSched, Period, For.LoopId, N);
  patchTarget(SkipAll, Cursor);
  patchTarget(ToDone, Cursor);
  Report.TotalLoopInsts = Cursor - LoopInstsBegin;
  padDrain();
  return true;
}

//===----------------------------------------------------------------------===//
// Driver.
//===----------------------------------------------------------------------===//

CompileResult CompilerImpl::run() {
  expandLibraryOps(P);
  if (Opts.ScalarOptimizations) {
    // To a joint fixpoint: value numbering creates moves DCE sweeps, DCE
    // exposes hoists (dead guards vanish), and hoisting exposes further
    // redundancies.
    while (eliminateDeadCode(P) + hoistLoopInvariants(P) +
               localValueNumbering(P) !=
           0) {
    }
  }
  prepareAllLoops(P.Body);
  classifyAndAllocateGlobals();
  if (!Failed)
    emitStmtList(P.Body);
  Result.Report.ParanoidVerified = Opts.ParanoidVerify;
  if (Budget)
    Result.Report.BudgetTripped = Budget->cause();
  for (const LoopReport &L : Result.Report.Loops)
    if (L.attempted())
      Result.Report.SchedTotals.merge(L.Stats);
  if (!Failed) {
    Cursor = std::max(Cursor, Frontier);
    emitCtrl(ControlOp::Kind::Halt);
    Result.Ok = true;
    Result.Code.FloatRegsUsed = RA.highWater(RegClass::Float);
    Result.Code.IntRegsUsed = RA.highWater(RegClass::Int);
  } else {
    Result.Ok = false;
    Result.Error = FirstError;
    if (Diags && Result.Report.VerifyErrors.empty())
      Diags->error(SourceLoc{}, FirstError);
  }
  return std::move(Result);
}

} // namespace

const char *swp::optionErrorKindText(OptionErrorKind K) {
  switch (K) {
  case OptionErrorKind::BadMaxUnroll:
    return "bad-max-unroll";
  case OptionErrorKind::BadLoopLenCap:
    return "bad-loop-len-cap";
  case OptionErrorKind::BadEfficiencyThreshold:
    return "bad-efficiency-threshold";
  case OptionErrorKind::ParallelBinarySearch:
    return "parallel-binary-search";
  case OptionErrorKind::BadLadderRung:
    return "bad-ladder-rung";
  case OptionErrorKind::ChaosCompiledOut:
    return "chaos-compiled-out";
  case OptionErrorKind::ExplainWithoutPipelining:
    return "explain-without-pipelining";
  case OptionErrorKind::DuplicateBudget:
    return "duplicate-budget";
  }
  return "unknown";
}

std::vector<OptionDiag> swp::CompilerOptions::validate() const {
  std::vector<OptionDiag> Diags;
  auto Reject = [&](OptionErrorKind K, const char *Msg) {
    Diags.push_back({K, std::string("CompilerOptions: ") + Msg});
  };
  if (MaxUnroll == 0)
    Reject(OptionErrorKind::BadMaxUnroll, "MaxUnroll must be at least 1");
  if (MaxLoopLenToPipeline == 0)
    Reject(OptionErrorKind::BadLoopLenCap,
           "MaxLoopLenToPipeline must be at least 1");
  if (!(EfficiencyThreshold > 0.0) || EfficiencyThreshold > 1.0)
    Reject(OptionErrorKind::BadEfficiencyThreshold,
           "EfficiencyThreshold must lie in (0, 1]");
  if (Sched.BinarySearch && Sched.SearchThreads > 1)
    Reject(OptionErrorKind::ParallelBinarySearch,
           "SearchThreads > 1 is incompatible with BinarySearch (its "
           "probes are sequentially dependent)");
  if (MinLadderRung > 2)
    Reject(OptionErrorKind::BadLadderRung,
           "MinLadderRung must be 0 (full), 1 (unrolled list), or 2 "
           "(sequential)");
  if (ChaosSeed != 0 && !faults::compiledIn())
    Reject(OptionErrorKind::ChaosCompiledOut,
           "ChaosSeed set but fault injection was compiled out "
           "(SWP_FAULTS_ENABLED=0)");
  if (Explain && !EnablePipelining)
    Reject(OptionErrorKind::ExplainWithoutPipelining,
           "Explain renders pipelined kernels only; it is contradictory "
           "with EnablePipelining = false");
  if (Tracker != nullptr && Budget.limited())
    Reject(OptionErrorKind::DuplicateBudget,
           "an external Tracker and inline Budget ceilings are mutually "
           "exclusive (give the tracker the budget instead)");
  return Diags;
}

std::string swp::CompilerOptions::finalize() {
  std::vector<OptionDiag> Diags = validate();
  return Diags.empty() ? std::string() : Diags.front().Message;
}

namespace {

/// Folds one finished compile into the fleet registry: outcome, per-loop
/// decision and ladder-rung distributions, budget trips. Registration is
/// one-time; the per-compile cost is a handful of relaxed adds.
void recordCompileMetrics(const CompileResult &R) {
  struct CompileMetrics {
    metrics::Counter Outcome[2];                ///< [ok, error]
    metrics::Counter Decision[5];               ///< PipelineDecision order.
    metrics::Counter Rung[5];                   ///< ScheduleRung order.
    metrics::Counter BudgetTrips;
  };
  static const CompileMetrics CM = [] {
    auto &R = metrics::MetricsRegistry::global();
    CompileMetrics M;
    M.Outcome[0] = R.counter("swp_compile_total", "outcome=\"ok\"",
                             "Whole-program compiles, by outcome");
    M.Outcome[1] = R.counter("swp_compile_total", "outcome=\"error\"",
                             "Whole-program compiles, by outcome");
    for (unsigned I = 0; I != 5; ++I) {
      M.Decision[I] = R.counter(
          "swp_compile_loops_total",
          "decision=\"" +
              std::string(decisionText(static_cast<PipelineDecision>(I))) +
              "\"",
          "Loops compiled, by pipelining decision");
      M.Rung[I] = R.counter(
          "swp_compile_rungs_total",
          "rung=\"" +
              std::string(scheduleRungText(static_cast<ScheduleRung>(I))) +
              "\"",
          "Loops compiled, by degradation-ladder rung");
    }
    M.BudgetTrips = R.counter("swp_compile_budget_trips_total", "",
                              "Compiles whose budget tripped");
    return M;
  }();
  CM.Outcome[R.Ok ? 0 : 1].inc();
  for (const LoopReport &L : R.Report.Loops) {
    CM.Decision[static_cast<unsigned>(L.Decision) % 5].inc();
    CM.Rung[static_cast<unsigned>(L.Rung) % 5].inc();
  }
  if (R.Report.BudgetTripped != BudgetCause::None)
    CM.BudgetTrips.inc();
}

} // namespace

CompileResult swp::compileProgram(Program &P, const MachineDescription &MD,
                                  const CompilerOptions &Opts,
                                  DiagnosticEngine *Diags) {
  // Refuse incoherent option combinations before touching the program.
  CompilerOptions Checked = Opts;
  std::string OptErr = Checked.finalize();
  if (!OptErr.empty()) {
    CompileResult R;
    R.Error = OptErr;
    if (Diags)
      Diags->error(SourceLoc{}, OptErr);
    return R;
  }
  SWP_TRACE_SPAN(CompileSpan, "compileProgram");
  // Arm deterministic fault injection for this compile only (no-op when
  // ChaosSeed is 0 or an outer scope already armed).
  faults::ScopedArm Chaos(Checked.ChaosSeed);
  CompileResult R;
  try {
    R = CompilerImpl(P, MD, Checked, Diags).run();
  } catch (const std::bad_alloc &) {
    // Allocation failure mid-compile (real or injected): a structured
    // failure, never a crash. Partial results are discarded.
    R = CompileResult{};
    R.Error = "compilation ran out of memory";
    if (Diags)
      Diags->error(SourceLoc{}, R.Error);
  }
  if (CompileSpan.active())
    CompileSpan.args(
        "\"ok\": " + std::string(R.Ok ? "true" : "false") +
        ", \"loops\": " + std::to_string(R.Report.Loops.size()) +
        ", \"pipelined\": " + std::to_string(R.Report.numPipelined()));
  recordCompileMetrics(R);
  return R;
}
