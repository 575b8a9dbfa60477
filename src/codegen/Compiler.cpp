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
#include <initializer_list>
#include <new>
#include <optional>
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

/// Arrays carrying the user's no-alias directive in \p P, as id-indexed
/// flags.
static std::vector<uint8_t> noAliasArrays(const Program &P) {
  std::vector<uint8_t> Out(P.numArrays());
  for (unsigned Id = 0; Id != P.numArrays(); ++Id)
    Out[Id] = P.arrayInfo(Id).NoAlias;
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

/// One loop body laid out for emission (section 2.4 of the paper):
/// Stages - 1 prolog windows, Windows kernel windows and Stages - 1 epilog
/// windows of II rows each, the kernel closed by the backedge. A
/// list-scheduled body is the one-stage, one-window case: its period
/// covers the schedule's span.
struct LoopPlan {
  ScheduleRung Rung = ScheduleRung::List;
  const DepGraph *G = nullptr;
  const Schedule *Sched = nullptr;
  unsigned II = 1;
  unsigned Stages = 1;
  unsigned Windows = 1;
  /// Nonzero when G is a copy-major unrolled graph: node r*NodesPerCopy + i
  /// is iteration offset r of original node i.
  unsigned NodesPerCopy = 0;
  /// Loop-variable advance per backedge, i.e. iterations per kernel pass.
  unsigned Step = 1;
};

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
    if (Code.size() <= Index)
      Code.resize(Index + 1);
    return Code[Index];
  }

  /// Lowers one operation instance for iteration offset \p K of loop
  /// \p CurLoopId, guarded by \p Preds.
  MachOp lowerOp(const Operation &Op, int64_t K, unsigned CurLoopId,
                 const SmallVec<PredTerm, 1> &Preds);

  /// Appends \p Op at the cursor as its own instruction and advances past
  /// its latency so the next serial op can consume the result.
  void emitSerial(MachOp Op, unsigned Latency);

  /// Emits \p Opc over \p Uses, with immediate \p Imm, serially into a
  /// fresh scratch integer register.
  PhysReg emitIOp(Opcode Opc, std::initializer_list<PhysReg> Uses,
                  int64_t Imm = 0);
  PhysReg emitIConst(int64_t V) { return emitIOp(Opcode::IConst, {}, V); }

  /// Appends a control-only instruction; returns its index for patching.
  size_t emitCtrl(ControlOp::Kind K, PhysReg Counter = {});
  void patchTarget(size_t Inst, size_t Target) {
    Code[Inst].Ctrl.Target = static_cast<unsigned>(Target);
  }

  void emitAgu(size_t Inst, AguOp A) { instAt(Inst).Agu.push_back(A); }

  /// Counts one op placed at instruction Base + \p Offset of the region
  /// about to be emitted (see reserveOps).
  void countOp(size_t Offset) {
    if (OpCount.size() <= Offset)
      OpCount.resize(Offset + 1, 0);
    ++OpCount[Offset];
  }
  /// Gives instruction \p Base + i room for the OpCount[i] ops counted
  /// for it, so each instruction allocates its op list once; clears the
  /// counts.
  void reserveOps(size_t Base) {
    for (size_t I = OpCount.size(); I-- != 0;)
      if (OpCount[I]) {
        VLIWInst &Inst = instAt(Base + I);
        Inst.Ops.reserve(Inst.Ops.size() + OpCount[I]);
      }
    OpCount.clear();
  }
  void padDrain() { Cursor = std::max(Cursor, Frontier) + Pad; }

  //===--- Region emission --------------------------------------------------===

  void emitStmtList(StmtList &List);
  void emitSegment(const std::vector<const Stmt *> &Stmts);
  void emitLoop(ForStmt &For);
  void emitOuterLoop(ForStmt &For);

  /// Emits \p Plan's windows for loop \p LoopId, the kernel closed by a
  /// backedge on \p Counter that advances the loop variable by the plan's
  /// step; the caller set up the counter, the loop variable and any guard.
  /// Returns the index of the kernel's first instruction.
  size_t emitRun(const LoopPlan &Plan, unsigned LoopId, PhysReg Counter);

  /// Emits `if (0 < X) Body()`: a compare and a JumpIfZero past the body.
  /// A body returns false when the compile failed inside it, leaving the
  /// jump unpatched. Returns what the body returned.
  template <typename Fn>
  bool emitIfPositive(PhysReg Zero, PhysReg X, Fn &&Body);

  /// Emits \p For's trip counter, then the loop-variable init and
  /// \p Body(Counter): a constant counter for a static trip count, else n
  /// and a zero, with 0 < n guarding the init and the body. Returns what
  /// the body returned.
  template <typename Fn> bool emitCountedRun(const ForStmt &For, Fn &&Body);

  /// Emits a planned loop: the preheader and the trip-count dispatch of
  /// \p Plan's rung, with \p Plain running any remainder, short-trip or
  /// unpipelined version. Fills in \p Report and pads the drain.
  void emitPlannedLoop(const ForStmt &For, const LoopPlan &Plan,
                       const LoopPlan &Plain, LoopReport &Report);

  /// Modulo-schedules and emits the loop. \p Plain is the plain graph's
  /// list schedule, which the remainder and short-trip versions run.
  bool tryEmitPipelined(ForStmt &For, const LoopPlan &Plain,
                        LoopReport &Report);

  /// Emits the loop's code on one rung of the degradation ladder (List,
  /// UnrolledList, or Sequential). Returns false — without emitting
  /// anything — when the register files cannot hold the rung's locals;
  /// the caller rolls back the scope and tries the next rung down.
  bool emitLadderRung(ForStmt &For, const LoopPlan &Plain, ScheduleRung Rung,
                      LoopReport &Report);

  /// Emits preheader operations (serially) for a prepared loop.
  void emitPreheader(const ForStmt &For);

  /// Trip count n = hi - lo + 1 as a scratch register (runtime bounds).
  PhysReg emitTripCount(const ForStmt &For);

  /// Emits one instruction, at the cursor, setting the loop variable to
  /// its lower bound.
  void emitLoopVarInit(const ForStmt &For);

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
  /// The emission buffer, published into Result.Code.Insts once at the
  /// end of run().
  std::vector<VLIWInst> Code;
  RegAlloc RA;
  unsigned Pad;

  /// Next free instruction index for sequential emission.
  size_t Cursor = 0;
  /// High-water mark of scheduled placements (regions may place ops beyond
  /// the cursor).
  size_t Frontier = 0;

  /// Preheader operations per loop id.
  std::vector<LoopPrep> Preps;
  /// Per vreg id: the innermost loop owning all its accesses; null =
  /// global.
  std::vector<const ForStmt *> LocalTo;
  /// Arrays carrying the no-alias directive, by id (fixed once the scalar
  /// transforms are done).
  std::vector<uint8_t> NoAlias;

  /// Scratch reused across loops, indexed by vreg id unless noted.
  std::vector<uint8_t> LiveOut, Eligible;
  std::vector<unsigned> ArcOf;   ///< Index into the arc list, or ~0u.
  std::vector<unsigned> Cells;   ///< One arc's occupied period cells.
  std::vector<uint8_t> PoolBusy; ///< Pools x period occupancy, row-major.
  std::vector<unsigned> OpCount; ///< Ops per instruction of one region.
  /// One run's member ops, each with its stage, row within the stage and
  /// iteration offset within an unrolled graph's copies (see emitRun).
  struct FlatOp {
    const UnitOp *UO;
    unsigned Stage, Row, Copy;
  };
  std::vector<FlatOp> Flat;
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
      Preps[For->LoopId] = prepareLoopForCodegen(P, *For);
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
  const unsigned NumVRegs = P.numVRegs();
  std::vector<const ForStmt *> Owner(NumVRegs, nullptr);
  std::vector<uint8_t> Global(NumVRegs, 0);
  access_walk::walk(P.Body, nullptr, [&](unsigned Id, const ForStmt *Inner) {
    if (!Inner) {
      Global[Id] = 1;
      return;
    }
    if (!Owner[Id])
      Owner[Id] = Inner;
    else if (Owner[Id] != Inner)
      Global[Id] = 1;
  });
  // Preheader operations run outside the loop and touch their defs.
  for (const LoopPrep &Prep : Preps)
    for (const Operation &Op : Prep.Preheader) {
      if (Op.Def.isValid())
        Global[Op.Def.Id] = 1;
      for (const VReg &R : Op.Operands)
        Global[R.Id] = 1;
    }

  LocalTo.assign(NumVRegs, nullptr);
  RA.reserve(NumVRegs);
  for (unsigned Id = 0; Id != NumVRegs; ++Id)
    if (Owner[Id] && !Global[Id] && !P.vregInfo(VReg(Id)).IsLiveIn)
      LocalTo[Id] = Owner[Id];

  for (unsigned Id = 0; Id != NumVRegs; ++Id) {
    const VRegInfo &Info = P.vregInfo(VReg(Id));
    bool Accessed = Owner[Id] || Global[Id] || Info.IsLiveIn;
    if (!Accessed || LocalTo[Id])
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
                             const SmallVec<PredTerm, 1> &Preds) {
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

PhysReg CompilerImpl::emitIOp(Opcode Opc, std::initializer_list<PhysReg> Uses,
                              int64_t Imm) {
  std::optional<PhysReg> R = RA.allocateScratch(RegClass::Int);
  if (!R)
    fail("integer register file overflow in loop setup code");
  MachOp M;
  M.Opc = Opc;
  M.Def = R.value_or(PhysReg{RegClass::Int, 0});
  M.Uses = Uses;
  M.IImm = Imm;
  PhysReg Def = M.Def;
  emitSerial(std::move(M), MD.opcodeInfo(Opc).Latency);
  return Def;
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
  BOpts.NoAliasMask = NoAlias;
  DepGraph G = buildLoopDepGraph(std::move(Units), MD, BOpts);
  Schedule Sched = listSchedule(G, MD);

  size_t Base = Cursor;
  for (unsigned I = 0; I != G.numNodes(); ++I)
    for (const UnitOp &UO : G.unit(I).ops())
      countOp(Sched.startOf(I) + UO.Offset);
  reserveOps(Base);
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
  for (const Operation &Op : Preps[For.LoopId].Preheader)
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
    LoMinus1 = emitIOp(Opcode::ISub, {RA.regFor(For.Lo.Reg.Id), One});
  }
  return emitIOp(Opcode::ISub, {Hi, LoMinus1});
}

void CompilerImpl::emitLoopVarInit(const ForStmt &For) {
  AguOp Init;
  Init.LoopId = For.LoopId;
  if (For.Lo.IsImm)
    Init.Imm = For.Lo.Imm;
  else
    Init.A = RA.regFor(For.Lo.Reg.Id);
  emitAgu(Cursor++, Init);
  Frontier = std::max(Frontier, Cursor);
}

size_t CompilerImpl::emitRun(const LoopPlan &Plan, unsigned LoopId,
                             PhysReg Counter) {
  const unsigned S = Plan.II, M = Plan.Stages, U = Plan.Windows;
  Flat.clear();
  for (unsigned I = 0; I != Plan.G->numNodes(); ++I) {
    unsigned Copy = Plan.NodesPerCopy ? I / Plan.NodesPerCopy : 0;
    for (const UnitOp &UO : Plan.G->unit(I).ops()) {
      int64_t Abs = Plan.Sched->startOf(I) + UO.Offset;
      assert(Abs >= 0 && "schedule times are normalized to be nonnegative");
      // A list-scheduled plan has one stage: its period covers the span.
      assert(Abs / S < M && "operation issues past the plan's last stage");
      Flat.push_back({&UO, static_cast<unsigned>(Abs / S),
                      static_cast<unsigned>(Abs % S), Copy});
    }
  }

  // Visits every op instance of the run in emission order, with its
  // instruction offset from the run's base and its iteration offset K:
  // prolog windows 0..M-2 (filling stages), U kernel windows, then epilog
  // windows 0..M-2 (draining stages).
  auto ForEachInstance = [&](auto &&Fn) {
    for (unsigned W = 0; W + 1 < M; ++W)
      for (const FlatOp &F : Flat)
        if (F.Stage <= W)
          Fn(static_cast<size_t>(W) * S + F.Row, F,
             static_cast<int64_t>(W) - F.Stage);
    for (unsigned R = 0; R != U; ++R)
      for (const FlatOp &F : Flat)
        Fn(static_cast<size_t>(M - 1 + R) * S + F.Row, F,
           static_cast<int64_t>(M - 1) + R - F.Stage);
    for (unsigned E = 0; E + 1 < M; ++E)
      for (const FlatOp &F : Flat)
        if (F.Stage >= E + 1)
          Fn(static_cast<size_t>(M - 1 + U + E) * S + F.Row, F,
             static_cast<int64_t>(M - 1) + E - F.Stage);
  };
  size_t Base = Cursor;
  ForEachInstance(
      [&](size_t Offset, const FlatOp &, int64_t) { countOp(Offset); });
  reserveOps(Base);
  ForEachInstance([&](size_t Offset, const FlatOp &F, int64_t K) {
    instAt(Base + Offset)
        .Ops.push_back(lowerOp(F.UO->Op, K + F.Copy, LoopId, F.UO->Preds));
  });

  size_t KernelBase = Base + static_cast<size_t>(M - 1) * S;
  size_t EpilogBase = KernelBase + static_cast<size_t>(U) * S;
  VLIWInst &Back = instAt(EpilogBase - 1);
  assert(Back.Ctrl.K == ControlOp::Kind::None && "control slot collision");
  Back.Ctrl = {ControlOp::Kind::DecJumpPos, static_cast<unsigned>(KernelBase),
               Counter};
  Back.Agu.push_back(AguOp{LoopId, /*Relative=*/true, PhysReg{}, Plan.Step});
  Cursor = EpilogBase + static_cast<size_t>(M - 1) * S;
  Frontier = std::max(Frontier, Cursor);
  return KernelBase;
}

template <typename Fn>
bool CompilerImpl::emitIfPositive(PhysReg Zero, PhysReg X, Fn &&Body) {
  size_t Skip = emitCtrl(ControlOp::Kind::JumpIfZero,
                         emitIOp(Opcode::ICmpLT, {Zero, X}));
  if (!Body())
    return false;
  patchTarget(Skip, Cursor);
  return true;
}

template <typename Fn>
bool CompilerImpl::emitCountedRun(const ForStmt &For, Fn &&Body) {
  auto Run = [&](PhysReg Counter) {
    emitLoopVarInit(For);
    return Body(Counter);
  };
  if (std::optional<int64_t> StaticN = For.staticTripCount())
    return Run(emitIConst(*StaticN));
  PhysReg N = emitTripCount(For);
  return emitIfPositive(emitIConst(0), N, [&] { return Run(N); });
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
  std::vector<Arc> Arcs;
  ArcOf.assign(P.numVRegs(), ~0u);
  for (unsigned I = 0; I != G.numNodes(); ++I) {
    int64_t T = Sched.startOf(I);
    for (const ScheduleUnit::RegWrite &W : G.unit(I).writes()) {
      if (LocalTo[W.R.Id] != &For)
        continue;
      if (ArcOf[W.R.Id] == ~0u) {
        ArcOf[W.R.Id] = static_cast<unsigned>(Arcs.size());
        Arcs.push_back(
            {W.R.Id, P.vregInfo(W.R).RC, T + W.Offset, T + W.Offset});
      }
      Arc &A = Arcs[ArcOf[W.R.Id]];
      A.Start = std::min(A.Start, T + W.Offset);
      A.End = std::max(A.End, T + W.Offset + W.Latency);
    }
    for (const ScheduleUnit::RegRead &R : G.unit(I).reads()) {
      if (LocalTo[R.R.Id] != &For || ArcOf[R.R.Id] == ~0u)
        continue; // A read-only local is impossible, but be safe.
      Arc &A = Arcs[ArcOf[R.R.Id]];
      A.End = std::max(A.End, T + R.Offset);
    }
  }

  // Longer arcs first gives a better packing.
  std::sort(Arcs.begin(), Arcs.end(), [](const Arc &A, const Arc &B) {
    return (A.End - A.Start) > (B.End - B.Start) ||
           ((A.End - A.Start) == (B.End - B.Start) && A.Id < B.Id);
  });

  // Pool registers, each with a per-cycle occupancy row in PoolBusy.
  struct Pool {
    PhysReg R;
    size_t Row;
  };
  std::vector<Pool> Pools[2];
  auto FileOf = [](RegClass RC) { return RC == RegClass::Float ? 0 : 1; };
  PoolBusy.clear();

  for (const Arc &A : Arcs) {
    int64_t Len = A.End - A.Start + 1;
    if (Len >= Period) {
      // Alive the whole iteration: exclusive register.
      if (!RA.assignLocal(A.Id, A.RC, 1))
        return false;
      continue;
    }
    Cells.clear();
    for (int64_t C = A.Start; C <= A.End; ++C) {
      int64_t W = C % Period;
      Cells.push_back(static_cast<unsigned>(W < 0 ? W + Period : W));
    }
    bool Placed = false;
    for (Pool &Pl : Pools[FileOf(A.RC)]) {
      uint8_t *Busy = PoolBusy.data() + Pl.Row;
      bool Clash = false;
      for (unsigned C : Cells)
        if (Busy[C]) {
          Clash = true;
          break;
        }
      if (Clash)
        continue;
      for (unsigned C : Cells)
        Busy[C] = 1;
      RA.aliasLocal(A.Id, Pl.R);
      Placed = true;
      break;
    }
    if (Placed)
      continue;
    std::optional<PhysReg> Fresh = RA.allocateScratch(A.RC);
    if (!Fresh)
      return false;
    Pool Pl{*Fresh, PoolBusy.size()};
    PoolBusy.resize(PoolBusy.size() + Period, 0);
    for (unsigned C : Cells)
      PoolBusy[Pl.Row + C] = 1;
    RA.aliasLocal(A.Id, Pl.R);
    Pools[FileOf(A.RC)].push_back(Pl);
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
  // A body that fails returns before its backedge, leaving the guard
  // unpatched and the drain unpadded.
  bool Emitted = emitCountedRun(For, [&](PhysReg Counter) {
    size_t LoopStart = Cursor;
    emitStmtList(For.Body);
    if (Failed)
      return false;
    // Backedge instruction: decrement, advance the loop variable, loop.
    size_t Back = emitCtrl(ControlOp::Kind::DecJumpPos, Counter);
    patchTarget(Back, LoopStart);
    emitAgu(Back, AguOp{For.LoopId, /*Relative=*/true, PhysReg{}, 1});
    return true;
  });
  if (Emitted)
    padDrain();
  RA.endScope();
}

void CompilerImpl::emitLoop(ForStmt &For) {
  if (!isInnermost(For)) {
    emitOuterLoop(For);
    return;
  }

  trace::Span LoopSpan("compileLoop");

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

  auto Units = std::make_shared<const std::vector<ScheduleUnit>>(
      reduceBodyToUnits(For.Body, MD, For.LoopId));
  Report.NumUnits = Units->size();
  Report.HasConditionals = bodyHasConditionals(For.Body);
  if (Units->empty()) {
    FinishLoopSpan();
    Result.Report.Loops.push_back(Report);
    return;
  }

  // Plain (unexpanded) graph: drives the unpipelined fallback and the
  // policy thresholds.
  DDGBuildOptions PlainOpts;
  PlainOpts.CurrentLoopId = For.LoopId;
  PlainOpts.NoAliasMask = NoAlias;
  DepGraph PlainG = buildLoopDepGraph(Units, MD, PlainOpts);
  Schedule LocalSched = listSchedule(PlainG, MD);
  int Period = std::max(unpipelinedPeriod(PlainG, LocalSched),
                        LocalSched.spanLength(PlainG));
  Report.UnpipelinedLen = Period;
  // The List rung's plan; the other rungs run it for remainders and short
  // trip counts.
  const LoopPlan Plain{.G = &PlainG, .Sched = &LocalSched,
                       .II = static_cast<unsigned>(Period)};
  SCCList Comps = PlainG.sccs();
  for (unsigned C = 0; C != Comps.size(); ++C)
    if (Comps[C].size() > 1)
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
    Pipelined = tryEmitPipelined(For, Plain, Report);
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
    ScheduleRung Ladder[2] = {Degrading ? ScheduleRung::UnrolledList
                                        : ScheduleRung::List,
                              ScheduleRung::Sequential};
    size_t LadderBegin = Opts.MinLadderRung >= 2 ? 1 : 0;
    if (Degrading)
      Report.Decision = PipelineDecision::Degraded;

    bool Emitted = false;
    for (size_t RI = LadderBegin; RI != 2 && !Failed; ++RI) {
      if (RI != LadderBegin) {
        // The previous rung did not fit; dropping below it is itself a
        // degradation worth reporting.
        Report.Decision = PipelineDecision::Degraded;
        if (Report.Cause == FallbackCause::None)
          Report.Cause = FallbackCause::RegisterPressure;
      }
      if (emitLadderRung(For, Plain, Ladder[RI], Report)) {
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

bool CompilerImpl::emitLadderRung(ForStmt &For, const LoopPlan &Plain,
                                  ScheduleRung Rung, LoopReport &Report) {
  // Resolve the rung's graph, schedule, and period. List reuses the
  // locally compacted schedule; UnrolledList list-schedules two manually
  // folded copies of the body together (cross-iteration overlap without
  // any II search); Sequential runs one unit at a time in program order,
  // the minimal-lifetime last resort.
  const unsigned U = Rung == ScheduleRung::UnrolledList ? 2u : 1u;
  std::optional<DepGraph> UnrolledG;
  std::optional<Schedule> OwnSched;
  const DepGraph &PlainG = *Plain.G;
  const DepGraph *G = Plain.G;
  const Schedule *Sched = Plain.Sched;
  int Period = static_cast<int>(Plain.II);
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
    for (unsigned Id = 0; Id != LocalTo.size(); ++Id) {
      if (LocalTo[Id] != &For)
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
  emitPlannedLoop(For,
                  {.Rung = Rung, .G = G, .Sched = Sched,
                   .II = static_cast<unsigned>(AllocPeriod),
                   .NodesPerCopy = U == 1 ? 0 : PlainG.numNodes(), .Step = U},
                  Plain, Report);
  return true;
}

bool CompilerImpl::tryEmitPipelined(ForStmt &For, const LoopPlan &Plain,
                                    LoopReport &Report) {
  // Chaos: allocation failure entering the pipeline attempt. Propagates
  // to compileProgram, which turns it into a structured compile failure.
  if (faults::shouldFire(faults::Site::OomAllocation))
    throw std::bad_alloc();

  // Eligibility for modulo variable expansion.
  const std::vector<ScheduleUnit> &Units = *Plain.G->sharedUnits();
  Eligible.assign(P.numVRegs(), 0);
  if (Opts.MVE != MVEPolicy::Disabled) {
    liveOutRegs(P, For, LiveOut);
    mveEligibleRegs(Units, LiveOut, P, Eligible);
    // Registers shared with other regions cannot rotate.
    for (unsigned Id = 0; Id != Eligible.size(); ++Id)
      if (LocalTo[Id] != &For)
        Eligible[Id] = 0;
  }

  // The expanded graph shares the plain graph's units.
  DDGBuildOptions BOpts;
  BOpts.CurrentLoopId = For.LoopId;
  BOpts.ExpandedMask = Eligible;
  BOpts.NoAliasMask = NoAlias;
  DepGraph G = buildLoopDepGraph(Plain.G->sharedUnits(), MD, BOpts);

  ModuloScheduleOptions SOpts = Opts.Sched;
  if (SOpts.MaxII == 0)
    SOpts.MaxII = Plain.II;
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
  if (static_cast<double>(MS.MII) >= Opts.EfficiencyThreshold * Plain.II) {
    Report.Cause = FallbackCause::EfficiencyThreshold;
    return false;
  }
  if (!MS.Success) {
    Report.Cause = FallbackCause::NoSchedule;
    return false;
  }
  if (MS.II >= Plain.II) {
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
  for (unsigned Id = 0; Id != LocalTo.size(); ++Id) {
    if (LocalTo[Id] != &For)
      continue;
    unsigned Copies = Plan.copiesOf(Id);
    if (!RA.assignLocal(Id, P.vregInfo(VReg(Id)).RC, Copies)) {
      Report.Cause = FallbackCause::RegisterPressure;
      return false;
    }
  }

  unsigned S = MS.II;
  int64_t MaxIssue = 0;
  for (unsigned I = 0; I != G.numNodes(); ++I)
    for (const UnitOp &UO : G.unit(I).ops())
      MaxIssue = std::max<int64_t>(MaxIssue, MS.Sched.startOf(I) + UO.Offset);
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

  emitPlannedLoop(For,
                  {.Rung = ScheduleRung::Modulo, .G = &G, .Sched = &MS.Sched,
                   .II = S, .Stages = M, .Windows = U, .Step = U},
                  Plain, Report);
  return true;
}

void CompilerImpl::emitPlannedLoop(const ForStmt &For, const LoopPlan &Plan,
                                   const LoopPlan &Plain,
                                   LoopReport &Report) {
  emitPreheader(For);
  std::optional<int64_t> StaticN = For.staticTripCount();
  size_t LoopInstsBegin = Cursor;
  // Iterations before the first kernel pass, and per kernel pass.
  const int64_t Fill = Plan.Stages - 1;
  const unsigned U = Plan.Step;

  // A run cannot fail, so a guard around it is always patched.
  auto Run = [&](const LoopPlan &Pl, PhysReg Counter) {
    emitRun(Pl, For.LoopId, Counter);
    return true;
  };
  // The plan's own run. A modulo kernel also records its region and,
  // under ParanoidVerify, is checked against its schedule.
  auto Kernel = [&](PhysReg Counter) {
    size_t Base = Cursor;
    size_t KernelBase = emitRun(Plan, For.LoopId, Counter);
    if (Plan.Rung != ScheduleRung::Modulo)
      return true;
    Report.KernelInsts = Plan.Windows * Plan.II;
    size_t EpilogBase = KernelBase + Report.KernelInsts;
    Report.Region = {Base, KernelBase, EpilogBase, Cursor};
    if (!Opts.ParanoidVerify)
      return true;
    // The region is fully emitted; re-derive its structure from the
    // schedule and compare against the instructions actually in Code.
    // Trailing epilog rows with no operations are created lazily, so
    // materialize the whole region before handing it to the verifier.
    (void)instAt(Cursor - 1);
    // Chaos: corrupt the emitted kernel (duplicate its first operation)
    // so the emission check below must catch it — the code is already
    // committed, so this one is a structured compile failure, not a
    // recoverable fallback.
    if (faults::shouldFire(faults::Site::CorruptEmission)) {
      for (size_t I = KernelBase; I != EpilogBase; ++I)
        if (!Code[I].Ops.empty()) {
          Code[I].Ops.push_back(Code[I].Ops.front());
          break;
        }
    }
    PipelinedLoopLayout L{.PrologBase = Base, .II = Plan.II,
                          .Stages = Plan.Stages, .Unroll = Plan.Windows,
                          .LoopId = For.LoopId};
    recordVerifyFindings(verifyPipelinedLoop(Code, L, *Plan.G, *Plan.Sched),
                         "emitted pipelined loop", For.LoopId);
    return true;
  };

  if (StaticN && *StaticN <= 0) {
    if (Plan.Rung == ScheduleRung::Modulo) {
      Report.Decision = PipelineDecision::Fallback;
      Report.Cause = FallbackCause::ZeroTrip;
      Report.Rung = ScheduleRung::None;
    }
  } else if (Plan.Rung == ScheduleRung::List ||
             Plan.Rung == ScheduleRung::Sequential) {
    emitCountedRun(For, [&](PhysReg N) { return Run(Plan, N); });
  } else if (Plan.Rung == ScheduleRung::Modulo && StaticN &&
             *StaticN < Fill + U) {
    // Too short to fill the pipeline: run everything unpipelined.
    Report.Decision = PipelineDecision::Fallback;
    Report.Cause = FallbackCause::ShortTripCount;
    Report.Rung = ScheduleRung::List;
    emitCountedRun(For, [&](PhysReg N) { return Run(Plain, N); });
  } else if (StaticN) {
    // n = Fill + U*k + rem: rem plain iterations, then k kernel passes.
    // The remainder runs first so the kernel's backedge can advance the
    // loop variable by a constant U every time.
    int64_t Rem = (*StaticN - Fill) % U;
    int64_t Kp = (*StaticN - Fill) / U;
    emitLoopVarInit(For);
    if (Rem > 0)
      Run(Plain, emitIConst(Rem));
    if (Kp > 0)
      Kernel(emitIConst(Kp));
  } else if (Plan.Rung == ScheduleRung::UnrolledList) {
    // Runtime trip count: both counts guarded (n <= 0 runs nothing —
    // truncating div/mod keep both nonpositive then).
    PhysReg N = emitTripCount(For);
    PhysReg UC = emitIConst(U);
    PhysReg Rem = emitIOp(Opcode::IMod, {N, UC});
    PhysReg Kp = emitIOp(Opcode::IDiv, {N, UC});
    emitLoopVarInit(For);
    PhysReg Zero = emitIConst(0);
    emitIfPositive(Zero, Rem, [&] { return Run(Plain, Rem); });
    emitIfPositive(Zero, Kp, [&] { return Kernel(Kp); });
  } else {
    // Runtime trip count on the modulo rung: full dual-version dispatch.
    PhysReg N = emitTripCount(For);
    PhysReg FillC = emitIConst(Fill);
    PhysReg UC = emitIConst(U);
    PhysReg T1 = emitIOp(Opcode::ISub, {N, FillC});
    PhysReg Small = emitIOp(Opcode::ICmpLT, {T1, UC});
    PhysReg Big = emitIOp(Opcode::INot, {Small});
    // Both versions compare against zero, so define it ahead of the
    // dispatch branch.
    PhysReg Zero = emitIConst(0);
    size_t ToUnpipelined = emitCtrl(ControlOp::Kind::JumpIfZero, Big);

    PhysReg Rem = emitIOp(Opcode::IMod, {T1, UC});
    PhysReg Kp = emitIOp(Opcode::IDiv, {T1, UC});
    emitLoopVarInit(For);
    emitIfPositive(Zero, Rem, [&] { return Run(Plain, Rem); });
    Kernel(Kp);
    size_t ToDone = emitCtrl(ControlOp::Kind::Jump);

    // Unpipelined-everything version (n < m-1+u, possibly n <= 0).
    patchTarget(ToUnpipelined, Cursor);
    emitIfPositive(Zero, N, [&] {
      emitLoopVarInit(For);
      return Run(Plain, N);
    });
    patchTarget(ToDone, Cursor);
  }
  Report.TotalLoopInsts = static_cast<unsigned>(Cursor - LoopInstsBegin);
  padDrain();
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
  NoAlias = noAliasArrays(P);
  Preps.resize(P.numLoops());
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
  // A failed compile returns its partial code too.
  Result.Code.Insts = InstList(std::move(Code));
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
  case OptionErrorKind::BadLadderRung:
    return "bad-ladder-rung";
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
  if (MinLadderRung > 2)
    Reject(OptionErrorKind::BadLadderRung,
           "MinLadderRung must be 0 (full), 1 (unrolled list), or 2 "
           "(sequential)");
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
  trace::Span CompileSpan("compileProgram");
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
