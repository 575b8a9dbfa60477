//===- ModuloScheduler.cpp - Iterative modulo scheduling ---------------------===//
//
// Part of warp-swp. See ModuloScheduler.h.
//
// Hot-path layout (see DESIGN.md, "Scheduler performance"): everything that
// does not depend on the candidate initiation interval is computed once in
// the SchedulerImpl constructor — strongly connected components, symbolic
// closures, per-component intra-edge lists in local indices, condensation
// edges and in-degrees, and (for acyclic graphs) the condensation heights.
// tryInterval is const and touches only flat vectors indexed by local or
// component id, so the linear scan over s re-runs only the placement work.
//
//===----------------------------------------------------------------------===//

#include "swp/Pipeliner/ModuloScheduler.h"

#include "swp/Metrics/Metrics.h"
#include "swp/Sched/ListScheduler.h"
#include "swp/Sched/ReservationTables.h"
#include "swp/Support/FaultInject.h"
#include "swp/Support/Trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

using namespace swp;

namespace {

constexpr int64_t NegInf = std::numeric_limits<int64_t>::min() / 4;
constexpr int64_t PosInf = std::numeric_limits<int64_t>::max() / 4;

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// Shared preprocessing (SCCs, symbolic closures, priorities, intra- and
/// inter-component edge lists) plus the per-interval scheduling attempt.
/// tryInterval is const and allocates its own scratch.
class SchedulerImpl {
public:
  SchedulerImpl(const DepGraph &G, const MachineDescription &MD,
                const ModuloScheduleOptions &Opts);

  unsigned recBound() const { return RecBound; }
  double closureBuildSeconds() const { return ClosureSeconds; }

  /// One candidate interval: wraps tryIntervalImpl with the trace span and
  /// the per-cause failure accounting.
  std::optional<Schedule> tryInterval(unsigned S, SchedulerStats &Stats,
                                      IntervalFailure *Fail = nullptr) const;

private:
  std::optional<Schedule> tryIntervalImpl(unsigned S, SchedulerStats &Stats,
                                          IntervalFailure &Fail) const;
  /// Slot-picking direction inside a component's precedence-constrained
  /// range. Earliest-first is the paper's heuristic; latest-first is the
  /// retry that rescues ranges pinched to a single occupied row (an
  /// induction increment whose every consumer was greedily pushed to the
  /// range's bottom leaves the increment exactly one -- taken -- slot,
  /// at every interval).
  enum class SlotOrder { EarliestFirst, LatestFirst };

  /// Reusable per-attempt buffers, all indexed by local (within-component)
  /// id. One instance per tryInterval call.
  struct ComponentScratch {
    std::vector<unsigned> PredsLeft;
    std::vector<int64_t> Earliest, Latest, Placed;
    std::vector<unsigned> Ready;
    std::vector<unsigned> Unplaced;
  };

  bool scheduleComponent(unsigned C, unsigned S, SlotOrder Order,
                         std::vector<int> &Internal,
                         ModuloReservationTable &LocalMRT,
                         ComponentScratch &Scr, SchedulerStats &Stats,
                         IntervalFailure &Fail) const;

  /// Interval-independent per-component state, local indices throughout.
  struct CompInfo {
    /// CSR adjacency of the intra-component omega-0 edges by local source.
    std::vector<unsigned> SuccStart; ///< Size n+1 (empty for trivial).
    std::vector<unsigned> SuccDst;
    std::vector<unsigned> InDeg0; ///< Initial omega-0 in-degrees.
    int ClosureIdx = -1;          ///< Into Closures; -1 for trivial comps.
  };

  /// One condensation edge; Delay is the raw dependence delay, to which
  /// each attempt adds Internal[SrcNode] - Internal[DstNode].
  struct CondEdge {
    unsigned SrcComp, DstComp;
    unsigned SrcNode, DstNode;
    int64_t Delay;
    unsigned Omega;
  };

  const DepGraph &G;
  const MachineDescription &MD;
  const ModuloScheduleOptions &Opts;
  SCCList Comps;
  std::vector<int64_t> Heights;
  std::vector<unsigned> CompOf;   ///< Node -> component.
  std::vector<unsigned> LocalIdx; ///< Node -> position within component.
  std::vector<CompInfo> Infos;
  std::vector<SCCClosure> Closures;
  std::vector<CondEdge> CondEdges;
  /// Condensation adjacency in CSR form: the CondEdges indices leaving
  /// (entering) component C are CondSuccIdx[CondSuccStart[C] ..
  /// CondSuccStart[C + 1]) (likewise for preds), in edge order.
  std::vector<unsigned> CondSuccStart, CondSuccIdx;
  std::vector<unsigned> CondPredStart, CondPredIdx;
  std::vector<unsigned> CondInDeg;

  std::span<const unsigned> condSuccs(unsigned C) const {
    return {CondSuccIdx.data() + CondSuccStart[C],
            CondSuccStart[C + 1] - CondSuccStart[C]};
  }
  std::span<const unsigned> condPreds(unsigned C) const {
    return {CondPredIdx.data() + CondPredStart[C],
            CondPredStart[C + 1] - CondPredStart[C]};
  }
  /// Condensation heights with all internal offsets zero — exact whenever
  /// the graph has no nontrivial component (then they are II-invariant).
  std::vector<int64_t> BaseCompHeight;
  bool HasNontrivial = false;
  unsigned NumNontrivial = 0;
  double ClosureSeconds = 0;
  unsigned RecBound = 1;
};

SchedulerImpl::SchedulerImpl(const DepGraph &G, const MachineDescription &MD,
                             const ModuloScheduleOptions &Opts)
    : G(G), MD(MD), Opts(Opts), Comps(G.sccs()), Heights(computeHeights(G)) {
  RecBound = recMII(G, Comps);
  const unsigned NumComps = Comps.size();
  CompOf.assign(G.numNodes(), 0);
  LocalIdx.assign(G.numNodes(), 0);
  for (unsigned C = 0; C != NumComps; ++C)
    for (unsigned I = 0; I != Comps[C].size(); ++I) {
      CompOf[Comps[C][I]] = C;
      LocalIdx[Comps[C][I]] = I;
    }

  // The closure is computed once, with the symbolic interval; only
  // nontrivial components need it.
  Infos.resize(NumComps);
  {
    trace::Span ClosureSpan("sccClosureBuild");
    auto ClosureStart = Clock::now();
    for (unsigned C = 0; C != NumComps; ++C)
      if (Comps[C].size() > 1) {
        HasNontrivial = true;
        ++NumNontrivial;
        Infos[C].ClosureIdx = static_cast<int>(Closures.size());
        Closures.emplace_back(G, Comps[C], RecBound);
      }
    ClosureSeconds = secondsSince(ClosureStart);
    if (ClosureSpan.active()) {
      char Buf[96];
      std::snprintf(Buf, sizeof(Buf),
                    "\"nodes\": %u, \"components\": %u, \"nontrivial\": %u",
                    G.numNodes(), NumComps, NumNontrivial);
      ClosureSpan.args(Buf);
    }
  }

  // Intra-component omega-0 edge lists and in-degrees, which the original
  // implementation re-derived from a full-graph edge scan on every
  // component of every candidate interval.
  for (unsigned C = 0; C != NumComps; ++C) {
    if (Comps[C].size() <= 1)
      continue;
    Infos[C].SuccStart.assign(Comps[C].size() + 1, 0);
    Infos[C].InDeg0.assign(Comps[C].size(), 0);
  }
  for (const DepEdge &E : G.edges()) {
    unsigned C = CompOf[E.Src];
    if (E.Omega != 0 || CompOf[E.Dst] != C || Comps[C].size() <= 1)
      continue;
    ++Infos[C].SuccStart[LocalIdx[E.Src] + 1];
    ++Infos[C].InDeg0[LocalIdx[E.Dst]];
  }
  for (unsigned C = 0; C != NumComps; ++C) {
    CompInfo &Info = Infos[C];
    if (Info.SuccStart.empty())
      continue;
    for (unsigned I = 1; I != Info.SuccStart.size(); ++I)
      Info.SuccStart[I] += Info.SuccStart[I - 1];
    Info.SuccDst.resize(Info.SuccStart.back());
  }
  // Second pass over the edges with one fill cursor per node (the
  // position of its next intra-component successor).
  std::vector<unsigned> Cursor(G.numNodes(), 0);
  for (unsigned N = 0; N != G.numNodes(); ++N)
    if (!Infos[CompOf[N]].SuccStart.empty())
      Cursor[N] = Infos[CompOf[N]].SuccStart[LocalIdx[N]];
  for (const DepEdge &E : G.edges()) {
    unsigned C = CompOf[E.Src];
    if (E.Omega != 0 || CompOf[E.Dst] != C || Comps[C].size() <= 1)
      continue;
    Infos[C].SuccDst[Cursor[E.Src]++] = LocalIdx[E.Dst];
  }

  // Condensation edges and in-degrees (interval-independent structure;
  // only the per-attempt internal-offset correction varies).
  CondInDeg.assign(NumComps, 0);
  CondSuccStart.assign(NumComps + 1, 0);
  CondPredStart.assign(NumComps + 1, 0);
  for (const DepEdge &E : G.edges()) {
    unsigned CS = CompOf[E.Src], CD = CompOf[E.Dst];
    if (CS == CD)
      continue;
    ++CondSuccStart[CS + 1];
    ++CondPredStart[CD + 1];
    ++CondInDeg[CD];
    CondEdges.push_back({CS, CD, E.Src, E.Dst, E.Delay, E.Omega});
  }
  for (unsigned C = 0; C != NumComps; ++C) {
    CondSuccStart[C + 1] += CondSuccStart[C];
    CondPredStart[C + 1] += CondPredStart[C];
  }
  CondSuccIdx.resize(CondEdges.size());
  CondPredIdx.resize(CondEdges.size());
  {
    // Fill in edge order; the cursors reuse Cursor's storage.
    Cursor.assign(CondSuccStart.begin(), CondSuccStart.end() - 1);
    Cursor.insert(Cursor.end(), CondPredStart.begin(), CondPredStart.end() - 1);
    for (unsigned EI = 0; EI != CondEdges.size(); ++EI) {
      CondSuccIdx[Cursor[CondEdges[EI].SrcComp]++] = EI;
      CondPredIdx[Cursor[NumComps + CondEdges[EI].DstComp]++] = EI;
    }
  }

  // Heights over the condensation's omega-0 edges at zero internal
  // offsets; exact (and reused by every attempt) when the graph is
  // acyclic, recomputed per attempt otherwise.
  BaseCompHeight.assign(NumComps, 0);
  for (unsigned C = NumComps; C-- != 0;) {
    int64_t H = 1;
    if (Comps[C].size() == 1)
      H = std::max(1, G.unit(Comps[C][0]).length());
    for (unsigned EIdx : condSuccs(C)) {
      const CondEdge &E = CondEdges[EIdx];
      if (E.Omega == 0)
        H = std::max(H, BaseCompHeight[E.DstComp] + E.Delay);
    }
    BaseCompHeight[C] = H;
  }
}

bool SchedulerImpl::scheduleComponent(unsigned C, unsigned S, SlotOrder Order,
                                      std::vector<int> &Internal,
                                      ModuloReservationTable &LocalMRT,
                                      ComponentScratch &Scr,
                                      SchedulerStats &Stats,
                                      IntervalFailure &Fail) const {
  std::span<const unsigned> Members = Comps[C];
  const CompInfo &Info = Infos[C];
  const SCCClosure &Cl = Closures[Info.ClosureIdx];
  const unsigned N = static_cast<unsigned>(Members.size());

  LocalMRT.reset();
  Scr.PredsLeft.assign(Info.InDeg0.begin(), Info.InDeg0.end());
  Scr.Earliest.assign(N, NegInf);
  Scr.Latest.assign(N, PosInf);
  Scr.Placed.assign(N, NegInf);
  Scr.Ready.clear();
  Scr.Unplaced.clear();
  for (unsigned L = 0; L != N; ++L) {
    if (Scr.PredsLeft[L] == 0)
      Scr.Ready.push_back(L);
    Scr.Unplaced.push_back(L);
  }

  // Topological order of the intra-component omega-0 edges, higher global
  // height first among ready nodes (section 2.2.2), ties to the smaller
  // global id.
  unsigned NumPlaced = 0;
  while (!Scr.Ready.empty()) {
    size_t BestPos = 0;
    for (size_t I = 1; I < Scr.Ready.size(); ++I) {
      unsigned A = Members[Scr.Ready[I]], B = Members[Scr.Ready[BestPos]];
      if (Heights[A] > Heights[B] || (Heights[A] == Heights[B] && A < B))
        BestPos = I;
    }
    unsigned L = Scr.Ready[BestPos];
    Scr.Ready[BestPos] = Scr.Ready.back();
    Scr.Ready.pop_back();
    if (Opts.Budget && !Opts.Budget->chargeNode()) {
      Fail.Cause = IntervalFailCause::BudgetCancelled;
      Fail.Node = Members[L];
      Fail.SlotsTried = 0;
      return false;
    }
    const ScheduleUnit &U = G.unit(Members[L]);

    int64_t Lo = Scr.Earliest[L] == NegInf ? 0 : Scr.Earliest[L];
    int64_t Hi = std::min<int64_t>(Scr.Latest[L], Lo + S - 1);
    bool Found = false;
    int64_t At = 0;
    for (int64_t I = Lo; I <= Hi; ++I) {
      int64_t T = Order == SlotOrder::EarliestFirst ? I : Hi - (I - Lo);
      ++Stats.SlotsProbed;
      if (!LocalMRT.canPlace(U, static_cast<int>(T)))
        continue;
      LocalMRT.place(U, static_cast<int>(T));
      At = T;
      Found = true;
      break;
    }
    if (!Found) {
      // Empty range: the closure pinched this node's window shut, a pure
      // precedence failure. Nonempty range: every slot was occupied.
      Fail.Cause = Hi < Lo ? IntervalFailCause::PrecedenceRange
                           : IntervalFailCause::ResourceConflict;
      Fail.Node = Members[L];
      Fail.SlotsTried = Hi < Lo ? 0 : static_cast<unsigned>(Hi - Lo + 1);
      return false;
    }
    Scr.Placed[L] = At;
    ++NumPlaced;
    for (size_t I = 0; I != Scr.Unplaced.size(); ++I)
      if (Scr.Unplaced[I] == L) {
        Scr.Unplaced[I] = Scr.Unplaced.back();
        Scr.Unplaced.pop_back();
        break;
      }

    // Tighten the precedence-constrained range of every unscheduled
    // member, substituting the concrete interval into the closure.
    for (unsigned M : Scr.Unplaced) {
      int64_t Fwd = Cl.distanceByIndex(L, M, S);
      if (Fwd != std::numeric_limits<int64_t>::min())
        Scr.Earliest[M] = std::max(Scr.Earliest[M], At + Fwd);
      int64_t Bwd = Cl.distanceByIndex(M, L, S);
      if (Bwd != std::numeric_limits<int64_t>::min())
        Scr.Latest[M] = std::min(Scr.Latest[M], At - Bwd);
    }

    for (unsigned EI = Info.SuccStart[L]; EI != Info.SuccStart[L + 1]; ++EI)
      if (--Scr.PredsLeft[Info.SuccDst[EI]] == 0)
        Scr.Ready.push_back(Info.SuccDst[EI]);
  }
  if (NumPlaced != N) {
    // Ready list drained with members unplaced: a precedence wedge.
    Fail.Cause = IntervalFailCause::PrecedenceRange;
    Fail.Node = Members[Scr.Unplaced.empty() ? 0 : Scr.Unplaced.front()];
    Fail.SlotsTried = 0;
    return false;
  }

  // Normalize internal offsets to start at zero.
  int64_t Min = PosInf;
  for (unsigned L = 0; L != N; ++L)
    Min = std::min(Min, Scr.Placed[L]);
  for (unsigned L = 0; L != N; ++L)
    Internal[Members[L]] = static_cast<int>(Scr.Placed[L] - Min);
  return true;
}

std::optional<Schedule>
SchedulerImpl::tryInterval(unsigned S, SchedulerStats &Stats,
                           IntervalFailure *FailOut) const {
  trace::Span AttemptSpan("tryInterval");
  IntervalFailure Fail;
  std::optional<Schedule> Result = tryIntervalImpl(S, Stats, Fail);
  if (!Result) {
    switch (Fail.Cause) {
    case IntervalFailCause::PrecedenceRange:
      ++Stats.FailPrecedence;
      break;
    case IntervalFailCause::ResourceConflict:
      ++Stats.FailResource;
      break;
    case IntervalFailCause::SlotAbort:
      ++Stats.FailSlotAbort;
      break;
    case IntervalFailCause::StageLimit:
      ++Stats.FailStageLimit;
      break;
    case IntervalFailCause::BudgetCancelled:
      ++Stats.FailBudget;
      break;
    case IntervalFailCause::None:
      break;
    }
  }
  if (FailOut)
    *FailOut = Result ? IntervalFailure{} : Fail;
  if (AttemptSpan.active()) {
    char Buf[160];
    if (Result)
      std::snprintf(Buf, sizeof(Buf), "\"ii\": %u, \"ok\": true", S);
    else
      std::snprintf(Buf, sizeof(Buf),
                    "\"ii\": %u, \"ok\": false, \"cause\": \"%s\", "
                    "\"node\": %u, \"slots_tried\": %u",
                    S, intervalFailCauseText(Fail.Cause), Fail.Node,
                    Fail.SlotsTried);
    AttemptSpan.args(Buf);
  }
  return Result;
}

std::optional<Schedule>
SchedulerImpl::tryIntervalImpl(unsigned S, SchedulerStats &Stats,
                               IntervalFailure &Fail) const {
  ++Stats.IntervalsTried;
  // The interval charge also polls the wall clock, so a long search backs
  // out within one attempt of the deadline.
  if (Opts.Budget && !Opts.Budget->chargeInterval()) {
    Fail.Cause = IntervalFailCause::BudgetCancelled;
    return std::nullopt;
  }
  // Chaos: reject this candidate as if every slot clashed; the search
  // recovers at a higher interval or falls back to the unpipelined loop.
  if (faults::shouldFire(faults::Site::SlotExhaustion)) {
    Fail.Cause = IntervalFailCause::SlotAbort;
    Fail.Node = 0;
    Fail.SlotsTried = S;
    return std::nullopt;
  }
  const unsigned NumComps = static_cast<unsigned>(Comps.size());
  std::vector<int> Internal(G.numNodes(), 0);

  // Phase 1: schedule every nontrivial component individually; when the
  // earliest-first heuristic wedges, retry the component latest-first.
  if (HasNontrivial) {
    trace::Span Phase1Span("phase1.components");
    auto P1Start = Clock::now();
    ModuloReservationTable LocalMRT(MD, S);
    ComponentScratch Scr;
    for (unsigned C = 0; C != NumComps; ++C) {
      if (Comps[C].size() <= 1)
        continue;
      if (scheduleComponent(C, S, SlotOrder::EarliestFirst, Internal,
                            LocalMRT, Scr, Stats, Fail))
        continue;
      ++Stats.ComponentRetries;
      if (!scheduleComponent(C, S, SlotOrder::LatestFirst, Internal,
                             LocalMRT, Scr, Stats, Fail)) {
        Stats.Phase1Seconds += secondsSince(P1Start);
        return std::nullopt;
      }
      // The latest-first retry rescued the component; clear the record
      // the failed earliest-first pass left behind.
      Fail = IntervalFailure{};
    }
    Stats.Phase1Seconds += secondsSince(P1Start);
  }

  // Phase 2: reduce components to super-nodes and list-schedule the
  // acyclic condensation against the global modulo reservation table.
  // Trivial components reuse their unit's reservation verbatim; only
  // nontrivial ones fold this attempt's internal offsets in.
  trace::Span Phase2Span("phase2.condensation");
  auto P2Start = Clock::now();
  std::vector<std::pair<const ResourceUse *, size_t>> AggRes(NumComps);
  std::vector<int> AggLen(NumComps);
  std::vector<std::vector<ResourceUse>> CyclicRes;
  CyclicRes.reserve(NumNontrivial);
  for (unsigned C = 0; C != NumComps; ++C) {
    if (Comps[C].size() == 1) {
      const ScheduleUnit &U = G.unit(Comps[C][0]);
      AggRes[C] = {U.reservation().data(), U.reservation().size()};
      AggLen[C] = std::max(1, U.length());
      continue;
    }
    std::vector<ResourceUse> Res;
    int Len = 1;
    for (unsigned N : Comps[C]) {
      for (const ResourceUse &Use : G.unit(N).reservation())
        Res.push_back({Use.ResId,
                       Use.Cycle + static_cast<unsigned>(Internal[N]),
                       Use.Units});
      Len = std::max(Len, Internal[N] + G.unit(N).length());
    }
    CyclicRes.push_back(std::move(Res));
    AggRes[C] = {CyclicRes.back().data(), CyclicRes.back().size()};
    AggLen[C] = Len;
  }

  // Heights over the condensation's omega-0 edges: cached for acyclic
  // graphs, recomputed against this attempt's internal offsets otherwise.
  std::vector<int64_t> HeightBuf;
  const int64_t *CompHeight = BaseCompHeight.data();
  if (HasNontrivial) {
    HeightBuf.resize(NumComps);
    for (unsigned C = NumComps; C-- != 0;) {
      int64_t H = AggLen[C];
      for (unsigned EIdx : condSuccs(C)) {
        const CondEdge &E = CondEdges[EIdx];
        if (E.Omega == 0)
          H = std::max(H, HeightBuf[E.DstComp] + E.Delay +
                              Internal[E.SrcNode] - Internal[E.DstNode]);
      }
      HeightBuf[C] = H;
    }
    CompHeight = HeightBuf.data();
  }

  // Components are already in topological order (all condensation edges go
  // forward); schedule ready components by height, ties to the smaller id.
  std::vector<unsigned> PredsLeft(CondInDeg);
  std::vector<unsigned> Ready;
  for (unsigned C = 0; C != NumComps; ++C)
    if (PredsLeft[C] == 0)
      Ready.push_back(C);

  ModuloReservationTable MRT(MD, S);
  std::vector<int64_t> CompStart(NumComps, NegInf);
  unsigned NumPlaced = 0;
  while (!Ready.empty()) {
    size_t BestPos = 0;
    for (size_t I = 1; I < Ready.size(); ++I) {
      unsigned A = Ready[I], B = Ready[BestPos];
      if (CompHeight[A] > CompHeight[B] ||
          (CompHeight[A] == CompHeight[B] && A < B))
        BestPos = I;
    }
    unsigned C = Ready[BestPos];
    Ready[BestPos] = Ready.back();
    Ready.pop_back();
    if (Opts.Budget && !Opts.Budget->chargeNode()) {
      Fail.Cause = IntervalFailCause::BudgetCancelled;
      Fail.Node = Comps[C].front();
      Stats.Phase2Seconds += secondsSince(P2Start);
      return std::nullopt;
    }

    int64_t Lo = 0;
    for (unsigned EIdx : condPreds(C)) {
      const CondEdge &E = CondEdges[EIdx];
      assert(CompStart[E.SrcComp] != NegInf &&
             "condensation edges all go forward");
      Lo = std::max(Lo, CompStart[E.SrcComp] + E.Delay +
                            Internal[E.SrcNode] - Internal[E.DstNode] -
                            static_cast<int64_t>(S) * E.Omega);
    }
    bool Found = false;
    for (int64_t T = Lo; T != Lo + S; ++T) {
      ++Stats.SlotsProbed;
      if (!MRT.canPlace(AggRes[C].first, AggRes[C].second,
                        static_cast<int>(T)))
        continue;
      MRT.place(AggRes[C].first, AggRes[C].second, static_cast<int>(T));
      CompStart[C] = T;
      Found = true;
      break;
    }
    if (!Found) {
      // The paper's abort rule: a node that fails in s consecutive slots
      // can never be placed at this interval.
      Fail.Cause = IntervalFailCause::SlotAbort;
      Fail.Node = Comps[C].front();
      Fail.SlotsTried = S;
      Stats.Phase2Seconds += secondsSince(P2Start);
      return std::nullopt;
    }
    ++NumPlaced;

    for (unsigned EIdx : condSuccs(C))
      if (--PredsLeft[CondEdges[EIdx].DstComp] == 0)
        Ready.push_back(CondEdges[EIdx].DstComp);
  }
  Stats.Phase2Seconds += secondsSince(P2Start);
  if (NumPlaced != NumComps) {
    Fail.Cause = IntervalFailCause::PrecedenceRange;
    return std::nullopt;
  }

  Schedule Sched(G.numNodes());
  for (unsigned N = 0; N != G.numNodes(); ++N)
    Sched.setStart(N, static_cast<int>(CompStart[CompOf[N]]) + Internal[N]);
  assert(Sched.satisfiesPrecedence(G, static_cast<int>(S)) &&
         "modulo schedule violates a precedence constraint");

  if (Opts.MaxStages != 0) {
    unsigned Stages = (Sched.issueLength() + S - 1) / S;
    if (Stages > Opts.MaxStages) {
      Fail.Cause = IntervalFailCause::StageLimit;
      Fail.Node = 0;
      Fail.SlotsTried = 0;
      return std::nullopt;
    }
  }
  return Sched;
}

} // namespace

const char *swp::intervalFailCauseText(IntervalFailCause C) {
  switch (C) {
  case IntervalFailCause::None:
    return "none";
  case IntervalFailCause::PrecedenceRange:
    return "precedence-range-empty";
  case IntervalFailCause::ResourceConflict:
    return "resource-conflict";
  case IntervalFailCause::SlotAbort:
    return "slot-abort";
  case IntervalFailCause::StageLimit:
    return "stage-limit";
  case IntervalFailCause::BudgetCancelled:
    return "budget-cancelled";
  }
  return "unknown";
}

std::optional<Schedule>
swp::scheduleAtInterval(const DepGraph &G, const MachineDescription &MD,
                        unsigned S, unsigned RecBound,
                        const ModuloScheduleOptions &Opts) {
  SchedulerImpl Impl(G, MD, Opts);
  if (S < std::max(RecBound, Impl.recBound()))
    return std::nullopt;
  SchedulerStats Stats;
  return Impl.tryInterval(S, Stats);
}

ModuloScheduleResult swp::moduloSchedule(const DepGraph &G,
                                         const MachineDescription &MD,
                                         const ModuloScheduleOptions &Opts) {
  trace::Span SearchSpan("moduloSchedule");
  auto TotalStart = Clock::now();
  ModuloScheduleResult Result;
  Result.ResMII = resMII(G, MD);

  SchedulerImpl Impl(G, MD, Opts);
  Result.RecMII = Impl.recBound();
  // Chaos: a lying recurrence bound. The search starts higher than needed
  // and settles for a valid-but-worse interval (or the unpipelined upper
  // bound keeps the search nonempty), never an invalid schedule.
  if (faults::shouldFire(faults::Site::RecMIIInflate))
    Result.RecMII = Result.RecMII * 2 + 3;
  Result.MII = std::max(Result.ResMII, Result.RecMII);
  Result.Stats.ClosureBuildSeconds = Impl.closureBuildSeconds();

  unsigned MaxII = Opts.MaxII;
  if (MaxII == 0) {
    // The paper's upper bound: the locally compacted iteration, executed
    // without overlap, always "schedules" at its own period.
    Schedule Local = listSchedule(G, MD);
    MaxII = std::max<unsigned>(unpipelinedPeriod(G, Local), Result.MII);
  }

  if (!Opts.BinarySearch) {
    // Linear search: schedulability is not monotonic in s, and on Warp
    // the lower bound is usually achievable (section 2.2).
    for (unsigned S = Result.MII; S <= MaxII; ++S) {
      if (Opts.Budget && Opts.Budget->cancelled())
        break;
      if (std::optional<Schedule> Sched = Impl.tryInterval(S, Result.Stats)) {
        Result.Success = true;
        Result.Sched = std::move(*Sched);
        Result.II = S;
        break;
      }
    }
  } else {
    // Ablation: binary search as in the FPS-164 compiler. Assumes
    // (incorrectly, in general) that schedulability is monotonic. Mid
    // never goes below Lo >= MII >= 1, so stopping when a success lands
    // exactly on Lo is the only lower-bound exit needed.
    unsigned Lo = Result.MII, Hi = MaxII;
    std::optional<Schedule> BestSched;
    unsigned BestS = 0;
    while (Lo <= Hi) {
      unsigned Mid = Lo + (Hi - Lo) / 2;
      if (std::optional<Schedule> Sched = Impl.tryInterval(Mid, Result.Stats)) {
        BestSched = std::move(Sched);
        BestS = Mid;
        if (Mid == Lo)
          break;
        Hi = Mid - 1;
      } else {
        Lo = Mid + 1;
      }
    }
    if (BestSched) {
      Result.Success = true;
      Result.Sched = std::move(*BestSched);
      Result.II = BestS;
    }
  }

  if (!Result.Success && Opts.Budget && Opts.Budget->expired())
    Result.BudgetExhausted = true;
  Result.TriedIntervals = static_cast<unsigned>(Result.Stats.IntervalsTried);
  if (Result.Success)
    Result.Stages = (Result.Sched.issueLength() + Result.II - 1) / Result.II;
  Result.Stats.TotalSeconds = secondsSince(TotalStart);
  {
    // Scheduler-quality fleet metrics: recorded once per search, so the
    // II-gap distribution measures what the scheduler achieves (memo hits
    // in the compile service never reach here).
    struct SchedMetrics {
      metrics::Counter Searches, IntervalsTried;
      metrics::Counter FailPrecedence, FailResource, FailSlotAbort,
          FailStageLimit, FailBudget;
      metrics::Histogram SearchUs;
    };
    static const SchedMetrics SM = [] {
      auto &R = metrics::MetricsRegistry::global();
      SchedMetrics M;
      M.Searches = R.counter("swp_sched_searches_total", "",
                             "Modulo-schedule II searches run");
      M.IntervalsTried = R.counter("swp_sched_intervals_tried_total", "",
                                   "Candidate IIs attempted across searches");
      const char *N = "swp_sched_interval_failures_total";
      const char *H = "Failed candidate IIs, by cause";
      M.FailPrecedence = R.counter(N, "cause=\"precedence\"", H);
      M.FailResource = R.counter(N, "cause=\"resource\"", H);
      M.FailSlotAbort = R.counter(N, "cause=\"slot_abort\"", H);
      M.FailStageLimit = R.counter(N, "cause=\"stage_limit\"", H);
      M.FailBudget = R.counter(N, "cause=\"budget\"", H);
      M.SearchUs = R.histogram("swp_sched_search_us", "",
                               "Wall microseconds per II search");
      return M;
    }();
    // The II-gap distribution is split by target, so a mixed-target
    // process shows which machine description burns the II budget; the
    // aggregate is the sum over labels. Target names come from
    // MachineDescription::name(), which the TargetRegistry stamps.
    static metrics::HistogramFamily IIGapByTarget(
        metrics::MetricsRegistry::global(), "swp_sched_ii_gap",
        "Achieved II minus max(ResMII, RecMII) on successful searches",
        "target");
    SM.Searches.inc();
    SM.IntervalsTried.inc(Result.Stats.IntervalsTried);
    SM.FailPrecedence.inc(Result.Stats.FailPrecedence);
    SM.FailResource.inc(Result.Stats.FailResource);
    SM.FailSlotAbort.inc(Result.Stats.FailSlotAbort);
    SM.FailStageLimit.inc(Result.Stats.FailStageLimit);
    SM.FailBudget.inc(Result.Stats.FailBudget);
    if (Result.Success)
      IIGapByTarget.with(MD.name()).record(Result.II - Result.MII);
    SM.SearchUs.recordSeconds(Result.Stats.TotalSeconds);
  }
  if (SearchSpan.active()) {
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "\"success\": %s, \"ii\": %u, \"mii\": %u, "
                  "\"res_mii\": %u, \"rec_mii\": %u, \"intervals\": %u",
                  Result.Success ? "true" : "false", Result.II, Result.MII,
                  Result.ResMII, Result.RecMII, Result.TriedIntervals);
    SearchSpan.args(Buf);
  }
  return Result;
}
