//===- HierarchicalReducer.cpp - Section 3 ------------------------------------===//
//
// Part of warp-swp. See HierarchicalReducer.h.
//
//===----------------------------------------------------------------------===//

#include "swp/Pipeliner/HierarchicalReducer.h"

#include "swp/DDG/DDGBuilder.h"
#include "swp/Sched/ListScheduler.h"
#include "swp/Support/Trace.h"

#include <algorithm>
#include <cstdint>
#include <string>

using namespace swp;

namespace {

/// Compacts one branch: reduces it recursively, list-schedules the units,
/// and returns the member ops re-based to their scheduled offsets together
/// with the branch's per-cycle resource usage.
struct CompactedBranch {
  std::vector<UnitOp> Ops;
  /// Units of each resource in use per cycle, cycle-major: entry
  /// cycle * numResources() + res. Used marks the entries some
  /// reservation touched.
  std::vector<unsigned> Usage;
  std::vector<uint8_t> Used;
  int Length = 0;
};

CompactedBranch compactBranch(const StmtList &Body,
                              const MachineDescription &MD,
                              unsigned CurrentLoopId) {
  CompactedBranch Out;
  if (Body.empty())
    return Out;
  std::vector<ScheduleUnit> Units =
      reduceBodyToUnits(Body, MD, CurrentLoopId);
  DDGBuildOptions Opts;
  Opts.CurrentLoopId = CurrentLoopId;
  DepGraph G = buildLoopDepGraph(std::move(Units), MD, Opts);
  Schedule Sched = listSchedule(G, MD);

  const size_t NumRes = MD.numResources();
  size_t NumOps = 0;
  for (unsigned I = 0; I != G.numNodes(); ++I) {
    NumOps += G.unit(I).ops().size();
    Out.Length = std::max(Out.Length, Sched.startOf(I) + G.unit(I).length());
  }
  Out.Ops.reserve(NumOps);
  Out.Usage.assign(static_cast<size_t>(Out.Length) * NumRes, 0);
  Out.Used.assign(Out.Usage.size(), 0);
  for (unsigned I = 0; I != G.numNodes(); ++I) {
    int T = Sched.startOf(I);
    const ScheduleUnit &U = G.unit(I);
    for (const UnitOp &UO : U.ops()) {
      Out.Ops.push_back(UO);
      Out.Ops.back().Offset += T;
    }
    for (const ResourceUse &Use : U.reservation()) {
      size_t Slot = (static_cast<size_t>(T) + Use.Cycle) * NumRes + Use.ResId;
      assert(Slot < Out.Usage.size() && "reservation beyond the unit length");
      Out.Usage[Slot] += Use.Units;
      Out.Used[Slot] = 1;
    }
  }
  return Out;
}

/// Prepends the branch predicate to every member op of \p Branch.
void addPredicate(CompactedBranch &Branch, VReg Cond, bool Negated) {
  for (UnitOp &UO : Branch.Ops)
    UO.Preds.insert(UO.Preds.begin(), PredTerm{Cond, Negated});
}

} // namespace

std::vector<ScheduleUnit> swp::reduceBodyToUnits(const StmtList &Body,
                                                 const MachineDescription &MD,
                                                 unsigned CurrentLoopId) {
  std::vector<const Stmt *> View;
  View.reserve(Body.size());
  for (const StmtPtr &S : Body)
    View.push_back(S.get());
  return reduceStmtsToUnits(View, MD, CurrentLoopId);
}

std::vector<ScheduleUnit>
swp::reduceStmtsToUnits(const std::vector<const Stmt *> &Stmts,
                        const MachineDescription &MD,
                        unsigned CurrentLoopId) {
  trace::Span ReduceSpan("hierarchicalReduce");
  std::vector<ScheduleUnit> Units;
  Units.reserve(Stmts.size());
  unsigned NumReduced = 0;
  for (const Stmt *S : Stmts) {
    if (const auto *Op = dyn_cast<OpStmt>(S)) {
      Units.push_back(ScheduleUnit::makeSimple(Op->Op, MD));
      continue;
    }
    const auto *If = dyn_cast<IfStmt>(S);
    assert(If && "loop bodies under reduction contain no nested loops");
    CompactedBranch Then = compactBranch(If->Then, MD, CurrentLoopId);
    CompactedBranch Else = compactBranch(If->Else, MD, CurrentLoopId);
    addPredicate(Then, If->Cond, /*Negated=*/false);
    addPredicate(Else, If->Cond, /*Negated=*/true);
    if (Then.Ops.empty() && Else.Ops.empty())
      continue; // Degenerate conditional: nothing to schedule.

    // Union of the scheduling constraints of the two branches: entry-wise
    // maximum of the reservation tables, maximum of the lengths
    // (section 3.1), listed by (cycle, resource).
    const unsigned NumRes = MD.numResources();
    const size_t Slots = std::max(Then.Usage.size(), Else.Usage.size());
    std::vector<ResourceUse> Reservation;
    for (size_t Slot = 0; Slot != Slots; ++Slot) {
      bool InThen = Slot < Then.Used.size() && Then.Used[Slot];
      bool InElse = Slot < Else.Used.size() && Else.Used[Slot];
      if (!InThen && !InElse)
        continue;
      unsigned Count = std::max(InThen ? Then.Usage[Slot] : 0u,
                                InElse ? Else.Usage[Slot] : 0u);
      Reservation.push_back({static_cast<unsigned>(Slot % NumRes),
                             static_cast<unsigned>(Slot / NumRes), Count});
    }

    std::vector<UnitOp> Ops = std::move(Then.Ops);
    Ops.insert(Ops.end(), std::make_move_iterator(Else.Ops.begin()),
               std::make_move_iterator(Else.Ops.end()));
    Units.push_back(ScheduleUnit::makeReduced(
        std::move(Ops), std::move(Reservation),
        std::max(Then.Length, Else.Length), MD));
    ++NumReduced;
  }
  if (ReduceSpan.active())
    ReduceSpan.args("\"stmts\": " + std::to_string(Stmts.size()) +
                    ", \"units\": " + std::to_string(Units.size()) +
                    ", \"reduced_conditionals\": " +
                    std::to_string(NumReduced));
  return Units;
}

bool swp::bodyHasConditionals(const StmtList &Body) {
  bool Found = false;
  forEachStmt(Body, [&](const Stmt &S) {
    if (isa<IfStmt>(&S))
      Found = true;
  });
  return Found;
}
