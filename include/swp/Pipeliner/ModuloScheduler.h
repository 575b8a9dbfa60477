//===- swp/Pipeliner/ModuloScheduler.h - Iterative modulo scheduling -*- C++ -*-===//
//
// Part of warp-swp. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scheduling algorithm of section 2.2. For a target initiation
/// interval s, acyclic graphs are list-scheduled against the modulo
/// reservation table, aborting s when a node fails in s consecutive slots.
/// Cyclic graphs are preprocessed: strongly connected components are found,
/// the all-points longest-path closure of each component is computed once
/// with a symbolic initiation interval, then per candidate s each component
/// is scheduled within precedence-constrained ranges and the acyclic
/// condensation of component super-nodes is list-scheduled. The search over
/// s is a linear scan from the lower bound (the paper's choice:
/// schedulability is not monotonic in s, and the bound is usually
/// achievable), with binary search available for the ablation study.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_PIPELINER_MODULOSCHEDULER_H
#define SWP_PIPELINER_MODULOSCHEDULER_H

#include "swp/DDG/Closure.h"
#include "swp/DDG/MII.h"
#include "swp/Sched/Schedule.h"
#include "swp/Support/Budget.h"

#include <cstdint>
#include <optional>

namespace swp {

/// Options for one modulo-scheduling run.
struct ModuloScheduleOptions {
  /// Largest interval to try; 0 means "derive from the locally compacted
  /// schedule" (its unpipelined period), the paper's upper bound.
  unsigned MaxII = 0;
  /// Use binary instead of linear search over s (ablation A2). Binary
  /// search assumes monotonic schedulability, which does not hold in
  /// general; the ablation quantifies the damage.
  bool BinarySearch = false;
  /// Limit on overlapped iterations (pipeline stages). 0 = unlimited; 2
  /// reproduces the FPS-164 compiler's two-iteration overlap (section 1).
  unsigned MaxStages = 0;
  /// Optional compile budget (not owned). When set, the search charges
  /// one interval per candidate and one node per placement attempt, and
  /// backs out cooperatively once a ceiling trips: the run reports
  /// BudgetExhausted instead of spinning. When null (the default) the
  /// scheduler never consults a tracker, so the search stays
  /// bit-identical to the unbudgeted algorithm.
  BudgetTracker *Budget = nullptr;
};

/// Why one candidate interval was rejected. Together with the failing
/// node this is the structured failure record carried by trace spans and
/// counted (by cause) in SchedulerStats, so a search is explainable even
/// from the aggregate report.
enum class IntervalFailCause : uint8_t {
  None,            ///< The attempt succeeded.
  PrecedenceRange, ///< A node's precedence-constrained range was empty.
  ResourceConflict,///< Every slot of a node's (nonempty) range was taken.
  SlotAbort,       ///< Condensation node failed s consecutive slots.
  StageLimit,      ///< Schedule found but exceeds MaxStages.
  BudgetCancelled, ///< Attempt backed out: the compile budget tripped.
};

/// Stable human-readable rendering of a failure cause.
const char *intervalFailCauseText(IntervalFailCause C);

/// Structured record of one failed tryInterval attempt.
struct IntervalFailure {
  IntervalFailCause Cause = IntervalFailCause::None;
  unsigned Node = 0;         ///< Failing node (a member, for components).
  unsigned SlotsTried = 0;   ///< Consecutive slots probed before aborting.
};

/// Performance counters for one modulo-scheduling run. Slot probes count
/// modulo-reservation-table placement queries in both the per-component
/// and the condensation phases; phase times are wall-clock across all
/// attempted intervals. The Fail* counters tally rejected intervals by
/// cause (one increment per failed tryInterval).
struct SchedulerStats {
  uint64_t IntervalsTried = 0;   ///< tryInterval calls.
  uint64_t SlotsProbed = 0;      ///< MRT canPlace queries.
  uint64_t ComponentRetries = 0; ///< Latest-first rescue attempts.
  uint64_t FailPrecedence = 0;   ///< Attempts lost to an empty range.
  uint64_t FailResource = 0;     ///< Attempts lost to occupied ranges.
  uint64_t FailSlotAbort = 0;    ///< Attempts lost to the s-slot abort.
  uint64_t FailStageLimit = 0;   ///< Attempts lost to MaxStages.
  uint64_t FailBudget = 0;       ///< Attempts backed out by the budget.
  double ClosureBuildSeconds = 0; ///< Symbolic closure preprocessing.
  double Phase1Seconds = 0;       ///< Cyclic-component scheduling.
  double Phase2Seconds = 0;       ///< Condensation list scheduling.
  double TotalSeconds = 0;        ///< Whole search, bounds included.

  uint64_t failedIntervals() const {
    return FailPrecedence + FailResource + FailSlotAbort + FailStageLimit +
           FailBudget;
  }

  void merge(const SchedulerStats &O) {
    IntervalsTried += O.IntervalsTried;
    SlotsProbed += O.SlotsProbed;
    ComponentRetries += O.ComponentRetries;
    FailPrecedence += O.FailPrecedence;
    FailResource += O.FailResource;
    FailSlotAbort += O.FailSlotAbort;
    FailStageLimit += O.FailStageLimit;
    FailBudget += O.FailBudget;
    ClosureBuildSeconds += O.ClosureBuildSeconds;
    Phase1Seconds += O.Phase1Seconds;
    Phase2Seconds += O.Phase2Seconds;
    TotalSeconds += O.TotalSeconds;
  }
};

/// Outcome of a modulo-scheduling run.
struct ModuloScheduleResult {
  bool Success = false;
  Schedule Sched{0};   ///< Flat one-iteration schedule (issue cycles >= 0).
  unsigned II = 0;     ///< Achieved initiation interval.
  unsigned MII = 0;    ///< max(ResMII, RecMII), for efficiency statistics.
  unsigned ResMII = 0;
  unsigned RecMII = 0;
  unsigned Stages = 0; ///< ceil(span / II): iterations in flight.
  unsigned TriedIntervals = 0; ///< Candidate intervals attempted.
  /// True when the search stopped because the compile budget tripped; the
  /// caller should degrade (see Compiler.h) rather than report NoSchedule.
  bool BudgetExhausted = false;
  SchedulerStats Stats;        ///< Perf counters for this run.
};

/// Runs the full iterative algorithm on \p G.
ModuloScheduleResult moduloSchedule(const DepGraph &G,
                                    const MachineDescription &MD,
                                    const ModuloScheduleOptions &Opts = {});

/// Attempts one fixed interval \p S; returns the schedule on success.
/// Exposed for tests and for the search-strategy ablation.
std::optional<Schedule> scheduleAtInterval(const DepGraph &G,
                                           const MachineDescription &MD,
                                           unsigned S,
                                           unsigned RecBound,
                                           const ModuloScheduleOptions &Opts);

} // namespace swp

#endif // SWP_PIPELINER_MODULOSCHEDULER_H
