//===- CompileReport.cpp - Structured compile reporting -------------------------===//
//
// Part of warp-swp. See CompileReport.h.
//
//===----------------------------------------------------------------------===//

#include "swp/Codegen/CompileReport.h"

#include <ostream>
#include <sstream>

using namespace swp;

const char *swp::decisionText(PipelineDecision D) {
  switch (D) {
  case PipelineDecision::EmptyBody:
    return "empty-body";
  case PipelineDecision::Skipped:
    return "skipped";
  case PipelineDecision::Fallback:
    return "fallback";
  case PipelineDecision::Pipelined:
    return "pipelined";
  case PipelineDecision::Degraded:
    return "degraded";
  }
  return "unknown";
}

const char *swp::scheduleRungText(ScheduleRung R) {
  switch (R) {
  case ScheduleRung::None:
    return "none";
  case ScheduleRung::Modulo:
    return "modulo";
  case ScheduleRung::List:
    return "list";
  case ScheduleRung::UnrolledList:
    return "unrolled-list";
  case ScheduleRung::Sequential:
    return "sequential";
  }
  return "unknown";
}

const char *swp::fallbackCauseText(FallbackCause C) {
  switch (C) {
  case FallbackCause::None:
    return "none";
  case FallbackCause::PipeliningDisabled:
    return "pipelining disabled";
  case FallbackCause::BodyTooLong:
    return "loop body exceeds the pipelining length threshold";
  case FallbackCause::ConditionalsExcluded:
    return "conditional loops excluded (hierarchical reduction ablation)";
  case FallbackCause::EfficiencyThreshold:
    return "II lower bound within threshold of the unpipelined length";
  case FallbackCause::NoSchedule:
    return "no modulo schedule found up to the unpipelined length";
  case FallbackCause::IINotBetter:
    return "achieved II no better than the unpipelined loop";
  case FallbackCause::RegisterPressure:
    return "register files cannot hold the expanded variables";
  case FallbackCause::ShortTripCount:
    return "trip count below the pipeline fill";
  case FallbackCause::ZeroTrip:
    return "zero-trip loop";
  case FallbackCause::VerifyFailed:
    return "independent schedule verification failed";
  case FallbackCause::BudgetExhausted:
    return "compile budget exhausted";
  }
  return "unknown";
}

unsigned CompileReport::numPipelined() const {
  unsigned N = 0;
  for (const LoopReport &L : Loops)
    N += L.pipelined();
  return N;
}

unsigned CompileReport::numAttempted() const {
  unsigned N = 0;
  for (const LoopReport &L : Loops)
    N += L.attempted();
  return N;
}

const LoopReport *CompileReport::primaryLoop() const {
  const LoopReport *Best = nullptr;
  for (const LoopReport &L : Loops)
    if (!Best || L.NumUnits > Best->NumUnits)
      Best = &L;
  return Best;
}

void CompileReport::print(std::ostream &OS, bool WithStats) const {
  for (const LoopReport &L : Loops) {
    OS << "loop i" << L.LoopId << ": " << decisionText(L.Decision);
    if (L.pipelined()) {
      OS << " II=" << L.II << " (MII=" << L.MII << " res=" << L.ResMII
         << " rec=" << L.RecMII << ") vs " << L.UnpipelinedLen
         << " unpipelined, stages=" << L.Stages << " unroll=" << L.Unroll
         << ", kernel " << L.KernelInsts << " insts of "
         << L.TotalLoopInsts;
    } else {
      if (L.Cause != FallbackCause::None)
        OS << " (" << L.causeText() << ")";
      if (L.degraded())
        OS << " rung=" << scheduleRungText(L.Rung);
      if (L.attempted())
        OS << ", MII=" << L.MII << " vs " << L.UnpipelinedLen
           << " unpipelined";
    }
    if (L.HasConditionals)
      OS << " [cond]";
    if (L.HasRecurrence)
      OS << " [rec]";
    OS << "\n";
    if (L.pipelined() && L.KernelUtil.measured()) {
      std::ostringstream Occ;
      Occ.precision(1);
      Occ << std::fixed << 100.0 * L.KernelUtil.bottleneckOccupancy();
      OS << "  kernel: bottleneck occupancy " << Occ.str()
         << "%, issue fill " << L.KernelUtil.issueFillRate()
         << " ops/cycle\n";
    }
    if (WithStats && L.attempted()) {
      OS << "  search: " << L.TriedIntervals << " intervals, "
         << L.Stats.SlotsProbed << " slots probed, "
         << L.Stats.ComponentRetries << " component retries, "
         << L.Stats.TotalSeconds << "s\n";
      if (L.Stats.failedIntervals())
        OS << "  rejected intervals: " << L.Stats.FailPrecedence
           << " precedence-range, " << L.Stats.FailResource
           << " resource-conflict, " << L.Stats.FailSlotAbort
           << " slot-abort, " << L.Stats.FailStageLimit << " stage-limit, "
           << L.Stats.FailBudget << " budget-cancelled\n";
    }
  }
  if (BudgetTripped != BudgetCause::None)
    OS << "compile budget tripped: " << budgetCauseText(BudgetTripped)
       << "\n";
  if (!RecoveredErrors.empty()) {
    OS << "recovered verifier findings (degraded, emitted code is clean):\n";
    for (const std::string &E : RecoveredErrors)
      OS << "  " << E << "\n";
  }
  if (!VerifyErrors.empty()) {
    OS << "verifier findings:\n";
    for (const std::string &E : VerifyErrors)
      OS << "  " << E << "\n";
  }
  if (HasUtilization && Util.measured()) {
    OS << "machine utilization (simulated):\n";
    Util.print(OS);
  }
}

/// JSON string escaping for the messages embedded in VerifyErrors.
static void appendEscaped(std::ostream &OS, const std::string &S) {
  for (char C : S) {
    if (C == '"' || C == '\\')
      OS << '\\' << C;
    else if (C == '\n')
      OS << "\\n";
    else
      OS << C;
  }
}

/// Failure-cause breakdown of \p S, keys sorted.
static void appendFailCauses(std::ostream &OS, const SchedulerStats &S) {
  OS << "{\"budget_cancelled\": " << S.FailBudget
     << ", \"precedence_range\": " << S.FailPrecedence
     << ", \"resource_conflict\": " << S.FailResource
     << ", \"slot_abort\": " << S.FailSlotAbort
     << ", \"stage_limit\": " << S.FailStageLimit << "}";
}

// Every object emits its keys in sorted order — the schema is canonical,
// not an accident of member declaration order, and the golden snapshots
// in tests/goldens/ lock exactly this shape.
std::string CompileReport::toJson() const {
  std::ostringstream OS;
  OS << "{\n  \"budget_tripped\": \"" << budgetCauseText(BudgetTripped)
     << "\",\n  \"loops\": [\n";
  for (size_t I = 0; I != Loops.size(); ++I) {
    const LoopReport &L = Loops[I];
    OS << "    {\"cause\": \"" << fallbackCauseText(L.Cause) << "\""
       << ", \"decision\": \"" << decisionText(L.Decision) << "\"";
    if (!L.ExplainText.empty()) {
      OS << ", \"explain\": \"";
      appendEscaped(OS, L.ExplainText);
      OS << "\"";
    }
    OS << ", \"fail_causes\": ";
    appendFailCauses(OS, L.Stats);
    OS << ", \"has_conditionals\": " << (L.HasConditionals ? "true" : "false")
       << ", \"has_recurrence\": " << (L.HasRecurrence ? "true" : "false")
       << ", \"ii\": " << L.II
       << ", \"kernel_insts\": " << L.KernelInsts;
    if (L.pipelined() && L.KernelUtil.measured())
      OS << ", \"kernel_util\": " << L.KernelUtil.toJson();
    OS << ", \"loop_id\": " << L.LoopId << ", \"mii\": " << L.MII
       << ", \"num_units\": " << L.NumUnits
       << ", \"rec_mii\": " << L.RecMII << ", \"res_mii\": " << L.ResMII
       << ", \"rung\": \"" << scheduleRungText(L.Rung) << "\""
       << ", \"stages\": " << L.Stages
       << ", \"total_loop_insts\": " << L.TotalLoopInsts
       << ", \"tried_intervals\": " << L.TriedIntervals
       << ", \"unpipelined_len\": " << L.UnpipelinedLen
       << ", \"unroll\": " << L.Unroll
       << "}" << (I + 1 != Loops.size() ? "," : "") << "\n";
  }
  OS << "  ],\n"
     << "  \"num_attempted\": " << numAttempted() << ",\n"
     << "  \"num_pipelined\": " << numPipelined() << ",\n"
     << "  \"paranoid_verified\": " << (ParanoidVerified ? "true" : "false")
     << ",\n  \"recovered_errors\": [";
  for (size_t I = 0; I != RecoveredErrors.size(); ++I) {
    OS << "\"";
    appendEscaped(OS, RecoveredErrors[I]);
    OS << "\"" << (I + 1 != RecoveredErrors.size() ? ", " : "");
  }
  OS << "],\n"
     << "  \"sched_totals\": {\"component_retries\": "
     << SchedTotals.ComponentRetries
     << ", \"fail_causes\": ";
  appendFailCauses(OS, SchedTotals);
  OS << ", \"failed_intervals\": " << SchedTotals.failedIntervals()
     << ", \"intervals_tried\": " << SchedTotals.IntervalsTried
     << ", \"slots_probed\": " << SchedTotals.SlotsProbed
     << ", \"total_seconds\": " << SchedTotals.TotalSeconds << "}";
  // Session identity appears only for session-submitted compiles, so the
  // report shape of a plain compileProgram call is unchanged. Keys stay
  // in sorted order ("session" lands between "sched_totals" and
  // "utilization").
  if (SessionId != 0 || RequestId != 0)
    OS << ",\n  \"session\": {\"request_id\": " << RequestId
       << ", \"session_id\": " << SessionId << "}";
  if (HasUtilization && Util.measured())
    OS << ",\n  \"utilization\": " << Util.toJson();
  OS << ",\n  \"verify_errors\": [";
  for (size_t I = 0; I != VerifyErrors.size(); ++I) {
    OS << "\"";
    appendEscaped(OS, VerifyErrors[I]);
    OS << "\"" << (I + 1 != VerifyErrors.size() ? ", " : "");
  }
  OS << "]\n}\n";
  return OS.str();
}
