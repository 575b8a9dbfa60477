//===- ModuloVariableExpansion.cpp - MVE --------------------------------------===//
//
// Part of warp-swp. See ModuloVariableExpansion.h.
//
//===----------------------------------------------------------------------===//

#include "swp/Pipeliner/ModuloVariableExpansion.h"

#include "swp/IR/Program.h"
#include "swp/Support/MathUtils.h"
#include "swp/Support/Trace.h"

#include <algorithm>
#include <limits>
#include <string>

using namespace swp;

void swp::mveEligibleRegs(const std::vector<ScheduleUnit> &Units,
                          std::span<const uint8_t> LiveOut, const Program &P,
                          std::vector<uint8_t> &Eligible) {
  // First access per register in program order; writes must win and be
  // unpredicated for eligibility.
  enum : uint8_t { Unseen, SeenRead, FirstWriteUnpred, FirstWritePred };
  std::vector<uint8_t> &First = Eligible;
  First.assign(P.numVRegs(), Unseen);
  for (const ScheduleUnit &U : Units) {
    // Within a unit, reads happen logically before the unit's writes for
    // accumulator-style single-op recurrences, so visit reads first.
    for (const ScheduleUnit::RegRead &R : U.reads())
      if (First[R.R.Id] == Unseen)
        First[R.R.Id] = SeenRead;
    for (const UnitOp &UO : U.ops()) {
      if (!UO.Op.Def.isValid())
        continue;
      uint8_t &F = First[UO.Op.Def.Id];
      if (F == Unseen)
        F = UO.Preds.empty() ? FirstWriteUnpred : FirstWritePred;
    }
  }
  for (unsigned Id = 0; Id != First.size(); ++Id)
    First[Id] = First[Id] == FirstWriteUnpred &&
                !(Id < LiveOut.size() && LiveOut[Id]) &&
                !P.vregInfo(VReg(Id)).IsLiveIn;
}

std::set<unsigned>
swp::mveEligibleRegs(const std::vector<ScheduleUnit> &Units,
                     const std::set<unsigned> &LiveOut, const Program &P) {
  std::vector<uint8_t> LiveOutMask(P.numVRegs(), 0), Mask;
  for (unsigned Id : LiveOut)
    if (Id < LiveOutMask.size())
      LiveOutMask[Id] = 1;
  mveEligibleRegs(Units, LiveOutMask, P, Mask);
  std::set<unsigned> Eligible;
  for (unsigned Id = 0; Id != Mask.size(); ++Id)
    if (Mask[Id])
      Eligible.insert(Eligible.end(), Id);
  return Eligible;
}

MVEPlan swp::planModuloVariableExpansion(
    const std::vector<ScheduleUnit> &Units, const Schedule &Sched,
    unsigned II, std::span<const uint8_t> Expanded, MVEPolicy Policy) {
  MVEPlan Plan;
  trace::Span MveSpan("mvePlan");
  if (Policy == MVEPolicy::Disabled ||
      std::all_of(Expanded.begin(), Expanded.end(),
                  [](uint8_t F) { return F == 0; }))
    return Plan;
  auto IsExpanded = [&](unsigned Id) {
    return Id < Expanded.size() && Expanded[Id];
  };

  // Lifetime endpoints per expanded register: earliest commit, last read.
  constexpr int64_t None = std::numeric_limits<int64_t>::min();
  std::vector<int64_t> FirstCommit(Expanded.size(), None),
      LastRead(Expanded.size(), None);
  for (unsigned I = 0; I != Units.size(); ++I) {
    if (!Sched.isScheduled(I))
      continue;
    int64_t T = Sched.startOf(I);
    for (const ScheduleUnit::RegWrite &W : Units[I].writes()) {
      if (!IsExpanded(W.R.Id))
        continue;
      int64_t Commit = T + W.Offset + W.Latency;
      int64_t &F = FirstCommit[W.R.Id];
      F = F == None ? Commit : std::min(F, Commit);
    }
    for (const ScheduleUnit::RegRead &R : Units[I].reads()) {
      if (!IsExpanded(R.R.Id))
        continue;
      int64_t Read = T + R.Offset;
      int64_t &L = LastRead[R.R.Id];
      L = L == None ? Read : std::max(L, Read);
    }
  }

  // q_i = ceil(lifetime / s): values alive concurrently (section 2.3).
  // Ascending register order; Q holds (register, q_i) pairs.
  std::vector<std::pair<unsigned, unsigned>> Q;
  for (unsigned Id = 0; Id != FirstCommit.size(); ++Id) {
    if (FirstCommit[Id] == None)
      continue;
    if (LastRead[Id] == None) {
      Q.push_back({Id, 1}); // Written but never read: one location suffices.
      continue;
    }
    int64_t Life = LastRead[Id] - FirstCommit[Id] + 1;
    Q.push_back(
        {Id, static_cast<unsigned>(std::max<int64_t>(1, ceilDiv(Life, II)))});
  }
  if (Q.empty())
    return Plan;

  if (Policy == MVEPolicy::MinRegisters) {
    // u = lcm(q_i), each register gets exactly q_i locations. The paper
    // warns the lcm can be intolerable; callers cap it and fall back.
    int64_t U = 1;
    for (const auto &[Id, Qi] : Q)
      U = lcm(U, Qi);
    Plan.Unroll = static_cast<unsigned>(U);
    for (const auto &[Id, Qi] : Q)
      Plan.Copies.emplace_hint(Plan.Copies.end(), Id, Qi);
    if (MveSpan.active())
      MveSpan.args("\"policy\": \"min-registers\", \"unroll\": " +
                   std::to_string(Plan.Unroll) +
                   ", \"regs\": " + std::to_string(Q.size()));
    return Plan;
  }

  // MinCodeSize: u = max(q_i); copy counts round up to divisors of u so
  // the renaming pattern repeats exactly once per unrolled steady state.
  unsigned U = 1;
  for (const auto &[Id, Qi] : Q)
    U = std::max(U, Qi);
  Plan.Unroll = U;
  for (const auto &[Id, Qi] : Q)
    Plan.Copies.emplace_hint(
        Plan.Copies.end(), Id,
        static_cast<unsigned>(smallestDivisorAtLeast(U, Qi)));
  if (MveSpan.active())
    MveSpan.args("\"policy\": \"min-code-size\", \"unroll\": " +
                 std::to_string(Plan.Unroll) +
                 ", \"regs\": " + std::to_string(Q.size()));
  return Plan;
}

MVEPlan swp::planModuloVariableExpansion(
    const std::vector<ScheduleUnit> &Units, const Schedule &Sched,
    unsigned II, const std::set<unsigned> &Expanded, MVEPolicy Policy) {
  std::vector<uint8_t> Mask(Expanded.empty() ? 0 : *Expanded.rbegin() + 1, 0);
  for (unsigned Id : Expanded)
    Mask[Id] = 1;
  return planModuloVariableExpansion(Units, Sched, II, Mask, Policy);
}
