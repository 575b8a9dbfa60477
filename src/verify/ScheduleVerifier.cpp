//===- ScheduleVerifier.cpp - Independent schedule checks -----------------------===//
//
// Part of warp-swp. See ScheduleVerifier.h. Everything here is recomputed
// from the dependence graph, the schedule, and the machine description
// alone; none of the scheduler's caches, tables, or partial results are
// reused, so a bookkeeping bug in the scheduler cannot hide itself.
//
//===----------------------------------------------------------------------===//

#include "swp/Verify/ScheduleVerifier.h"

#include <algorithm>
#include <limits>
#include <map>
#include <sstream>

using namespace swp;

const char *swp::verifyErrorKindText(VerifyErrorKind K) {
  switch (K) {
  case VerifyErrorKind::BadII:
    return "bad-ii";
  case VerifyErrorKind::UnscheduledUnit:
    return "unscheduled-unit";
  case VerifyErrorKind::NegativeStart:
    return "negative-start";
  case VerifyErrorKind::PrecedenceViolation:
    return "precedence-violation";
  case VerifyErrorKind::ResourceConflict:
    return "resource-conflict";
  case VerifyErrorKind::StageLimitExceeded:
    return "stage-limit-exceeded";
  case VerifyErrorKind::MVEOverlap:
    return "mve-live-range-overlap";
  case VerifyErrorKind::MVEBadUnroll:
    return "mve-bad-unroll";
  case VerifyErrorKind::StageCountMismatch:
    return "stage-count-mismatch";
  case VerifyErrorKind::StructureMismatch:
    return "structure-mismatch";
  }
  return "unknown";
}

std::string VerifyError::str() const {
  return std::string("[") + verifyErrorKindText(Kind) + "] " + Message;
}

bool VerifyReport::has(VerifyErrorKind K) const {
  for (const VerifyError &E : Errors)
    if (E.Kind == K)
      return true;
  return false;
}

void VerifyReport::merge(VerifyReport Other) {
  for (VerifyError &E : Other.Errors)
    Errors.push_back(std::move(E));
}

std::string VerifyReport::str() const {
  std::ostringstream OS;
  for (const VerifyError &E : Errors)
    OS << E.str() << "\n";
  return OS.str();
}

static const char *depKindText(DepKind K) {
  switch (K) {
  case DepKind::Flow:
    return "flow";
  case DepKind::Anti:
    return "anti";
  case DepKind::Output:
    return "output";
  case DepKind::Mem:
    return "mem";
  case DepKind::Queue:
    return "queue";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Flat schedule: precedence + independent modulo reservation table.
//===----------------------------------------------------------------------===//

VerifyReport swp::verifyModuloSchedule(const DepGraph &G,
                                       const Schedule &Sched, unsigned II,
                                       const MachineDescription &MD,
                                       unsigned MaxStages) {
  VerifyReport R;
  if (II == 0) {
    R.add(VerifyErrorKind::BadII, "initiation interval is zero");
    return R;
  }
  if (Sched.numUnits() != G.numNodes()) {
    R.add(VerifyErrorKind::StructureMismatch,
          "schedule covers " + std::to_string(Sched.numUnits()) +
              " units but the graph has " + std::to_string(G.numNodes()));
    return R;
  }

  bool AllScheduled = true;
  for (unsigned I = 0; I != G.numNodes(); ++I) {
    if (!Sched.isScheduled(I)) {
      R.add(VerifyErrorKind::UnscheduledUnit,
            "unit " + std::to_string(I) + " has no issue cycle");
      AllScheduled = false;
      continue;
    }
    if (Sched.startOf(I) < 0)
      R.add(VerifyErrorKind::NegativeStart,
            "unit " + std::to_string(I) + " issues at cycle " +
                std::to_string(Sched.startOf(I)) +
                " (schedules are normalized to be nonnegative)");
  }
  if (!AllScheduled)
    return R;

  // Every precedence constraint sigma(dst) - sigma(src) >= d - II * p,
  // checked edge by edge so a violation names its dependence.
  for (const DepEdge &E : G.edges()) {
    int64_t Slack = static_cast<int64_t>(Sched.startOf(E.Dst)) -
                    Sched.startOf(E.Src) - E.Delay +
                    static_cast<int64_t>(II) * E.Omega;
    if (Slack < 0) {
      std::ostringstream OS;
      OS << depKindText(E.Kind) << " edge " << E.Src << " -> " << E.Dst
         << " (d=" << E.Delay << ", p=" << E.Omega << ") violated at II="
         << II << ": sigma(" << E.Dst << ")=" << Sched.startOf(E.Dst)
         << ", sigma(" << E.Src << ")=" << Sched.startOf(E.Src)
         << ", slack " << Slack;
      R.add(VerifyErrorKind::PrecedenceViolation, OS.str());
    }
  }

  // Independent modulo reservation table: fold every unit's reservation
  // pattern onto row (issue + use.Cycle) mod II and compare each row
  // against the machine's unit counts.
  std::vector<uint64_t> Rows(static_cast<size_t>(II) * MD.numResources(),
                             0);
  for (unsigned I = 0; I != G.numNodes(); ++I) {
    int64_t T = Sched.startOf(I);
    for (const ResourceUse &U : G.unit(I).reservation()) {
      int64_t Row = (T + U.Cycle) % II;
      if (Row < 0)
        Row += II;
      Rows[static_cast<size_t>(Row) * MD.numResources() + U.ResId] +=
          U.Units;
    }
  }
  for (unsigned Row = 0; Row != II; ++Row)
    for (unsigned Res = 0; Res != MD.numResources(); ++Res) {
      uint64_t Used = Rows[static_cast<size_t>(Row) * MD.numResources() +
                           Res];
      if (Used > MD.resource(Res).Units) {
        std::ostringstream OS;
        OS << "resource '" << MD.resource(Res).Name << "' over-subscribed "
           << "on modulo row " << Row << " of " << II << ": " << Used
           << " uses, " << MD.resource(Res).Units << " units";
        R.add(VerifyErrorKind::ResourceConflict, OS.str());
      }
    }

  if (MaxStages != 0) {
    unsigned Stages = (Sched.issueLength() + II - 1) / II;
    if (Stages > MaxStages)
      R.add(VerifyErrorKind::StageLimitExceeded,
            "schedule overlaps " + std::to_string(Stages) +
                " iterations but the policy allows " +
                std::to_string(MaxStages));
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Modulo variable expansion: no cross-iteration live-range overlap.
//===----------------------------------------------------------------------===//

VerifyReport swp::verifyMVEPlan(const std::vector<ScheduleUnit> &Units,
                                const Schedule &Sched, unsigned II,
                                const MVEPlan &Plan,
                                const std::set<unsigned> &Expanded) {
  std::vector<uint8_t> Mask(Expanded.empty() ? 0 : *Expanded.rbegin() + 1, 0);
  for (unsigned Id : Expanded)
    Mask[Id] = 1;
  return verifyMVEPlan(Units, Sched, II, Plan, Mask);
}

VerifyReport swp::verifyMVEPlan(const std::vector<ScheduleUnit> &Units,
                                const Schedule &Sched, unsigned II,
                                const MVEPlan &Plan,
                                std::span<const uint8_t> Expanded) {
  VerifyReport R;
  if (II == 0) {
    R.add(VerifyErrorKind::BadII, "initiation interval is zero");
    return R;
  }
  if (Plan.Unroll == 0) {
    R.add(VerifyErrorKind::MVEBadUnroll, "kernel unroll degree is zero");
    return R;
  }
  auto IsExpanded = [&](unsigned Id) {
    return Id < Expanded.size() && Expanded[Id];
  };

  // Recompute each expanded register's live range under the schedule: the
  // value becomes visible at the earliest write commit and dies at the
  // last read. Iteration k and iteration k + copies share one physical
  // location, so the overlap-freedom condition is copies * II >= range.
  constexpr int64_t None = std::numeric_limits<int64_t>::min();
  std::vector<int64_t> FirstCommit(Expanded.size(), None),
      LastRead(Expanded.size(), None);
  for (unsigned I = 0; I != Units.size(); ++I) {
    if (!Sched.isScheduled(I))
      continue; // verifyModuloSchedule reports this.
    int64_t T = Sched.startOf(I);
    for (const ScheduleUnit::RegWrite &W : Units[I].writes()) {
      if (!IsExpanded(W.R.Id))
        continue;
      int64_t Commit = T + W.Offset + W.Latency;
      int64_t &F = FirstCommit[W.R.Id];
      F = F == None ? Commit : std::min(F, Commit);
    }
    for (const ScheduleUnit::RegRead &Rd : Units[I].reads()) {
      if (!IsExpanded(Rd.R.Id))
        continue;
      int64_t Read = T + Rd.Offset;
      int64_t &L = LastRead[Rd.R.Id];
      L = L == None ? Read : std::max(L, Read);
    }
  }

  for (unsigned Id = 0; Id != Expanded.size(); ++Id) {
    if (!Expanded[Id])
      continue;
    unsigned Copies = Plan.copiesOf(Id);
    if (Copies == 0 || Plan.Unroll % Copies != 0) {
      R.add(VerifyErrorKind::MVEBadUnroll,
            "register v" + std::to_string(Id) + " has " +
                std::to_string(Copies) +
                " copies, which does not divide the kernel unroll " +
                std::to_string(Plan.Unroll));
      continue;
    }
    if (FirstCommit[Id] == None || LastRead[Id] == None)
      continue; // Never written or never read: one location suffices.
    int64_t Range = LastRead[Id] - FirstCommit[Id] + 1;
    if (Range > static_cast<int64_t>(Copies) * II) {
      std::ostringstream OS;
      OS << "register v" << Id << " lives " << Range << " cycles (commit "
         << FirstCommit[Id] << " .. last read " << LastRead[Id] << ") but "
         << Copies << " copies at II=" << II << " cover only "
         << static_cast<int64_t>(Copies) * II
         << ": iteration k+" << Copies << " overwrites a live value";
      R.add(VerifyErrorKind::MVEOverlap, OS.str());
    }
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Emitted prolog / kernel / epilog structure.
//===----------------------------------------------------------------------===//

namespace {

/// Opcode histogram of one expected or emitted instruction slot.
using OpHistogram = std::map<Opcode, unsigned>;

std::string histogramDiff(const OpHistogram &Want, const OpHistogram &Got) {
  std::ostringstream OS;
  for (const auto &[Opc, N] : Want) {
    auto It = Got.find(Opc);
    unsigned Have = It == Got.end() ? 0 : It->second;
    if (Have != N)
      OS << " " << opcodeName(Opc) << " x" << Have << " (want " << N
         << ")";
  }
  for (const auto &[Opc, N] : Got)
    if (!Want.count(Opc))
      OS << " " << opcodeName(Opc) << " x" << N << " (want 0)";
  return OS.str();
}

} // namespace

VerifyReport swp::verifyPipelinedLoop(const VLIWProgram &Code,
                                      const PipelinedLoopLayout &L,
                                      const DepGraph &G,
                                      const Schedule &Sched) {
  return verifyPipelinedLoop(Code.Insts.expand(), L, G, Sched);
}

VerifyReport swp::verifyPipelinedLoop(std::span<const VLIWInst> Code,
                                      const PipelinedLoopLayout &L,
                                      const DepGraph &G,
                                      const Schedule &Sched) {
  VerifyReport R;
  if (L.II == 0) {
    R.add(VerifyErrorKind::BadII, "layout claims II = 0");
    return R;
  }
  if (L.Stages == 0 || L.Unroll == 0) {
    R.add(VerifyErrorKind::StructureMismatch,
          "layout claims zero stages or zero unroll");
    return R;
  }

  // Recompute each operation's stage and row from the flat schedule.
  struct FlatOp {
    Opcode Opc;
    unsigned Stage;
    unsigned Row;
  };
  std::vector<FlatOp> Flat;
  unsigned MaxStage = 0;
  for (unsigned I = 0; I != G.numNodes(); ++I) {
    if (!Sched.isScheduled(I)) {
      R.add(VerifyErrorKind::UnscheduledUnit,
            "unit " + std::to_string(I) + " has no issue cycle");
      return R;
    }
    for (const UnitOp &UO : G.unit(I).ops()) {
      int64_t Abs = static_cast<int64_t>(Sched.startOf(I)) + UO.Offset;
      if (Abs < 0) {
        R.add(VerifyErrorKind::NegativeStart,
              "operation issues at negative cycle " + std::to_string(Abs));
        return R;
      }
      FlatOp F{UO.Op.Opc, static_cast<unsigned>(Abs / L.II),
               static_cast<unsigned>(Abs % L.II)};
      MaxStage = std::max(MaxStage, F.Stage);
      Flat.push_back(F);
    }
  }
  if (MaxStage + 1 != L.Stages) {
    R.add(VerifyErrorKind::StageCountMismatch,
          "schedule spans " + std::to_string(MaxStage + 1) +
              " stages at II=" + std::to_string(L.II) +
              " but the layout claims " + std::to_string(L.Stages));
    return R;
  }

  if (L.end() > Code.size()) {
    R.add(VerifyErrorKind::StructureMismatch,
          "pipelined region [" + std::to_string(L.PrologBase) + ", " +
              std::to_string(L.end()) + ") extends past the " +
              std::to_string(Code.size()) +
              "-instruction program (truncated epilog?)");
    return R;
  }

  unsigned M = L.Stages, S = L.II, U = L.Unroll;
  size_t KernelLast = L.epilogBase() - 1;

  // Expected opcode multiset per instruction of the region.
  auto ExpectWindow = [&](size_t Base, const char *What, unsigned Window,
                          auto &&Member) {
    for (unsigned Row = 0; Row != S; ++Row) {
      OpHistogram Want;
      for (const FlatOp &F : Flat)
        if (F.Row == Row && Member(F))
          ++Want[F.Opc];
      size_t Index = Base + Row;
      OpHistogram Got;
      for (const MachOp &Op : Code[Index].Ops)
        ++Got[Op.Opc];
      if (Want != Got) {
        std::ostringstream OS;
        OS << What << " window " << Window << ", row " << Row
           << " (instruction " << Index << "): emitted ops differ from "
           << "the schedule:" << histogramDiff(Want, Got);
        R.add(VerifyErrorKind::StructureMismatch, OS.str());
      }
    }
  };

  // Prolog window w issues stages 0..w; iterate windows 0..m-2.
  for (unsigned W = 0; W + 1 < M; ++W)
    ExpectWindow(L.PrologBase + static_cast<size_t>(W) * S, "prolog", W,
                 [&](const FlatOp &F) { return F.Stage <= W; });
  // Kernel windows issue every stage.
  for (unsigned K = 0; K != U; ++K)
    ExpectWindow(L.kernelBase() + static_cast<size_t>(K) * S, "kernel", K,
                 [&](const FlatOp &F) {
                   (void)F;
                   return true;
                 });
  // Epilog window e drains stages e+1..m-1.
  for (unsigned E = 0; E + 1 < M; ++E)
    ExpectWindow(L.epilogBase() + static_cast<size_t>(E) * S, "epilog", E,
                 [&](const FlatOp &F) { return F.Stage >= E + 1; });

  // The kernel's last instruction loops back to the kernel head and
  // advances the loop variable by the unroll degree; nothing else in the
  // region may own the sequencer slot.
  const VLIWInst &Back = Code[KernelLast];
  if (Back.Ctrl.K != ControlOp::Kind::DecJumpPos)
    R.add(VerifyErrorKind::StructureMismatch,
          "kernel's final instruction " + std::to_string(KernelLast) +
              " does not carry the dec-and-branch backedge");
  else if (Back.Ctrl.Target != L.kernelBase())
    R.add(VerifyErrorKind::StructureMismatch,
          "kernel backedge targets instruction " +
              std::to_string(Back.Ctrl.Target) + ", expected the kernel "
              "head at " + std::to_string(L.kernelBase()));
  bool Advances = false;
  for (const AguOp &A : Back.Agu)
    if (A.LoopId == L.LoopId && A.Relative && !A.A.isValid() &&
        A.Imm == static_cast<int64_t>(U))
      Advances = true;
  if (!Advances)
    R.add(VerifyErrorKind::StructureMismatch,
          "kernel backedge does not advance loop variable i" +
              std::to_string(L.LoopId) + " by the unroll degree " +
              std::to_string(U));
  for (size_t I = L.PrologBase; I != L.end(); ++I)
    if (I != KernelLast &&
        Code[I].Ctrl.K != ControlOp::Kind::None)
      R.add(VerifyErrorKind::StructureMismatch,
            "unexpected control operation inside the pipelined region at "
            "instruction " + std::to_string(I));
  return R;
}
