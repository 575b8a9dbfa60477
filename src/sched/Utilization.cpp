//===- Utilization.cpp - Machine-utilization metrics ----------------------------===//
//
// Part of warp-swp. See Utilization.h.
//
//===----------------------------------------------------------------------===//

#include "swp/Sched/Utilization.h"

#include "swp/Support/Json.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

using namespace swp;

double UtilizationReport::bottleneckOccupancy() const {
  double Best = 0.0;
  for (const ResourceUtilization &R : Resources)
    Best = std::max(Best, R.occupancy(ExecCycles));
  return Best;
}

void UtilizationReport::print(std::ostream &OS) const {
  size_t NameWidth = 8;
  for (const ResourceUtilization &R : Resources)
    NameWidth = std::max(NameWidth, R.Name.size());

  char Buf[160];
  OS << "machine utilization over " << ExecCycles << " executed cycle"
     << (ExecCycles == 1 ? "" : "s");
  if (StallCycles)
    OS << " (+" << StallCycles << " stalled)";
  OS << ":\n";
  for (const ResourceUtilization &R : Resources) {
    double Occ = R.occupancy(ExecCycles);
    int Bar = static_cast<int>(Occ * 32.0 + 0.5);
    std::snprintf(Buf, sizeof(Buf), "  %-*s x%-2u %6.1f%%  |",
                  static_cast<int>(NameWidth), R.Name.c_str(), R.Units,
                  Occ * 100.0);
    OS << Buf;
    for (int I = 0; I != 32; ++I)
      OS << (I < Bar ? '#' : '.');
    OS << "|\n";
  }
  std::snprintf(Buf, sizeof(Buf),
                "  issue fill: %.2f ops/cycle (%llu ops); bottleneck %.1f%%\n",
                issueFillRate(), static_cast<unsigned long long>(OpsIssued),
                bottleneckOccupancy() * 100.0);
  OS << Buf;
  if (StallCycles) {
    std::snprintf(Buf, sizeof(Buf),
                  "  stalls: %llu input, %llu output (%.1f%% of wall time)\n",
                  static_cast<unsigned long long>(InputStallCycles),
                  static_cast<unsigned long long>(OutputStallCycles),
                  Cycles ? 100.0 * StallCycles / Cycles : 0.0);
    OS << Buf;
  }
}

std::string UtilizationReport::toJson() const {
  std::ostringstream OS;
  // Keys in sorted order: the JSON schema is canonical, not declaration
  // order (golden snapshots depend on it).
  OS << "{\"bottleneck_occupancy\": " << bottleneckOccupancy()
     << ", \"cycles\": " << Cycles << ", \"exec_cycles\": " << ExecCycles
     << ", \"input_stall_cycles\": " << InputStallCycles
     << ", \"issue_fill\": " << issueFillRate()
     << ", \"ops_issued\": " << OpsIssued
     << ", \"output_stall_cycles\": " << OutputStallCycles
     << ", \"resources\": [";
  for (size_t I = 0; I != Resources.size(); ++I) {
    const ResourceUtilization &R = Resources[I];
    OS << (I ? ", " : "") << "{\"busy_unit_cycles\": " << R.BusyUnitCycles
       << ", \"name\": \"" << jsonEscape(R.Name) << "\""
       << ", \"occupancy\": " << R.occupancy(ExecCycles)
       << ", \"units\": " << R.Units << "}";
  }
  OS << "], \"stall_cycles\": " << StallCycles << "}";
  return OS.str();
}

UtilizationReport swp::scheduleUtilization(const DepGraph &G,
                                           const Schedule &Sched, unsigned II,
                                           const MachineDescription &MD) {
  UtilizationReport Rep;
  if (II == 0)
    return Rep;
  Rep.Cycles = II;
  Rep.ExecCycles = II;
  Rep.Resources.reserve(MD.numResources());
  for (unsigned R = 0; R != MD.numResources(); ++R)
    Rep.Resources.push_back({MD.resource(R).Name, MD.resource(R).Units, 0});
  for (unsigned I = 0; I != G.numNodes(); ++I) {
    if (!Sched.isScheduled(I))
      continue;
    Rep.OpsIssued += G.unit(I).ops().size();
    for (const ResourceUse &Use : G.unit(I).reservation())
      Rep.Resources[Use.ResId].BusyUnitCycles += Use.Units;
  }
  return Rep;
}
