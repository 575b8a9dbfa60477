//===- Simulator.cpp - Cycle-accurate VLIW execution ---------------------------===//
//
// Part of warp-swp. See Simulator.h. The per-cycle machinery lives in
// CellSim (shared with the array co-simulator); this entry point runs one
// cell to completion against a pre-filled input channel.
//
//===----------------------------------------------------------------------===//

#include "swp/Sim/Simulator.h"

#include "CellSim.h"

#include "swp/Support/Trace.h"

#include <string>

using namespace swp;
using namespace swp::simdetail;

SimResult swp::simulate(const VLIWProgram &Code, const Program &P,
                        const MachineDescription &MD,
                        const ProgramInput &Input, const SimOptions &Opts) {
  trace::Span SimSpan("simulate");
  Channel In, Out;
  In.Data = Input.InputQueue;
  In.Closed = true; // No producer: an over-pop is a hard error.

  CellSim Sim(Code, P, MD, Input, &In, &Out);
  CellSim::Status S = Sim.run(Opts.MaxCycles);
  if (S != CellSim::Status::Halted && S != CellSim::Status::Failed) {
    SimResult R = Sim.takeResult();
    R.State.Ok = false;
    R.State.Error = "cycle limit exceeded (runaway loop?)";
    return R;
  }
  SimResult R = Sim.takeResult();
  R.State.OutputQueue = std::move(Out.Data);
  if (SimSpan.active())
    SimSpan.args("\"cycles\": " + std::to_string(R.Cycles) +
                 ", \"ops\": " + std::to_string(R.State.DynOps) +
                 ", \"ok\": " + (R.State.Ok ? "true" : "false"));
  return R;
}
