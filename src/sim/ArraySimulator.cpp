//===- ArraySimulator.cpp - Warp-array co-simulation ----------------------------===//
//
// Part of warp-swp. See ArraySimulator.h. Cells advance in lock step,
// left to right; a word sent in cycle t is receivable by the right
// neighbor in the same lock-step cycle (the Recv's own latency still
// applies). Stalls are local: a cell waiting on an empty input or full
// output queue holds its program counter while its in-flight results
// land.
//
//===----------------------------------------------------------------------===//

#include "swp/Sim/ArraySimulator.h"

#include "CellSim.h"

#include <memory>

using namespace swp;
using namespace swp::simdetail;

ArrayRunResult swp::simulateLinearArray(const std::vector<ArrayCell> &Cells,
                                        const MachineDescription &MD,
                                        const std::vector<float> &ArrayInput,
                                        const ArrayOptions &Opts) {
  ArrayRunResult Out;
  if (Cells.empty()) {
    Out.Error = "empty array";
    return Out;
  }

  // Channel 0 carries the array input; channel i feeds cell i from cell
  // i-1; the last channel collects the array output.
  std::vector<Channel> Channels(Cells.size() + 1);
  Channels.front().Data = ArrayInput;
  Channels.front().Closed = true;
  for (size_t I = 1; I + 1 < Channels.size(); ++I)
    Channels[I].Capacity = Opts.ChannelCapacity;

  std::vector<std::unique_ptr<CellSim>> Sims;
  for (size_t I = 0; I != Cells.size(); ++I) {
    assert(Cells[I].Code && Cells[I].Prog && "array cell not populated");
    Sims.push_back(std::make_unique<CellSim>(
        *Cells[I].Code, *Cells[I].Prog, MD, Cells[I].Input, &Channels[I],
        &Channels[I + 1]));
  }

  uint64_t Cycle = 0;
  while (true) {
    if (Cycle >= Opts.MaxCycles) {
      Out.Error = "array cycle limit exceeded";
      return Out;
    }
    bool AnyLive = false;
    bool AnyProgress = false;
    for (size_t I = 0; I != Sims.size(); ++I) {
      CellSim &Sim = *Sims[I];
      if (Sim.status() == CellSim::Status::Halted)
        continue;
      if (Sim.status() == CellSim::Status::Failed) {
        Out.Error = "cell " + std::to_string(I) + ": " +
                    Sims[I]->takeResult().State.Error;
        return Out;
      }
      AnyLive = true;
      CellSim::Status S = Sim.step();
      if (S == CellSim::Status::Failed) {
        SimResult R = Sim.takeResult();
        Out.Error = "cell " + std::to_string(I) + ": " + R.State.Error;
        return Out;
      }
      if (S != CellSim::Status::Stalled)
        AnyProgress = true;
      // A producer that halted closes its output channel so the consumer
      // can distinguish "wait" from "starved forever".
      if (S == CellSim::Status::Halted)
        Channels[I + 1].Closed = true;
    }
    if (!AnyLive)
      break;
    if (!AnyProgress) {
      Out.Error = "array deadlock: every live cell stalled on channel "
                  "flow control";
      return Out;
    }
    ++Cycle;
  }

  Out.Cycles = Cycle;
  for (size_t I = 0; I != Sims.size(); ++I) {
    // A halted cell can still fail while its in-flight results drain.
    SimResult R = Sims[I]->takeResult();
    if (!R.State.Ok && Out.Error.empty())
      Out.Error = "cell " + std::to_string(I) + ": " + R.State.Error;
    Out.StallCycles.push_back(Sims[I]->stallCycles());
    Out.TotalFlops += R.State.Flops;
    Out.Cells.push_back(std::move(R));
  }
  if (Cycle > 0)
    Out.ArrayMFLOPS = static_cast<double>(Out.TotalFlops) * MD.clockMHz() /
                      static_cast<double>(Cycle);
  Channel &Last = Channels.back();
  Out.ArrayOutput.assign(Last.Data.begin() + Last.ReadCursor,
                         Last.Data.end());
  Out.Ok = Out.Error.empty();
  return Out;
}
