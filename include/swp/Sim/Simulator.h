//===- swp/Sim/Simulator.h - Cycle-accurate VLIW execution ------*- C++ -*-===//
//
// Part of warp-swp. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a VLIW program on the modeled cell, cycle by cycle, and
/// produces the same final-state contract as the scalar interpreter — so a
/// pipelined program can be validated bit-for-bit against sequential
/// semantics. Timing rules match the dependence model used by the
/// scheduler:
///   - register reads sample at issue; a result with latency L is visible
///     from cycle issue+L on;
///   - loads sample memory at issue; stores commit at the end of their
///     cycle;
///   - AGU updates and the sequencer slot evaluate at the end of the
///     cycle;
///   - predicated operations whose guard is false have no effect.
/// The simulator also audits the code: dynamic resource over-subscription
/// among active operations, same-cycle write-write collisions on one
/// register, two active stores to one address in one cycle, and
/// out-of-bounds accesses all abort the run with an error. The cell stops
/// in the cycle of the first error (SimResult::Cycles) and reports that
/// error, so scheduler bugs surface as hard failures rather than wrong
/// numbers.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_SIM_SIMULATOR_H
#define SWP_SIM_SIMULATOR_H

#include "swp/Codegen/VLIWProgram.h"
#include "swp/IR/Execution.h"
#include "swp/Sched/Utilization.h"

namespace swp {

/// Final state plus cycle count.
struct SimResult {
  ProgramState State;
  uint64_t Cycles = 0;
  /// Single-precision MFLOPS at the machine's clock rate.
  double MFLOPS = 0.0;
  /// Dynamic machine utilization over the whole run: per-resource
  /// occupancy, issue-slot fill, and the stall breakdown.
  UtilizationReport Util;
};

/// Limits for one run.
struct SimOptions {
  uint64_t MaxCycles = 200'000'000; ///< Abort (as an error) beyond this.
};

/// Runs \p Code against \p Input. \p P supplies array metadata and the
/// live-in vreg ids referenced by Code.LiveInRegs.
SimResult simulate(const VLIWProgram &Code, const Program &P,
                   const MachineDescription &MD, const ProgramInput &Input,
                   const SimOptions &Opts = {});

} // namespace swp

#endif // SWP_SIM_SIMULATOR_H
