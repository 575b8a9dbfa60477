//===- swp/Verify/Differential.h - Interp-vs-sim differential ---*- C++ -*-===//
//
// Part of warp-swp. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential-testing harness: compile one workload twice (software
/// pipelining on and off), execute each compilation on the cycle-accurate
/// simulator, execute the scalar interpreter as the golden model, and
/// demand bit-identical final state everywhere — interpreter vs simulator
/// in both modes, and pipelined vs unpipelined simulation against each
/// other. Both compilations run under ParanoidVerify, so every emitted
/// schedule also passes the independent ScheduleVerifier before a single
/// cycle is simulated. A fuzzing driver repeats this over a seeded run of
/// random programs (see RandomLoopGen.h).
///
//===----------------------------------------------------------------------===//

#ifndef SWP_VERIFY_DIFFERENTIAL_H
#define SWP_VERIFY_DIFFERENTIAL_H

#include "swp/Codegen/Compiler.h"
#include "swp/Verify/RandomLoopGen.h"
#include "swp/Workloads/Workloads.h"

#include <cstdint>
#include <string>
#include <vector>

namespace swp {

/// Result of one differential run over a single workload.
struct DiffOutcome {
  std::string Name;
  bool Ok = false;
  /// First failure: compile error, verifier finding, runtime fault, or a
  /// state divergence (with the mismatching location).
  std::string Error;
  /// True when the pipelined compilation actually pipelined some loop
  /// (otherwise both modes emitted the same locally compacted code).
  bool Pipelined = false;
  uint64_t CyclesPipelined = 0;
  uint64_t CyclesBaseline = 0;
};

/// Runs the full differential check on \p Spec: interpreter vs simulator
/// with pipelining on, interpreter vs simulator with pipelining off,
/// pipelined vs unpipelined simulator state, and both simulations against
/// the interpreter run on an instance the scalar transforms never touched
/// (library ops expanded only). \p Base supplies everything but
/// EnablePipelining (forced per mode) and ParanoidVerify (forced on).
DiffOutcome runDifferential(const WorkloadSpec &Spec,
                            const MachineDescription &MD,
                            const CompilerOptions &Base = {});

/// Fuzzing campaign configuration.
struct FuzzOptions {
  uint64_t Seed = 2026;  ///< First seed; run covers [Seed, Seed + Count).
  unsigned Count = 200;  ///< Programs to generate and check.
  RandomLoopOptions Gen; ///< Feature toggles for generated programs.
};

/// Aggregate over one fuzzing campaign.
struct FuzzSummary {
  unsigned Ran = 0;       ///< Programs checked.
  unsigned Pipelined = 0; ///< Programs where some loop pipelined.
  std::vector<DiffOutcome> Failures;

  bool ok() const { return Failures.empty(); }
  /// Failure digest, one line per failed seed (empty when ok).
  std::string str() const;
};

/// Runs runDifferential over Count seeded random programs.
FuzzSummary runDifferentialFuzz(const FuzzOptions &Opts,
                                const MachineDescription &MD,
                                const CompilerOptions &Base = {});

} // namespace swp

#endif // SWP_VERIFY_DIFFERENTIAL_H
