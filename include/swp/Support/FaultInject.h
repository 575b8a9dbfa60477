//===- swp/Support/FaultInject.h - Deterministic fault injection -*- C++ -*-===//
//
// Part of warp-swp. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic, seed-addressable fault injection for robustness testing.
/// The compiler is a heuristic search under hard budgets; this layer lets
/// tests prove that every internal failure mode — allocation failure,
/// scheduler slot exhaustion, a lying recurrence bound, a worker thread
/// stalling or dying mid-search, a corrupted schedule or emission — either
/// recovers, degrades to a verifier-clean fallback, or surfaces as a
/// structured failure. Never a crash, never a hang.
///
/// Addressing: each fault point in the compiler is a \c Site. A chaos seed
/// names exactly one (site, occurrence) pair via \c chaosSeed(), so a
/// sweep over seeds walks every dynamic occurrence of every site one at a
/// time, deterministically. Seed 0 means "no fault".
///
/// Cost model (mirrors swp/Support/Trace.h):
///   - compile-time off (-DSWP_FAULTS_ENABLED=0): every probe compiles to
///     a constant-false; the library contains no injection state at all —
///     the configuration for production/benchmark builds;
///   - compiled in but disarmed (the default at runtime): one relaxed
///     atomic load per probe;
///   - armed: one relaxed load plus one per-site counter increment.
///
/// Arming is process-global (the compiler is instrumented at module scope,
/// not per-instance); CompilerOptions::ChaosSeed arms for the duration of
/// one compileProgram call via ScopedArm.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_SUPPORT_FAULTINJECT_H
#define SWP_SUPPORT_FAULTINJECT_H

#include <cstdint>
#include <stdexcept>

/// Compile-time master switch. Off removes every fault probe from the
/// binary; the runtime API degrades to no-ops that report !compiledIn().
#ifndef SWP_FAULTS_ENABLED
#define SWP_FAULTS_ENABLED 1
#endif

namespace swp {
namespace faults {

/// The addressable fault points.
enum class Site : uint8_t {
  OomAllocation,  ///< Allocation failure entering a loop's pipeline attempt.
  SlotExhaustion, ///< Scheduler attempt rejected as if every slot clashed.
  RecMIIInflate,  ///< Recurrence bound artificially inflated (worse II).
  WorkerStall,    ///< Parallel-search worker sleeps mid-task.
  WorkerDeath,    ///< Parallel-search worker throws mid-task.
  CorruptSchedule,///< Modulo schedule perturbed before ParanoidVerify.
  CorruptEmission,///< Emitted region perturbed before the emission check.
};
constexpr unsigned NumSites = 7;

/// Stable lowercase tag for a site ("worker-death").
const char *siteName(Site S);

/// The exception a WorkerDeath fault throws inside a pool task. Distinct
/// from real failures so containment tests can tell them apart.
class InjectedFault : public std::runtime_error {
public:
  explicit InjectedFault(Site S);
  Site site() const { return S; }

private:
  Site S;
};

/// True when the binary contains fault probes.
constexpr bool compiledIn() { return SWP_FAULTS_ENABLED != 0; }

/// Encodes (site, occurrence) as a nonzero chaos seed: sweeping
/// Occurrence = 0, 1, 2, ... walks successive dynamic hits of \p S.
constexpr uint64_t chaosSeed(Site S, unsigned Occurrence) {
  return 1 + static_cast<uint64_t>(S) +
         static_cast<uint64_t>(NumSites) * Occurrence;
}

/// Arms the process-global injector with \p Seed (0 disarms). Resets all
/// occurrence counters. No-op when compiled out.
void arm(uint64_t Seed);
void disarm();
bool armed();

/// Probes the fault point \p S: returns true exactly when the injector is
/// armed for \p S and this is the armed occurrence. Each call while armed
/// advances the site's occurrence counter, so a sweep over occurrences
/// terminates: once the counter passes every dynamic hit, later seeds
/// never fire (observable via fired()).
bool shouldFire(Site S);

/// True when the armed fault has fired at least once.
bool fired();

/// Dynamic hits of \p S since arming (for occurrence-sweep tests).
uint64_t hitCount(Site S);

/// RAII arming for one compilation; no-op when \p Seed is 0 or when
/// already armed (nested compiles keep the outer seed).
class ScopedArm {
public:
  explicit ScopedArm(uint64_t Seed);
  ~ScopedArm();
  ScopedArm(const ScopedArm &) = delete;
  ScopedArm &operator=(const ScopedArm &) = delete;

private:
  bool Engaged = false;
};

} // namespace faults
} // namespace swp

#endif // SWP_SUPPORT_FAULTINJECT_H
