//===- StressHarness.cpp - long-running stress / soak driver -------------------===//
//
// Part of warp-swp.
//
// The soak harness: a standalone binary that hammers the whole stack —
// random programs, compile budgets, forced degradation rungs, and fault
// injection — for as many iterations as asked, checking correctness
// (interpreter-vs-simulator differential) and resource hygiene (RSS
// growth) as it goes. Every iteration is
// derived deterministically from a single seed, so any failure prints a
// one-line repro that re-runs exactly that iteration.
//
//   swp_stress [--iterations=N] [--seed=S] [--quiet]
//
// The harness enables the global metrics registry and reads its
// snapshot() after every iteration: the scheduler search counter must
// never go backwards, and a run of 20 or more iterations must leave the
// II-gap histogram split by at least two target labels.
//
// Iterations alternate the target machine by seed parity (warp-cell /
// warp-cell-x2), so the per-target metric split sees both machines;
// the repro line reproduces the target along with everything else.
//
// ctest wires two instances: `stress_smoke` (a few dozen iterations, part
// of the default suite) and `stress_soak` (500 iterations, label "soak",
// run via `ctest -C soak`, also under the asan/tsan presets).
//
// Exit code: 0 when every iteration passed and RSS stayed bounded, 1
// otherwise.
//
//===----------------------------------------------------------------------===//

#include "swp/API/Session.h"
#include "swp/Metrics/Metrics.h"
#include "swp/Support/FaultInject.h"
#include "swp/Verify/Differential.h"

#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>

using namespace swp;

namespace {

/// Resident set size in MiB, from /proc/self/statm (Linux; returns 0
/// where unavailable, which disables the growth check).
double rssMiB() {
  FILE *F = std::fopen("/proc/self/statm", "r");
  if (!F)
    return 0.0;
  unsigned long Size = 0, Resident = 0;
  int Got = std::fscanf(F, "%lu %lu", &Size, &Resident);
  std::fclose(F);
  if (Got != 2)
    return 0.0;
  return Resident * 4096.0 / (1024.0 * 1024.0);
}

/// What one iteration exercises. Drawn from the iteration's own RNG so a
/// single-iteration rerun reproduces the mode too.
enum class StressMode : unsigned {
  Plain,        ///< Ordinary differential run.
  Budget,       ///< Tight compile budget; degradation must stay correct.
  ForcedRung,   ///< --min-rung style forced ladder walk.
  Chaos,        ///< One injected fault; compile must fail clean or recover.
  NumModes,
};

const char *modeName(StressMode M) {
  switch (M) {
  case StressMode::Plain:
    return "plain";
  case StressMode::Budget:
    return "budget";
  case StressMode::ForcedRung:
    return "forced-rung";
  case StressMode::Chaos:
    return "chaos";
  case StressMode::NumModes:
    break;
  }
  return "?";
}

/// Runs one deterministic iteration; returns an empty string on success
/// or a description of the failure.
std::string runIteration(uint64_t IterSeed, const MachineDescription &MD,
                         std::string &ModeOut) {
  std::mt19937_64 Rng(IterSeed);
  auto Mode = static_cast<StressMode>(
      Rng() % static_cast<unsigned>(StressMode::NumModes));
  ModeOut = modeName(Mode);

  RandomLoopOptions Gen; // All features on.
  WorkloadSpec Spec = randomLoopSpec(IterSeed, Gen);
  CompilerOptions Base;

  switch (Mode) {
  case StressMode::Plain:
    break;
  case StressMode::Budget:
    // Tight enough to trip on many generated programs, loose enough that
    // some compiles finish clean: both halves of the ladder get soaked.
    Base.Budget.MaxNodes = 20 + Rng() % 400;
    if (Rng() % 2)
      Base.Budget.MaxIntervals = 1 + Rng() % 8;
    break;
  case StressMode::ForcedRung:
    Base.MinLadderRung = 1 + static_cast<unsigned>(Rng() % 2);
    break;
  case StressMode::Chaos: {
    // One injected fault in a pipelined ParanoidVerify compile: the
    // compiler must either fail with a structured error or recover and
    // produce clean code — never crash, never emit silently-bad code.
    auto Site = static_cast<faults::Site>(Rng() % faults::NumSites);
    unsigned Occurrence = static_cast<unsigned>(Rng() % 4);
    CompilerOptions Opts;
    Opts.ParanoidVerify = true;
    Opts.ChaosSeed = faults::chaosSeed(Site, Occurrence);
    BuiltWorkload W = Spec.Make();
    DiagnosticEngine DE;
    // Routed through the session façade (in-place path) so the soak also
    // exercises the public API entry point under fault injection.
    static Session Sess;
    CompileResponse Resp = Sess.compileNow(*W.Prog, MD, &Opts, &DE);
    CompileResult &CR = Resp.Result;
    if (CR.Ok && !CR.Report.VerifyErrors.empty())
      return std::string("chaos site ") + faults::siteName(Site) +
             ": compile reported Ok with verifier findings";
    if (!CR.Ok && CR.Error.empty())
      return std::string("chaos site ") + faults::siteName(Site) +
             ": compile failed without a structured error";
    return "";
  }
  case StressMode::NumModes:
    break;
  }

  DiffOutcome D = runDifferential(Spec, MD, Base);
  if (!D.Ok)
    return D.Error;
  return "";
}

/// How many `target` labels the series of histogram \p Name carry.
unsigned targetLabels(const metrics::MetricsSnapshot &S, const char *Name) {
  unsigned Count = 0;
  for (const metrics::SnapshotHistogram &H : S.Histograms)
    if (H.Name == Name && H.Labels.find("target=") != std::string::npos)
      ++Count;
  return Count;
}

} // namespace

int main(int argc, char **argv) {
  unsigned Iterations = 100;
  uint64_t Seed = 9000;
  bool Quiet = false;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--iterations=", 0) == 0) {
      Iterations = static_cast<unsigned>(
          std::strtoul(Arg.c_str() + 13, nullptr, 10));
    } else if (Arg.rfind("--seed=", 0) == 0) {
      Seed = std::strtoull(Arg.c_str() + 7, nullptr, 10);
    } else if (Arg == "--quiet") {
      Quiet = true;
    } else {
      std::fprintf(stderr, "usage: swp_stress [--iterations=N] [--seed=S] "
                           "[--quiet]\n");
      return 1;
    }
  }

  metrics::setEnabled(true);
  const metrics::MetricsRegistry &Registry = metrics::MetricsRegistry::global();

  // Seed-parity target mix: half the iterations compile for the Warp
  // cell, half for its doubled-resource variant, so the per-target
  // metric split always sees both machines. Parity rides the IterSeed,
  // so the printed repro line lands on the same machine.
  MachineDescription MDs[2] = {MachineDescription::warpCell(),
                               MachineDescription::scaledWarpCell(2)};
  unsigned Failures = 0;
  uint64_t LastSearches = 0;
  double BaselineRss = 0.0;
  const unsigned ReportEvery =
      Iterations >= 10 ? Iterations / 10 : Iterations + 1;

  for (unsigned I = 0; I < Iterations; ++I) {
    uint64_t IterSeed = Seed + I;
    const MachineDescription &MD = MDs[IterSeed % 2];
    std::string Mode;
    std::string Err = runIteration(IterSeed, MD, Mode);
    if (!Err.empty()) {
      ++Failures;
      std::fprintf(stderr,
                   "FAIL iter %u (mode %s): %s\n  repro: swp_stress "
                   "--seed=%llu --iterations=1\n",
                   I, Mode.c_str(), Err.c_str(),
                   static_cast<unsigned long long>(IterSeed));
    }
    // RSS baseline after warm-up (allocator pools, lazy statics); growth
    // past it by more than the threshold reads as a leak.
    if (I == 9 || (I == Iterations - 1 && BaselineRss == 0.0))
      BaselineRss = rssMiB();
    if (!Quiet && (I + 1) % ReportEvery == 0)
      std::printf("swp_stress: %u/%u iterations, %u failures, rss %.1f "
                  "MiB\n",
                  I + 1, Iterations, Failures, rssMiB());

    // The registry is process-wide and monotonic: whatever this
    // iteration compiled, the search counter cannot have gone backwards.
    uint64_t Searches =
        Registry.snapshot().counterTotal("swp_sched_searches_total");
    if (Searches < LastSearches) {
      ++Failures;
      std::fprintf(stderr,
                   "FAIL iter %u: search counter went backwards (%llu -> "
                   "%llu)\n",
                   I, static_cast<unsigned long long>(LastSearches),
                   static_cast<unsigned long long>(Searches));
    }
    LastSearches = Searches;
  }

  // A run long enough to schedule loops on both machines must leave the
  // II-gap histogram split by at least two targets.
  if (Iterations >= 20) {
    unsigned Targets = targetLabels(Registry.snapshot(), "swp_sched_ii_gap");
    if (Targets < 2) {
      ++Failures;
      std::fprintf(stderr,
                   "FAIL: swp_sched_ii_gap split by %u target labels "
                   "(want >= 2)\n",
                   Targets);
    }
  }

  double FinalRss = rssMiB();
  // Sanitizer allocators retain quarantine/redzone/shadow state, so RSS
  // grows linearly with work even when nothing leaks (LeakSanitizer is
  // the leak oracle in those builds); the watch only gates plain builds,
  // where 500 iterations hold within a MiB of the warm baseline.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SWP_STRESS_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SWP_STRESS_UNDER_SANITIZER 1
#endif
#endif
#ifdef SWP_STRESS_UNDER_SANITIZER
  constexpr bool RssWatchArmed = false;
#else
  constexpr bool RssWatchArmed = true;
#endif
  constexpr double RssGrowthLimitMiB = 300.0;
  bool RssBlewUp = RssWatchArmed && BaselineRss > 0.0 &&
                   FinalRss - BaselineRss > RssGrowthLimitMiB;
  if (RssBlewUp)
    std::fprintf(stderr,
                 "FAIL rss grew %.1f MiB (baseline %.1f, final %.1f): "
                 "possible leak\n",
                 FinalRss - BaselineRss, BaselineRss, FinalRss);

  std::printf("swp_stress: %u iterations, %u failures, rss %.1f -> %.1f "
              "MiB\n",
              Iterations, Failures, BaselineRss, FinalRss);
  return (Failures == 0 && !RssBlewUp) ? 0 : 1;
}
