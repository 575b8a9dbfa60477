//===- perfbench/Bench.h - End-to-end benchmark plumbing --------*- C++ -*-===//
//
// Part of warp-swp. See perfbench/README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the end-to-end benchmark: the run options, the metric
/// list a workload fills in, the per-layer ledger of the traced run, the
/// exact counts of one pass over a workload's distinct programs, and the
/// latency statistics. Each workload lives in its own source file and
/// drives the library only through its public headers.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_PERFBENCH_BENCH_H
#define SWP_PERFBENCH_BENCH_H

#include "swp/Codegen/Compiler.h"
#include "swp/Support/Trace.h"
#include "swp/Workloads/Workloads.h"

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

namespace swp {
class Session;
} // namespace swp

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}
inline double msSince(Clock::time_point T0) {
  return msBetween(T0, Clock::now());
}
inline Clock::time_point after(Clock::time_point T, double Seconds) {
  return T + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(Seconds));
}

/// Command-line settings of one run.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  std::string TracePath; ///< Perfetto JSON written by the traced run.
};

/// Set-up repetitions before the timed window (the last one is kept) and
/// after it; setup_s is the median of all of them, so one moment of host
/// load cannot set it.
constexpr unsigned SetupRepsBefore = 5, SetupRepsAfter = 4;

/// One reported number.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What a workload hands back to main: counts, metrics and the first few
/// failure messages (every failure is counted, not every one is kept).
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  std::vector<std::string> Errors;
  /// Human-readable lines printed before the metrics (shares, notes).
  std::vector<std::string> Notes;

  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
  void fail(const std::string &What);
};

/// Runs \p SetUp (returning a std::unique_ptr to the workload's state)
/// \p Reps times, appending each duration in seconds to \p Times, and
/// returns the last state. The last set-up's failures land in \p Out.
template <typename Fn>
auto timedSetUps(unsigned Reps, std::vector<double> &Times, Outcome &Out,
                 Fn &&SetUp) -> decltype(SetUp(Out)) {
  decltype(SetUp(Out)) U;
  for (unsigned Rep = 0; Rep != Reps; ++Rep) {
    U.reset();
    Outcome RepOut;
    Clock::time_point T0 = Clock::now();
    U = SetUp(RepOut);
    Times.push_back(msSince(T0) / 1000.0);
    if (Rep + 1 == Reps) {
      Out.Failed += RepOut.Failed;
      Out.Errors.insert(Out.Errors.end(), RepOut.Errors.begin(),
                        RepOut.Errors.end());
    }
  }
  return U;
}

//===----------------------------------------------------------------------===//
// Exact counts.
//===----------------------------------------------------------------------===//

/// Deterministic totals over one pass of a workload's distinct programs.
/// They repeat exactly for a seed, so a schedule change reads as a changed
/// count rather than as noise.
struct ExactCounts {
  uint64_t SimCycles = 0;
  uint64_t CodeWords = 0;
  uint64_t SumII = 0;  ///< Achieved II summed over pipelined loops.
  uint64_t SumMII = 0; ///< MII summed over the same loops.
  uint64_t IntervalsTried = 0;
  uint64_t SlotsProbed = 0;
  uint64_t LoopsPipelined = 0;
  uint64_t LoopsDegraded = 0;

  /// Adds the compile-side counts of \p R (not SimCycles).
  void addCompile(const swp::CompileResult &R);
};

//===----------------------------------------------------------------------===//
// The per-layer ledger of the traced run.
//===----------------------------------------------------------------------===//

/// The layers the benchmark times from outside, named as in the metrics.
enum class Layer : unsigned {
  Make,        ///< WorkloadSpec::Make: parse and lower, or generation.
  Transforms,  ///< expandLibraryOps plus the DCE/LICM/LVN fixpoint.
  Reduce,      ///< prepareLoopForCodegen plus reduceBodyToUnits.
  DdgBuild,    ///< buildLoopDepGraph.
  ModSched,    ///< moduloSchedule.
  Compile,     ///< The whole Session::compileNow call.
  Simulate,    ///< simulate.
  Interpret,   ///< interpret.
  Compare,     ///< compareStates.
  Fingerprint, ///< CompileService::jobKey.
  Queue,       ///< From issuing a request to its factory starting.
  Count
};

/// Metric name of a layer's time ("sim.simulate_ms"); also its span name.
const char *layerMetric(Layer L);

/// Time and call totals per layer, filled by one thread.
class Ledger {
public:
  void add(Layer L, double Ms) {
    Ms_[static_cast<unsigned>(L)] += Ms;
    ++Calls_[static_cast<unsigned>(L)];
  }
  double ms(Layer L) const { return Ms_[static_cast<unsigned>(L)]; }
  uint64_t calls(Layer L) const { return Calls_[static_cast<unsigned>(L)]; }

private:
  std::array<double, static_cast<unsigned>(Layer::Count)> Ms_{};
  std::array<uint64_t, static_cast<unsigned>(Layer::Count)> Calls_{};
};

/// Attaches request id \p Req to \p S when the span is recorded.
inline void tagRequest(swp::trace::Span &S, uint64_t Req) {
  if (S.active())
    S.args("\"req\": " + std::to_string(Req));
}

/// Runs \p F as one call into layer \p L. With a ledger, the call is
/// timed, charged to the ledger and wrapped in a trace span carrying
/// request id \p Req; without one it is a plain call, so the untraced
/// run pays nothing for the instrumentation.
template <typename Fn>
auto timed(Ledger *Led, Layer L, uint64_t Req, Fn &&F) -> decltype(F()) {
  if (!Led)
    return F();
  swp::trace::Span S(layerMetric(L));
  tagRequest(S, Req);
  Clock::time_point T0 = Clock::now();
  auto R = F();
  Led->add(L, msSince(T0));
  return R;
}

/// The compiler probe: compiles a fresh instance of \p Spec through \p S
/// (timed as Layer::Compile), then re-runs the compiler's inner layers
/// (transforms, reduction, DDG build, modulo scheduling) on a second
/// fresh instance, timing each. Only loops the compile actually
/// modulo-scheduled are scheduled again. Returns false when the probe
/// compile fails.
bool probeCompileLayers(swp::Session &S, const swp::WorkloadSpec &Spec,
                        const swp::MachineDescription &MD, uint64_t Req,
                        Ledger &Led);

/// Runs \p F on a thread of its own, named \p Name in the trace, and
/// waits for it. Its spans fill their own trace buffer instead of
/// overwriting the calling thread's. An exception fails \p Out.
void onOwnThread(const std::string &Name, const std::function<void()> &F,
                 Outcome &Out);

/// Times CompileService::jobKey on a fresh instance of \p Spec under the
/// session's default options.
void probeFingerprint(const swp::WorkloadSpec &Spec,
                      const swp::MachineDescription &MD, uint64_t Req,
                      Ledger &Led);

//===----------------------------------------------------------------------===//
// The reported metric sets.
//===----------------------------------------------------------------------===//

/// Latency percentiles of a set of samples, in ms.
struct LatencySummary {
  double P50 = 0, P99 = 0;
  size_t Samples = 0, BeyondP99 = 0;
};
LatencySummary summarize(std::vector<double> Ms);

/// Length a timed window's repetitions aim for; the window is split into
/// round(seconds / RepetitionS) of them.
constexpr double RepetitionS = 2.5;

/// One repetition of a timed window.
struct Repetition {
  LatencySummary Latency;
  double Rps = 0;
};

/// The requests one timed window completed: when each finished and how
/// long it took. End-to-end timings come from the window's best
/// repetition, the one that completed the most requests: on a shared host
/// a burst of contention slows whole seconds at a time, and the best
/// repetition is the one it touched least (the min-of-repetitions rule of
/// timing on a noisy machine, applied to a closed loop).
class WindowSamples {
public:
  WindowSamples() = default;
  WindowSamples(Clock::time_point Start, double Seconds)
      : Start(Start), Seconds(Seconds) {}

  void add(Clock::time_point Done, double Ms) {
    DoneS.push_back(std::chrono::duration<double>(Done - Start).count());
    LatencyMs.push_back(Ms);
  }
  size_t size() const { return LatencyMs.size(); }
  double totalMs() const;
  /// Every repetition, in time order.
  std::vector<Repetition> repetitions() const;

private:
  Clock::time_point Start;
  double Seconds = 0;
  std::vector<double> DoneS, LatencyMs;
};

/// The repetition of \p Reps with the highest throughput.
const Repetition &best(const std::vector<Repetition> &Reps);

/// The untraced run's numbers (the `end_to_end` set).
struct EndToEnd {
  double SetupS = 0;
  std::vector<Repetition> Reps; ///< Of the timed window.
  ExactCounts Counts;
};
void addEndToEnd(const EndToEnd &E, Outcome &Out);

/// The traced run's numbers (the `per_layer` set). Layer times are mean
/// ms per request.
struct LayerMetrics {
  std::array<double, static_cast<unsigned>(Layer::Count)> Ms{};
  double OtherMs = 0; ///< Derived: compile minus its four probed layers.
  double McyclesPerS = 0;
  ExactCounts Counts;
  double ReuseFrac = 0, ServiceRequests = 0, ServiceCompiles = 0;
  double QueueDepthMean = 0;
  double CoveredFrac = 0;  ///< Layer time over wall time of a request.
  double OverheadFrac = 0; ///< 1 - traced / untraced throughput.
  double TracedRequests = 0;

  double &ms(Layer L) { return Ms[static_cast<unsigned>(L)]; }
  double ms(Layer L) const { return Ms[static_cast<unsigned>(L)]; }
};
void addLayerMetrics(const LayerMetrics &M, Outcome &Out);

/// Notes giving each of \p Path's layers as a share of \p MeanWallMs,
/// the ceiling on what speeding that layer up can save.
void addShares(const LayerMetrics &M, double MeanWallMs,
               std::initializer_list<Layer> Path, Outcome &Out);

//===----------------------------------------------------------------------===//
// Statistics and helpers.
//===----------------------------------------------------------------------===//

double median(std::vector<double> V);

/// Peak resident set of this process, in MiB.
double peakRssMb();

/// splitmix64: derives independent program seeds from the workload seed.
uint64_t mixSeed(uint64_t Seed, uint64_t Stream, uint64_t Index);

/// Canonical bytes of emitted code: every field of every instruction, the
/// live-in placement and the register high-water marks. Two compiles
/// produced the same code iff their encodings are equal. Raw fields, not
/// vliwProgramToString: the service check runs on every response, and
/// formatting text would cost the generator as much as a memo hit.
void encodeCode(const swp::VLIWProgram &Code, std::string &Out);

/// 64-bit FNV-1a of \p Bytes.
uint64_t digest(const std::string &Bytes);

//===----------------------------------------------------------------------===//
// Workloads.
//===----------------------------------------------------------------------===//

/// `livermore` and `random-loops`: compile-and-verify requests.
Outcome runCompileVerify(const RunOptions &Opts);

/// `service-repeat`: Session::submit requests through the memo.
Outcome runServiceRepeat(const RunOptions &Opts);

} // namespace perfbench

#endif // SWP_PERFBENCH_BENCH_H
