//===- swp/Metrics/Metrics.h - Fleet metrics registry -----------*- C++ -*-===//
//
// Part of warp-swp. See DESIGN.md §12.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Aggregate service metrics: a process-wide registry of typed counters,
/// gauges, and fixed-bucket (log2) histograms, complementing the
/// per-compile trace layer (swp/Support/Trace.h) with process-wide
/// numbers — request latency, memo hit ratios, queue depth, and the
/// II-vs-MII optimality gap.
///
/// Recording goes through per-thread shards: each thread lazily attaches
/// one fixed array of relaxed atomics per registry and a record is one
/// (for counters/gauges) or two (for histograms: sum + bucket) relaxed
/// fetch_adds into its own shard, so there is no cross-thread cache-line
/// ping-pong on the hot path and the layer is race-free under TSan.
/// snapshot() merges all shards.
///
/// Cost model (mirrors Trace.h):
///   - disabled (the default): one relaxed atomic load per record, no
///     allocation, no locking;
///   - enabled: plus one or two relaxed fetch_adds on a thread-local
///     shard (first record on a thread pays a one-time shard setup).
///
/// Naming conventions (see DESIGN.md §12): every metric is `swp_`-
/// prefixed; monotonic counters end in `_total`; microsecond latency
/// histograms end in `_us`; labels are a preformatted Prometheus label
/// body without braces (`priority="high"`). Registration is idempotent:
/// the same (name, labels) returns a handle to the same cells. Each fact
/// has one series: a family split by `target` has no unlabeled copy, and
/// its aggregate is the sum over labels (counterTotal,
/// histogramCountTotal).
///
/// Exposition: one format. MetricsSnapshot::toPrometheusText renders the
/// Prometheus text format (`w2c --metrics[-out]`); in-process readers use
/// snapshot() directly.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_METRICS_METRICS_H
#define SWP_METRICS_METRICS_H

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace swp {
namespace metrics {

class MetricsRegistry;

/// Monotonic counter handle. Value-semantic, trivially copyable, safe to
/// keep in function-local statics at hot sites. A default-constructed
/// (or registration-failed) handle is inert.
class Counter {
public:
  Counter() = default;
  /// Adds \p N (relaxed, this thread's shard). No-op when the owning
  /// registry is disabled.
  void inc(uint64_t N = 1) const;

private:
  friend class MetricsRegistry;
  Counter(MetricsRegistry *R, uint32_t Slot) : R(R), Slot(Slot) {}
  MetricsRegistry *R = nullptr;
  uint32_t Slot = 0;
};

/// Additive gauge handle: a signed level tracked as deltas (the merged
/// sum over shards is interpreted two's-complement, so add on one thread
/// and sub on another still nets out). For values that are cheaper to
/// sample than to track, use MetricsRegistry::registerGauge.
class Gauge {
public:
  Gauge() = default;
  void add(int64_t Delta) const;
  void sub(int64_t Delta) const { add(-Delta); }

private:
  friend class MetricsRegistry;
  Gauge(MetricsRegistry *R, uint32_t Slot) : R(R), Slot(Slot) {}
  MetricsRegistry *R = nullptr;
  uint32_t Slot = 0;
};

/// Fixed-bucket log2 histogram handle: 32 buckets with upper bounds
/// 0, 1, 3, 7, ..., 2^30-1, +Inf. One record is two relaxed fetch_adds
/// (bucket + sum). Values are unsigned (microseconds, II gap, ...).
class Histogram {
public:
  static constexpr unsigned NumBuckets = 32;

  Histogram() = default;

  /// Bucket index for \p V: 0 for 0, else min(31, bit_width(V)), so
  /// bucket I (1 <= I <= 30) covers [2^(I-1), 2^I - 1] and bucket 31 is
  /// the overflow bucket [2^30, +Inf).
  static unsigned bucketIndex(uint64_t V) {
    return V == 0 ? 0u
                  : std::min(31u, static_cast<unsigned>(std::bit_width(V)));
  }

  /// Inclusive upper bound of bucket \p I (UINT64_MAX for the overflow
  /// bucket); the `le` label of its Prometheus `_bucket` line.
  static uint64_t bucketUpperBound(unsigned I) {
    if (I >= NumBuckets - 1)
      return std::numeric_limits<uint64_t>::max();
    return (uint64_t{1} << I) - 1;
  }

  void record(uint64_t V) const;
  /// Convenience: records \p S seconds as whole microseconds.
  void recordSeconds(double S) const {
    record(S <= 0 ? 0 : static_cast<uint64_t>(S * 1e6));
  }

private:
  friend class MetricsRegistry;
  Histogram(MetricsRegistry *R, uint32_t BaseSlot) : R(R), BaseSlot(BaseSlot) {}
  MetricsRegistry *R = nullptr;
  uint32_t BaseSlot = 0; ///< Sum slot; buckets follow at BaseSlot+1+i.
};

/// One merged counter value in a snapshot.
struct SnapshotCounter {
  std::string Name;
  std::string Labels; ///< Label body without braces; may be empty.
  std::string Help;
  uint64_t Value = 0;
};

/// One merged gauge value (tracked or callback-sampled).
struct SnapshotGauge {
  std::string Name;
  std::string Labels;
  std::string Help;
  double Value = 0;
};

/// One merged histogram.
struct SnapshotHistogram {
  std::string Name;
  std::string Labels;
  std::string Help;
  std::array<uint64_t, Histogram::NumBuckets> Buckets{};
  uint64_t Count = 0;
  uint64_t Sum = 0;
};

/// Point-in-time merge of every metric in a registry. Families are
/// sorted by (name, labels); rendering is deterministic given the same
/// recorded values, which is what the exposition goldens lock.
struct MetricsSnapshot {
  std::vector<SnapshotCounter> Counters;
  std::vector<SnapshotGauge> Gauges;
  std::vector<SnapshotHistogram> Histograms;

  /// Lookup helpers (nullptr when absent). Labels must match the
  /// registered label body exactly.
  const SnapshotCounter *counter(const std::string &Name,
                                 const std::string &Labels = "") const;
  const SnapshotGauge *gauge(const std::string &Name,
                             const std::string &Labels = "") const;
  const SnapshotHistogram *histogram(const std::string &Name,
                                     const std::string &Labels = "") const;

  /// Sum of Value over every counter whose name is \p Name (all labels).
  uint64_t counterTotal(const std::string &Name) const;
  /// Sum of Count over every histogram series named \p Name.
  uint64_t histogramCountTotal(const std::string &Name) const;

  /// Prometheus exposition text format: # HELP / # TYPE per family,
  /// cumulative _bucket{le="..."} + _sum + _count for histograms.
  std::string toPrometheusText() const;
};

/// A registry of metrics with per-thread sharded storage. Most code uses
/// the process-wide global() instance (never destroyed); tests construct
/// private registries for deterministic snapshots. Handles must not be
/// used after their registry is destroyed — for the global registry that
/// is never, which is why hot sites cache handles in local statics.
class MetricsRegistry {
public:
  /// Cells per shard; registrations beyond this are dropped (handles come
  /// back inert and droppedRegistrations() counts them). Sized for the
  /// per-target series fan-out: each target a process compiles for adds
  /// its own series of the latency histograms (33 cells each) and
  /// outcome counters.
  static constexpr size_t SlotCapacity = 4096;

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry &) = delete;
  MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  /// The lazily-constructed, intentionally leaked process-wide registry
  /// (mirrors trace's and ThreadPool::global()'s lifetime story).
  static MetricsRegistry &global();

  /// Runtime switch; disabled by default. Records while disabled are
  /// dropped (one relaxed load each); registration works regardless.
  bool enabled() const;
  void setEnabled(bool On);

  /// Registers (or finds) a metric. Idempotent on (Name, Labels); a kind
  /// conflict or slot exhaustion yields an inert handle.
  Counter counter(const std::string &Name, const std::string &Labels = "",
                  const std::string &Help = "");
  Gauge gauge(const std::string &Name, const std::string &Labels = "",
              const std::string &Help = "");
  Histogram histogram(const std::string &Name, const std::string &Labels = "",
                      const std::string &Help = "");

  /// Registers a gauge sampled by calling \p Fn at snapshot time (under
  /// the registry lock: Fn must be fast and must not call back into this
  /// registry). Returns false on (name, labels) conflict. Used for
  /// levels owned elsewhere: pool queue depth, RSS.
  bool registerGauge(const std::string &Name, const std::string &Labels,
                     const std::string &Help, std::function<double()> Fn);

  /// Merges every shard into a deterministic snapshot.
  MetricsSnapshot snapshot() const;

  /// Zeroes every cell in every shard (registrations and callback gauges
  /// survive). Test aid; racing recorders may leak a few counts in.
  void reset();

  /// Registrations refused (shard slots ran out, or a kind conflict on
  /// an existing (name, labels)).
  uint64_t droppedRegistrations() const;

private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  void recordAdd(uint32_t Slot, uint64_t Delta);
  void recordHistogram(uint32_t BaseSlot, uint64_t V);

  struct Impl;
  std::unique_ptr<Impl> I;
};

/// Escapes a label value per Prometheus exposition rules: backslash,
/// double-quote, and newline become \\, \", and \n.
std::string escapeLabelValue(const std::string &V);

/// Formats a label body (no braces) from key/value pairs: keys are
/// sorted, values escaped, so {"target","warp-cell"},{"priority","high"}
/// renders as `priority="high",target="warp-cell"`. Every site that
/// composes labels from dynamic values (target names) goes through this
/// so all series of a family agree on key order — a requirement the
/// exposition goldens lock.
std::string labelBody(std::vector<std::pair<std::string, std::string>> KVs);

/// A cache of per-label-value handles for one metric family whose last
/// label is dynamic (typically `target="<machine name>"`). with()
/// registers the series on first use and returns the cached handle
/// afterwards; registration itself is idempotent per (name, labels), the
/// cache just keeps hot record sites to one map probe instead of a label
/// format plus a registry lock. While the registry is disabled, with()
/// keeps the disabled-record contract: one relaxed load, then an inert
/// handle, with no lock, no label hashing and no series registered.
/// Thread-safe; handles are value-semantic.
template <class HandleT> class LabeledFamily {
public:
  LabeledFamily(MetricsRegistry &R, std::string Name, std::string Help,
                std::string DynKey,
                std::vector<std::pair<std::string, std::string>> Fixed = {})
      : R(&R), Name(std::move(Name)), Help(std::move(Help)),
        DynKey(std::move(DynKey)), Fixed(std::move(Fixed)) {}

  HandleT with(const std::string &Value) {
    if (!R->enabled())
      return HandleT();
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = ByValue.find(Value);
    if (It != ByValue.end())
      return It->second;
    auto KVs = Fixed;
    KVs.emplace_back(DynKey, Value);
    HandleT H = registerHandle(labelBody(std::move(KVs)));
    ByValue.emplace(Value, H);
    return H;
  }

private:
  HandleT registerHandle(const std::string &Labels);

  MetricsRegistry *R;
  std::string Name, Help, DynKey;
  std::vector<std::pair<std::string, std::string>> Fixed;
  std::mutex Mu;
  std::unordered_map<std::string, HandleT> ByValue;
};

template <>
inline Counter LabeledFamily<Counter>::registerHandle(const std::string &L) {
  return R->counter(Name, L, Help);
}
template <>
inline Gauge LabeledFamily<Gauge>::registerHandle(const std::string &L) {
  return R->gauge(Name, L, Help);
}
template <>
inline Histogram
LabeledFamily<Histogram>::registerHandle(const std::string &L) {
  return R->histogram(Name, L, Help);
}

using CounterFamily = LabeledFamily<Counter>;
using GaugeFamily = LabeledFamily<Gauge>;
using HistogramFamily = LabeledFamily<Histogram>;

/// Convenience accessors for the global registry's runtime switch.
inline bool enabled() { return MetricsRegistry::global().enabled(); }
inline void setEnabled(bool On) { MetricsRegistry::global().setEnabled(On); }

} // namespace metrics
} // namespace swp

#endif // SWP_METRICS_METRICS_H
