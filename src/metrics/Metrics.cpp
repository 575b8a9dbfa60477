//===- Metrics.cpp - Fleet metrics registry -------------------------------===//
//
// Part of warp-swp. See DESIGN.md §12.
//
// Storage layout: a registry owns a growing list of Shards, one per
// thread that ever recorded into it. A Shard is a fixed array of relaxed
// atomics; a metric owns a contiguous slot range (1 cell for counters
// and gauges, 1 + NumBuckets for histograms) at the same offset in every
// shard. Recording touches only the calling thread's shard; snapshot()
// sums the same offset across shards. Shards are shared_ptr-owned by
// both the registry and the recording thread's TLS cache, so neither a
// worker exiting nor (in tests) a registry dying invalidates the other
// side's memory.
//
//===----------------------------------------------------------------------===//

#include "swp/Metrics/Metrics.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <mutex>
#include <unordered_map>

using namespace swp;
using namespace swp::metrics;

namespace {

enum class Kind : uint8_t { Counter, Gauge, Histogram };

struct MetricInfo {
  std::string Name;
  std::string Labels;
  std::string Help;
  Kind K = Kind::Counter;
  uint32_t Slot = 0; ///< First cell of this metric's slot range.
};

struct CallbackGauge {
  std::string Name;
  std::string Labels;
  std::string Help;
  std::function<double()> Fn;
};

struct Shard {
  std::array<std::atomic<uint64_t>, MetricsRegistry::SlotCapacity> Cells{};
};

/// Key for idempotent registration: the label body cannot contain '\n'
/// in well-formed Prometheus, so it is a safe separator.
std::string metricKey(const std::string &Name, const std::string &Labels) {
  return Name + "\n" + Labels;
}

/// Unique id per registry instance, so the per-thread shard cache can
/// tell registries apart without dereferencing anything.
std::atomic<uint64_t> NextRegistryId{1};

} // namespace

struct MetricsRegistry::Impl {
  const uint64_t Id = NextRegistryId.fetch_add(1, std::memory_order_relaxed);
  std::atomic<bool> Enabled{false};
  std::atomic<uint64_t> Dropped{0};

  mutable std::mutex Mu;
  std::vector<std::shared_ptr<Shard>> Shards;          ///< Guarded by Mu.
  std::vector<MetricInfo> Metrics;                     ///< Guarded by Mu.
  std::unordered_map<std::string, size_t> MetricByKey; ///< Guarded by Mu.
  std::vector<CallbackGauge> Callbacks;                ///< Guarded by Mu.
  uint32_t NextSlot = 0;                               ///< Guarded by Mu.

  /// This thread's shard for this registry, attaching one on first use.
  /// The single-entry (LastId, LastShard) cache makes the steady state —
  /// one registry recorded into from any given call site — pointer-cheap.
  Shard &shardFor() {
    thread_local uint64_t LastId = 0;
    thread_local Shard *LastShard = nullptr;
    if (LastId == Id)
      return *LastShard;
    thread_local std::vector<std::pair<uint64_t, std::shared_ptr<Shard>>>
        Attached;
    for (auto &E : Attached)
      if (E.first == Id) {
        LastId = Id;
        LastShard = E.second.get();
        return *LastShard;
      }
    auto S = std::make_shared<Shard>();
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Shards.push_back(S);
    }
    Attached.emplace_back(Id, S);
    LastId = Id;
    LastShard = S.get();
    return *LastShard;
  }

  /// Registers (name, labels) as \p K over \p SlotCount cells; returns
  /// the base slot or UINT32_MAX when inert (conflict or exhaustion).
  uint32_t registerMetric(const std::string &Name, const std::string &Labels,
                          const std::string &Help, Kind K,
                          uint32_t SlotCount) {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = MetricByKey.find(metricKey(Name, Labels));
    if (It != MetricByKey.end()) {
      const MetricInfo &MI = Metrics[It->second];
      if (MI.K != K) { // Kind conflict: refuse, keep the original.
        Dropped.fetch_add(1, std::memory_order_relaxed);
        return UINT32_MAX;
      }
      return MI.Slot;
    }
    if (NextSlot + SlotCount > SlotCapacity) {
      Dropped.fetch_add(1, std::memory_order_relaxed);
      return UINT32_MAX;
    }
    MetricInfo MI;
    MI.Name = Name;
    MI.Labels = Labels;
    MI.Help = Help;
    MI.K = K;
    MI.Slot = NextSlot;
    NextSlot += SlotCount;
    uint32_t Slot = MI.Slot;
    MetricByKey.emplace(metricKey(Name, Labels), Metrics.size());
    Metrics.push_back(std::move(MI));
    return Slot;
  }

  /// Sums cell \p Slot over every shard (relaxed; snapshot is a
  /// consistent-enough point-in-time view, not a linearization point).
  uint64_t sumCell(uint32_t Slot) const {
    uint64_t Total = 0;
    for (const auto &S : Shards)
      Total += S->Cells[Slot].load(std::memory_order_relaxed);
    return Total;
  }
};

MetricsRegistry::MetricsRegistry() : I(new Impl) {}
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry &MetricsRegistry::global() {
  // Leaked intentionally: worker threads (and atexit-ordered statics) may
  // record until the very end of the process.
  static MetricsRegistry *R = new MetricsRegistry;
  return *R;
}

bool MetricsRegistry::enabled() const {
  return I->Enabled.load(std::memory_order_relaxed);
}

void MetricsRegistry::setEnabled(bool On) {
  I->Enabled.store(On, std::memory_order_relaxed);
}

Counter MetricsRegistry::counter(const std::string &Name,
                                 const std::string &Labels,
                                 const std::string &Help) {
  uint32_t Slot = I->registerMetric(Name, Labels, Help, Kind::Counter, 1);
  return Slot == UINT32_MAX ? Counter() : Counter(this, Slot);
}

Gauge MetricsRegistry::gauge(const std::string &Name,
                             const std::string &Labels,
                             const std::string &Help) {
  uint32_t Slot = I->registerMetric(Name, Labels, Help, Kind::Gauge, 1);
  return Slot == UINT32_MAX ? Gauge() : Gauge(this, Slot);
}

Histogram MetricsRegistry::histogram(const std::string &Name,
                                     const std::string &Labels,
                                     const std::string &Help) {
  uint32_t Slot = I->registerMetric(Name, Labels, Help, Kind::Histogram,
                                    1 + Histogram::NumBuckets);
  return Slot == UINT32_MAX ? Histogram() : Histogram(this, Slot);
}

bool MetricsRegistry::registerGauge(const std::string &Name,
                                    const std::string &Labels,
                                    const std::string &Help,
                                    std::function<double()> Fn) {
  if (!Fn)
    return false;
  std::lock_guard<std::mutex> Lock(I->Mu);
  if (I->MetricByKey.count(metricKey(Name, Labels)))
    return false;
  for (const auto &CG : I->Callbacks)
    if (CG.Name == Name && CG.Labels == Labels)
      return false;
  I->Callbacks.push_back({Name, Labels, Help, std::move(Fn)});
  return true;
}

void MetricsRegistry::recordAdd(uint32_t Slot, uint64_t Delta) {
  if (!I->Enabled.load(std::memory_order_relaxed))
    return;
  I->shardFor().Cells[Slot].fetch_add(Delta, std::memory_order_relaxed);
}

void MetricsRegistry::recordHistogram(uint32_t BaseSlot, uint64_t V) {
  if (!I->Enabled.load(std::memory_order_relaxed))
    return;
  Shard &S = I->shardFor();
  S.Cells[BaseSlot].fetch_add(V, std::memory_order_relaxed);
  S.Cells[BaseSlot + 1 + Histogram::bucketIndex(V)].fetch_add(
      1, std::memory_order_relaxed);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot Out;
  std::lock_guard<std::mutex> Lock(I->Mu);
  for (const MetricInfo &MI : I->Metrics) {
    switch (MI.K) {
    case Kind::Counter:
      Out.Counters.push_back({MI.Name, MI.Labels, MI.Help,
                              I->sumCell(MI.Slot)});
      break;
    case Kind::Gauge:
      // Deltas merge as wrapping uint64; the net level is the signed
      // reinterpretation of the sum.
      Out.Gauges.push_back(
          {MI.Name, MI.Labels, MI.Help,
           static_cast<double>(static_cast<int64_t>(I->sumCell(MI.Slot)))});
      break;
    case Kind::Histogram: {
      SnapshotHistogram H;
      H.Name = MI.Name;
      H.Labels = MI.Labels;
      H.Help = MI.Help;
      H.Sum = I->sumCell(MI.Slot);
      for (unsigned B = 0; B != Histogram::NumBuckets; ++B) {
        H.Buckets[B] = I->sumCell(MI.Slot + 1 + B);
        H.Count += H.Buckets[B];
      }
      Out.Histograms.push_back(std::move(H));
      break;
    }
    }
  }
  for (const CallbackGauge &CG : I->Callbacks)
    Out.Gauges.push_back({CG.Name, CG.Labels, CG.Help, CG.Fn()});

  auto ByNameLabels = [](const auto &A, const auto &B) {
    return A.Name != B.Name ? A.Name < B.Name : A.Labels < B.Labels;
  };
  std::sort(Out.Counters.begin(), Out.Counters.end(), ByNameLabels);
  std::sort(Out.Gauges.begin(), Out.Gauges.end(), ByNameLabels);
  std::sort(Out.Histograms.begin(), Out.Histograms.end(), ByNameLabels);
  return Out;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> Lock(I->Mu);
  for (auto &S : I->Shards)
    for (auto &C : S->Cells)
      C.store(0, std::memory_order_relaxed);
}

uint64_t MetricsRegistry::droppedRegistrations() const {
  return I->Dropped.load(std::memory_order_relaxed);
}

void Counter::inc(uint64_t N) const {
  if (R)
    R->recordAdd(Slot, N);
}

void Gauge::add(int64_t Delta) const {
  if (R)
    R->recordAdd(Slot, static_cast<uint64_t>(Delta));
}

void Histogram::record(uint64_t V) const {
  if (R)
    R->recordHistogram(BaseSlot, V);
}

//===----------------------------------------------------------------------===//
// Snapshot queries + exposition.
//===----------------------------------------------------------------------===//

namespace {

template <typename T>
const T *findSeries(const std::vector<T> &V, const std::string &Name,
                    const std::string &Labels) {
  for (const T &E : V)
    if (E.Name == Name && E.Labels == Labels)
      return &E;
  return nullptr;
}

/// "name" or "name{labels}".
std::string seriesKey(const std::string &Name, const std::string &Labels) {
  return Labels.empty() ? Name : Name + "{" + Labels + "}";
}

std::string formatDouble(double V) {
  char Buf[64];
  // %.17g round-trips but prints ugly for the common integral gauges;
  // prefer the short exact form when the value is integral.
  if (V == static_cast<double>(static_cast<int64_t>(V)))
    std::snprintf(Buf, sizeof(Buf), "%" PRId64, static_cast<int64_t>(V));
  else
    std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  return Buf;
}

} // namespace

std::string swp::metrics::escapeLabelValue(const std::string &V) {
  std::string Out;
  Out.reserve(V.size());
  for (char C : V) {
    if (C == '\\')
      Out += "\\\\";
    else if (C == '"')
      Out += "\\\"";
    else if (C == '\n')
      Out += "\\n";
    else
      Out += C;
  }
  return Out;
}

std::string swp::metrics::labelBody(
    std::vector<std::pair<std::string, std::string>> KVs) {
  std::sort(KVs.begin(), KVs.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  std::string Out;
  for (const auto &KV : KVs) {
    if (!Out.empty())
      Out += ',';
    Out += KV.first;
    Out += "=\"";
    Out += escapeLabelValue(KV.second);
    Out += '"';
  }
  return Out;
}

const SnapshotCounter *MetricsSnapshot::counter(const std::string &Name,
                                                const std::string &Labels)
    const {
  return findSeries(Counters, Name, Labels);
}

const SnapshotGauge *MetricsSnapshot::gauge(const std::string &Name,
                                            const std::string &Labels) const {
  return findSeries(Gauges, Name, Labels);
}

const SnapshotHistogram *
MetricsSnapshot::histogram(const std::string &Name,
                           const std::string &Labels) const {
  return findSeries(Histograms, Name, Labels);
}

uint64_t MetricsSnapshot::counterTotal(const std::string &Name) const {
  uint64_t Total = 0;
  for (const SnapshotCounter &C : Counters)
    if (C.Name == Name)
      Total += C.Value;
  return Total;
}

uint64_t MetricsSnapshot::histogramCountTotal(const std::string &Name) const {
  uint64_t Total = 0;
  for (const SnapshotHistogram &H : Histograms)
    if (H.Name == Name)
      Total += H.Count;
  return Total;
}

std::string MetricsSnapshot::toPrometheusText() const {
  std::string Out;
  char Buf[160];
  // Series are sorted by (name, labels); emit # HELP / # TYPE once per
  // family (first series of each name).
  const std::string *PrevName = nullptr;
  auto family = [&](const std::string &Name, const std::string &Help,
                    const char *Type) {
    if (PrevName && *PrevName == Name)
      return;
    PrevName = &Name;
    if (!Help.empty())
      Out += "# HELP " + Name + " " + Help + "\n";
    Out += "# TYPE " + Name + " " + std::string(Type) + "\n";
  };

  for (const SnapshotCounter &C : Counters) {
    family(C.Name, C.Help, "counter");
    std::snprintf(Buf, sizeof(Buf), " %" PRIu64 "\n", C.Value);
    Out += seriesKey(C.Name, C.Labels) + Buf;
  }
  PrevName = nullptr;
  for (const SnapshotGauge &G : Gauges) {
    family(G.Name, G.Help, "gauge");
    Out += seriesKey(G.Name, G.Labels) + " " + formatDouble(G.Value) + "\n";
  }
  PrevName = nullptr;
  for (const SnapshotHistogram &H : Histograms) {
    family(H.Name, H.Help, "histogram");
    uint64_t Cum = 0;
    for (unsigned B = 0; B != Histogram::NumBuckets; ++B) {
      Cum += H.Buckets[B];
      // Skip empty buckets to keep the text readable (sparse buckets are
      // valid exposition); always emit the required +Inf bucket.
      bool Last = B == Histogram::NumBuckets - 1;
      if (!Last && H.Buckets[B] == 0)
        continue;
      std::string Le =
          Last ? std::string("+Inf")
               : std::to_string(Histogram::bucketUpperBound(B));
      std::string LabelBody = H.Labels.empty()
                                  ? "le=\"" + Le + "\""
                                  : H.Labels + ",le=\"" + Le + "\"";
      std::snprintf(Buf, sizeof(Buf), " %" PRIu64 "\n", Cum);
      Out += H.Name + "_bucket{" + LabelBody + "}" + Buf;
    }
    std::snprintf(Buf, sizeof(Buf), " %" PRIu64 "\n", H.Sum);
    Out += seriesKey(H.Name + "_sum", H.Labels) + Buf;
    std::snprintf(Buf, sizeof(Buf), " %" PRIu64 "\n", H.Count);
    Out += seriesKey(H.Name + "_count", H.Labels) + Buf;
  }
  return Out;
}
