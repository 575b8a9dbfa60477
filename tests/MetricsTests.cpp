//===- MetricsTests.cpp - metrics registry / exposition tests -------------------===//
//
// Part of warp-swp.
//
// The telemetry suite (ctest label "metrics"; also run under the tsan
// preset): registry semantics on private instances — idempotent
// registration, enable/disable, additive gauges, callback gauges, slot
// exhaustion — plus the histogram bucket math, an N-thread exactness
// check for the sharded recording path, label plumbing, and a golden
// snapshot locking the Prometheus exposition (update with
// SWP_UPDATE_GOLDENS=1).
//
//===----------------------------------------------------------------------===//

#include "swp/Metrics/Metrics.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#ifndef SWP_GOLDEN_DIR
#error "SWP_GOLDEN_DIR must point at tests/goldens"
#endif

using namespace swp;
using namespace swp::metrics;

namespace {

/// A fresh enabled registry for deterministic counting.
struct EnabledRegistry {
  MetricsRegistry Reg;
  EnabledRegistry() { Reg.setEnabled(true); }
};

TEST(Metrics, CounterBasicsAndIdempotentRegistration) {
  EnabledRegistry E;
  Counter A = E.Reg.counter("swp_test_total", "", "help");
  A.inc();
  A.inc(4);
  // Same (name, labels) resolves to the same cells.
  Counter B = E.Reg.counter("swp_test_total");
  B.inc(5);
  MetricsSnapshot S = E.Reg.snapshot();
  const SnapshotCounter *C = S.counter("swp_test_total");
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->Value, 10u);
  EXPECT_EQ(C->Help, "help");
  // Distinct labels are distinct series; counterTotal sums them.
  E.Reg.counter("swp_test_total", "k=\"v\"").inc(7);
  EXPECT_EQ(E.Reg.snapshot().counterTotal("swp_test_total"), 17u);
}

TEST(Metrics, DisabledRecordsAreDropped) {
  MetricsRegistry Reg; // Disabled by default.
  EXPECT_FALSE(Reg.enabled());
  Counter C = Reg.counter("swp_test_total");
  Histogram H = Reg.histogram("swp_test_us");
  C.inc(3);
  H.record(100);
  MetricsSnapshot S = Reg.snapshot();
  EXPECT_EQ(S.counter("swp_test_total")->Value, 0u);
  EXPECT_EQ(S.histogram("swp_test_us")->Count, 0u);
  Reg.setEnabled(true);
  C.inc(3);
  H.record(100);
  S = Reg.snapshot();
  EXPECT_EQ(S.counter("swp_test_total")->Value, 3u);
  EXPECT_EQ(S.histogram("swp_test_us")->Count, 1u);
  // Default-constructed handles are inert everywhere.
  Counter{}.inc();
  Gauge{}.add(1);
  Histogram{}.record(1);
}

TEST(Metrics, GaugeTracksSignedLevel) {
  EnabledRegistry E;
  Gauge G = E.Reg.gauge("swp_test_depth");
  G.add(10);
  G.sub(3);
  EXPECT_DOUBLE_EQ(E.Reg.snapshot().gauge("swp_test_depth")->Value, 7.0);
  G.sub(9); // Levels may legitimately read negative transiently.
  EXPECT_DOUBLE_EQ(E.Reg.snapshot().gauge("swp_test_depth")->Value, -2.0);
}

TEST(Metrics, CallbackGauge) {
  EnabledRegistry E;
  double Level = 41.5;
  ASSERT_TRUE(E.Reg.registerGauge("swp_test_sampled", "", "sampled",
                                  [&Level] { return Level; }));
  Level = 42.5;
  EXPECT_DOUBLE_EQ(E.Reg.snapshot().gauge("swp_test_sampled")->Value, 42.5);
  // Same (name, labels) again is a conflict.
  EXPECT_FALSE(
      E.Reg.registerGauge("swp_test_sampled", "", "", [] { return 0.0; }));
}

TEST(Metrics, BucketMath) {
  EXPECT_EQ(Histogram::bucketIndex(0), 0u);
  EXPECT_EQ(Histogram::bucketIndex(1), 1u);
  EXPECT_EQ(Histogram::bucketIndex(2), 2u);
  EXPECT_EQ(Histogram::bucketIndex(3), 2u);
  EXPECT_EQ(Histogram::bucketIndex(4), 3u);
  EXPECT_EQ(Histogram::bucketIndex(uint64_t{1} << 30), 31u);
  EXPECT_EQ(Histogram::bucketIndex(UINT64_MAX), 31u);
  EXPECT_EQ(Histogram::bucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::bucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::bucketUpperBound(2), 3u);
  EXPECT_EQ(Histogram::bucketUpperBound(30), (uint64_t{1} << 30) - 1);
  EXPECT_EQ(Histogram::bucketUpperBound(31), UINT64_MAX);
  // Every value lands in the bucket whose range covers it.
  for (uint64_t V : {0ull, 1ull, 2ull, 7ull, 8ull, 1023ull, 1024ull,
                     (1ull << 30) - 1, 1ull << 30, 1ull << 40}) {
    unsigned I = Histogram::bucketIndex(V);
    EXPECT_LE(V, Histogram::bucketUpperBound(I)) << V;
    if (I > 0) {
      EXPECT_GT(V, Histogram::bucketUpperBound(I - 1)) << V;
    }
  }
}

// The sharded recording path must lose nothing under contention: N
// threads hammer one histogram and one counter; the merged totals are
// exact. This is the test the tsan preset re-runs for data races.
TEST(Metrics, ConcurrentRecordingIsExact) {
  EnabledRegistry E;
  Histogram H = E.Reg.histogram("swp_test_us");
  Counter C = E.Reg.counter("swp_test_total");
  constexpr unsigned Threads = 8;
  constexpr uint64_t PerThread = 20000;
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T != Threads; ++T)
    Ts.emplace_back([&, T] {
      for (uint64_t I = 0; I != PerThread; ++I) {
        H.record((T * PerThread + I) % 1000);
        C.inc();
      }
    });
  for (std::thread &T : Ts)
    T.join();

  MetricsSnapshot S = E.Reg.snapshot();
  EXPECT_EQ(S.counter("swp_test_total")->Value, Threads * PerThread);
  const SnapshotHistogram *HS = S.histogram("swp_test_us");
  ASSERT_NE(HS, nullptr);
  EXPECT_EQ(HS->Count, Threads * PerThread);
  // Expected sum and per-bucket counts, computed serially.
  uint64_t Sum = 0;
  std::array<uint64_t, Histogram::NumBuckets> Buckets{};
  for (unsigned T = 0; T != Threads; ++T)
    for (uint64_t I = 0; I != PerThread; ++I) {
      uint64_t V = (T * PerThread + I) % 1000;
      Sum += V;
      ++Buckets[Histogram::bucketIndex(V)];
    }
  EXPECT_EQ(HS->Sum, Sum);
  for (unsigned B = 0; B != Histogram::NumBuckets; ++B)
    EXPECT_EQ(HS->Buckets[B], Buckets[B]) << "bucket " << B;
}

TEST(Metrics, SlotExhaustionYieldsInertHandles) {
  EnabledRegistry E;
  // Histograms burn 33 slots each; 4096/33 = 124 fit.
  std::vector<Histogram> Hs;
  for (int I = 0; I != 130; ++I)
    Hs.push_back(E.Reg.histogram("swp_test_us", "i=\"" + std::to_string(I) +
                                                    "\""));
  EXPECT_GT(E.Reg.droppedRegistrations(), 0u);
  for (Histogram &H : Hs)
    H.record(1); // Inert tail handles must be safe to record into.
  // A kind conflict is also refused: same key, different type.
  uint64_t Before = E.Reg.droppedRegistrations();
  E.Reg.counter("swp_test_us", "i=\"0\"").inc();
  EXPECT_GT(E.Reg.droppedRegistrations(), Before);
  // The registry still answers snapshots.
  EXPECT_GT(E.Reg.snapshot().Histograms.size(), 0u);
}

TEST(Metrics, ResetZeroesValuesKeepsRegistrations) {
  EnabledRegistry E;
  Counter C = E.Reg.counter("swp_test_total");
  C.inc(9);
  E.Reg.reset();
  EXPECT_EQ(E.Reg.snapshot().counter("swp_test_total")->Value, 0u);
  C.inc(2); // Handle survives reset.
  EXPECT_EQ(E.Reg.snapshot().counter("swp_test_total")->Value, 2u);
}

//===----------------------------------------------------------------------===//
// Label plumbing: labelBody / escapeLabelValue / LabeledFamily.
//===----------------------------------------------------------------------===//

TEST(Metrics, LabelBodySortsKeysAndEscapesValues) {
  // Keys are emitted in sorted order regardless of argument order, so a
  // label set has exactly one rendering — the property the per-target
  // goldens depend on.
  EXPECT_EQ(labelBody({{"target", "warp-cell"}, {"outcome", "ok"}}),
            "outcome=\"ok\",target=\"warp-cell\"");
  EXPECT_EQ(labelBody({{"outcome", "ok"}, {"target", "warp-cell"}}),
            "outcome=\"ok\",target=\"warp-cell\"");
  EXPECT_EQ(labelBody({{"target", "toy-cell"}}), "target=\"toy-cell\"");
  EXPECT_EQ(labelBody({}), "");
  // Backslash, quote, and newline are escaped per the Prometheus text
  // format; everything else passes through.
  EXPECT_EQ(escapeLabelValue("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
  EXPECT_EQ(labelBody({{"target", "x\"y"}}), "target=\"x\\\"y\"");
}

TEST(Metrics, LabeledFamilyIsIdempotentPerNameAndLabels) {
  EnabledRegistry E;
  CounterFamily F(E.Reg, "swp_test_by_target_total", "help", "target",
                  {{"outcome", "ok"}});
  // Repeated with() for one value resolves to the same cells.
  F.with("warp-cell").inc(2);
  F.with("warp-cell").inc(3);
  F.with("toy-cell").inc(1);
  MetricsSnapshot S = E.Reg.snapshot();
  const SnapshotCounter *WC = S.counter("swp_test_by_target_total",
                                        "outcome=\"ok\",target=\"warp-cell\"");
  ASSERT_NE(WC, nullptr) << "fixed+dynamic labels must render sorted";
  EXPECT_EQ(WC->Value, 5u);
  const SnapshotCounter *TC = S.counter("swp_test_by_target_total",
                                        "outcome=\"ok\",target=\"toy-cell\"");
  ASSERT_NE(TC, nullptr);
  EXPECT_EQ(TC->Value, 1u);
  EXPECT_EQ(S.counterTotal("swp_test_by_target_total"), 6u);

  // A second family over the same (name, labels) shares the series —
  // registration is idempotent at the registry, not per family object.
  CounterFamily F2(E.Reg, "swp_test_by_target_total", "help", "target",
                   {{"outcome", "ok"}});
  F2.with("warp-cell").inc(10);
  EXPECT_EQ(E.Reg.snapshot()
                .counter("swp_test_by_target_total",
                         "outcome=\"ok\",target=\"warp-cell\"")
                ->Value,
            15u);

  // Gauge and histogram families ride the same machinery.
  GaugeFamily GF(E.Reg, "swp_test_depth", "", "target");
  GF.with("warp-cell").add(4);
  GF.with("warp-cell").sub(1);
  EXPECT_DOUBLE_EQ(
      E.Reg.snapshot().gauge("swp_test_depth", "target=\"warp-cell\"")->Value,
      3.0);
  HistogramFamily HF(E.Reg, "swp_test_us", "", "target");
  HF.with("warp-cell").record(7);
  HF.with("warp-cell").record(9);
  EXPECT_EQ(
      E.Reg.snapshot().histogram("swp_test_us", "target=\"warp-cell\"")->Count,
      2u);
}

// with() on a disabled registry is one relaxed load: it hands back an
// inert handle, so nothing is recorded and no series is registered, even
// from several threads at once. Enabling the registry restores both, and
// disabling it again drops records made through the family.
TEST(Metrics, LabeledFamilyWhileDisabledRegistersNothing) {
  MetricsRegistry Reg; // Disabled by default.
  CounterFamily F(Reg, "swp_test_quiet_total", "", "target");
  HistogramFamily HF(Reg, "swp_test_quiet_us", "", "target");
  const std::string Labels = "target=\"warp-cell\"";
  std::vector<std::thread> Threads;
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([&] {
      for (int I = 0; I < 500; ++I) {
        F.with("warp-cell").inc();
        HF.with("warp-cell").record(3);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  MetricsSnapshot S = Reg.snapshot();
  EXPECT_EQ(S.counter("swp_test_quiet_total", Labels), nullptr);
  EXPECT_EQ(S.histogram("swp_test_quiet_us", Labels), nullptr);

  Reg.setEnabled(true);
  F.with("warp-cell").inc(2);
  HF.with("warp-cell").record(3);
  S = Reg.snapshot();
  ASSERT_NE(S.counter("swp_test_quiet_total", Labels), nullptr);
  EXPECT_EQ(S.counter("swp_test_quiet_total", Labels)->Value, 2u);
  ASSERT_NE(S.histogram("swp_test_quiet_us", Labels), nullptr);
  EXPECT_EQ(S.histogram("swp_test_quiet_us", Labels)->Count, 1u);

  Reg.setEnabled(false);
  F.with("warp-cell").inc(5);
  EXPECT_EQ(Reg.snapshot().counter("swp_test_quiet_total", Labels)->Value,
            2u);
}

//===----------------------------------------------------------------------===//
// Exposition goldens.
//===----------------------------------------------------------------------===//

bool updateRequested() {
  const char *E = std::getenv("SWP_UPDATE_GOLDENS");
  return E && *E && std::string(E) != "0";
}

void checkGolden(const std::string &FileName, const std::string &Text) {
  std::string Path = std::string(SWP_GOLDEN_DIR) + "/" + FileName;
  if (updateRequested()) {
    std::ofstream Out(Path);
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    Out << Text;
    return;
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "missing golden " << Path
                         << " (run with SWP_UPDATE_GOLDENS=1 to create it)";
  std::stringstream SS;
  SS << In.rdbuf();
  EXPECT_EQ(SS.str(), Text)
      << FileName
      << ": exposition drifted from its golden. If the change is "
         "intentional, rerun with SWP_UPDATE_GOLDENS=1 and review the diff.";
}

/// A registry with one of everything, fully deterministic values.
void populateGoldenRegistry(MetricsRegistry &Reg) {
  Reg.setEnabled(true);
  Reg.counter("swp_demo_requests_total", "", "Requests served").inc(42);
  Reg.counter("swp_demo_requests_total", "priority=\"high\"",
              "Requests served")
      .inc(7);
  Reg.gauge("swp_demo_queue_depth", "", "Queued requests").add(3);
  Reg.registerGauge("swp_demo_temperature", "", "Sampled level",
                    [] { return 21.5; });
  Histogram H =
      Reg.histogram("swp_demo_latency_us", "", "Request latency");
  for (uint64_t V : {0ull, 1ull, 2ull, 3ull, 100ull, 5000ull, 5000ull,
                     1ull << 31})
    H.record(V);
  // Per-target fan-out, exactly as the fleet dashboards see it: one
  // family, sorted label bodies, one series per target value.
  CounterFamily Hits(Reg, "swp_demo_cache_hits_total", "Cache hits",
                     "target");
  Hits.with("warp-cell").inc(12);
  Hits.with("warp-cell-x2").inc(4);
  HistogramFamily Gap(Reg, "swp_demo_ii_gap", "Achieved II minus MII",
                      "target");
  Gap.with("warp-cell").record(0);
  Gap.with("warp-cell").record(1);
  Gap.with("warp-cell-x2").record(2);
}

TEST(Metrics, PrometheusGolden) {
  MetricsRegistry Reg;
  populateGoldenRegistry(Reg);
  checkGolden("metrics-snapshot.prom", Reg.snapshot().toPrometheusText());
}

} // namespace
