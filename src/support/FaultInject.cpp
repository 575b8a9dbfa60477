//===- FaultInject.cpp - Deterministic fault injection --------------------------===//
//
// Part of warp-swp. See FaultInject.h.
//
//===----------------------------------------------------------------------===//

#include "swp/Support/FaultInject.h"

#include "swp/Metrics/Metrics.h"

#include <atomic>
#include <mutex>
#include <string>

using namespace swp;
using namespace swp::faults;

const char *swp::faults::siteName(Site S) {
  switch (S) {
  case Site::OomAllocation:
    return "oom-allocation";
  case Site::SlotExhaustion:
    return "slot-exhaustion";
  case Site::RecMIIInflate:
    return "recmii-inflate";
  case Site::CorruptSchedule:
    return "corrupt-schedule";
  case Site::CorruptEmission:
    return "corrupt-emission";
  }
  return "unknown";
}

namespace {

/// Armed seed (0 = disarmed). Written only by ScopedArm; probes read it
/// relaxed — arming mid-compile from another thread is not supported,
/// only probing concurrently under one arming.
std::atomic<uint64_t> ArmedSeed{0};
std::atomic<uint64_t> Hits[NumSites];

/// Resets every occurrence counter and arms \p Seed (0 disarms).
void arm(uint64_t Seed) {
  for (std::atomic<uint64_t> &H : Hits)
    H.store(0, std::memory_order_relaxed);
  ArmedSeed.store(Seed, std::memory_order_release);
}

bool armed() { return ArmedSeed.load(std::memory_order_relaxed) != 0; }

} // namespace

bool swp::faults::shouldFire(Site S) {
  uint64_t Seed = ArmedSeed.load(std::memory_order_acquire);
  if (Seed == 0)
    return false;
  uint64_t Occ = Hits[static_cast<unsigned>(S)].fetch_add(
      1, std::memory_order_relaxed);
  if (Seed != chaosSeed(S, static_cast<unsigned>(Occ)))
    return false;
  {
    // Firing is rare (once per armed compile); registration cost here is
    // one-time per site, the record is the usual relaxed add.
    static metrics::Counter PerSite[NumSites];
    static std::once_flag Once;
    std::call_once(Once, [] {
      auto &R = metrics::MetricsRegistry::global();
      for (unsigned I = 0; I != NumSites; ++I)
        PerSite[I] = R.counter(
            "swp_faults_injected_total",
            "site=\"" + std::string(siteName(static_cast<Site>(I))) + "\"",
            "Injected faults that fired, by site");
    });
    PerSite[static_cast<unsigned>(S)].inc();
  }
  return true;
}

ScopedArm::ScopedArm(uint64_t Seed) {
  if (Seed == 0 || armed())
    return;
  arm(Seed);
  Engaged = true;
}

ScopedArm::~ScopedArm() {
  if (Engaged)
    arm(0);
}
