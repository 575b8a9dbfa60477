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
//              [--metrics-jsonl=FILE] [--metrics-port=N]
//
// --metrics-jsonl enables the global metrics registry, registers a
// process-RSS gauge, and appends one JSONL snapshot per iteration —
// the soak's resource trajectory, summarizable with
// tools/metrics-report.sh.
//
// --metrics-port additionally serves the registry on 127.0.0.1:N
// (0 = ephemeral; the bound port is printed) and turns the soak into
// its own live scraper: every iteration GETs /metrics and asserts the
// scrape stays consistent — the RSS gauge samples positive, the
// scheduler search counter never goes backwards, and the endpoint's
// request counter matches the number of scrapes this harness made.
//
// Iterations alternate the target machine by seed parity (warp-cell /
// warp-cell-x2), so the per-target metric split sees a mixed fleet;
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
#include "swp/Metrics/MetricsServer.h"
#include "swp/Metrics/MetricsSink.h"
#include "swp/Support/FaultInject.h"
#include "swp/Verify/Differential.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <random>
#include <string>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

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

/// One blocking HTTP GET against the harness's own metrics endpoint.
/// Returns the response body ("" on any failure).
std::string scrapeMetrics(uint16_t Port, const char *Path) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return "";
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    ::close(Fd);
    return "";
  }
  std::string Req = std::string("GET ") + Path + " HTTP/1.0\r\n\r\n";
  if (::send(Fd, Req.data(), Req.size(), 0) !=
      static_cast<ssize_t>(Req.size())) {
    ::close(Fd);
    return "";
  }
  std::string Resp;
  char Buf[4096];
  ssize_t N;
  while ((N = ::recv(Fd, Buf, sizeof(Buf), 0)) > 0)
    Resp.append(Buf, static_cast<size_t>(N));
  ::close(Fd);
  size_t HeaderEnd = Resp.find("\r\n\r\n");
  if (HeaderEnd == std::string::npos || Resp.rfind("HTTP/1.0 200", 0) != 0)
    return "";
  return Resp.substr(HeaderEnd + 4);
}

/// Value of the exposition line that starts with exactly \p Series
/// followed by a space; -1 when absent.
double promValue(const std::string &Body, const std::string &Series) {
  size_t Pos = 0;
  std::string Prefix = Series + " ";
  while (Pos < Body.size()) {
    size_t Eol = Body.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Body.size();
    if (Body.compare(Pos, Prefix.size(), Prefix) == 0)
      return std::atof(Body.c_str() + Pos + Prefix.size());
    Pos = Eol + 1;
  }
  return -1.0;
}

/// How many distinct `target="..."` labels a series name carries.
unsigned countTargetLabels(const std::string &Body, const std::string &Name) {
  unsigned Count = 0;
  std::string Needle = Name + "{target=\"";
  for (size_t Pos = Body.find(Needle); Pos != std::string::npos;
       Pos = Body.find(Needle, Pos + 1))
    ++Count;
  return Count;
}

} // namespace

int main(int argc, char **argv) {
  unsigned Iterations = 100;
  uint64_t Seed = 9000;
  bool Quiet = false;
  std::string MetricsJsonl;
  int MetricsPort = -1;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--iterations=", 0) == 0) {
      Iterations = static_cast<unsigned>(
          std::strtoul(Arg.c_str() + 13, nullptr, 10));
    } else if (Arg.rfind("--seed=", 0) == 0) {
      Seed = std::strtoull(Arg.c_str() + 7, nullptr, 10);
    } else if (Arg == "--quiet") {
      Quiet = true;
    } else if (Arg.rfind("--metrics-jsonl=", 0) == 0 &&
               Arg.size() > 16) {
      MetricsJsonl = Arg.substr(16);
    } else if (Arg.rfind("--metrics-port=", 0) == 0 &&
               Arg.size() > 15) {
      unsigned long P = std::strtoul(Arg.c_str() + 15, nullptr, 10);
      if (P > 65535) {
        std::fprintf(stderr, "--metrics-port needs a port in [0, 65535]\n");
        return 1;
      }
      MetricsPort = static_cast<int>(P);
    } else {
      std::fprintf(stderr,
                   "usage: swp_stress [--iterations=N] [--seed=S] "
                   "[--quiet] [--metrics-jsonl=FILE] [--metrics-port=N]\n");
      return 1;
    }
  }

  // Telemetry: one snapshot line per iteration, plus a live RSS gauge so
  // the JSONL doubles as the soak's memory trajectory.
  std::optional<metrics::MetricsSink> Sink;
  std::optional<metrics::MetricsServer> Server;
  if (!MetricsJsonl.empty() || MetricsPort >= 0) {
    metrics::setEnabled(true);
    metrics::MetricsRegistry::global().registerGauge(
        "swp_process_rss_mib", "", "Resident set size of this process",
        [] { return rssMiB(); });
  }
  if (!MetricsJsonl.empty()) {
    metrics::MetricsSink::Config MC;
    MC.Path = MetricsJsonl;
    MC.IntervalMs = 0; // Explicit flushNow() per iteration below.
    Sink.emplace(MC);
    if (!Sink->ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", MetricsJsonl.c_str(),
                   Sink->error().c_str());
      return 1;
    }
  }
  if (MetricsPort >= 0) {
    metrics::MetricsServer::Config MC;
    MC.Port = static_cast<uint16_t>(MetricsPort);
    Server.emplace(MC);
    if (!Server->ok()) {
      std::fprintf(stderr, "cannot serve metrics: %s\n",
                   Server->error().c_str());
      return 1;
    }
    std::printf("swp_stress: metrics on 127.0.0.1:%u\n",
                static_cast<unsigned>(Server->port()));
    std::fflush(stdout);
  }

  // Seed-parity target mix: half the iterations compile for the Warp
  // cell, half for its doubled-resource variant, so the per-target
  // metric split always sees a mixed fleet. Parity rides the IterSeed,
  // so the printed repro line lands on the same machine.
  MachineDescription MDs[2] = {MachineDescription::warpCell(),
                               MachineDescription::scaledWarpCell(2)};
  unsigned Failures = 0;
  uint64_t Scrapes = 0;
  double LastSearches = -1.0;
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
    if (Sink)
      Sink->flushNow();

    // Live-scraper consistency: every iteration scrapes its own endpoint
    // and cross-checks what a fleet collector would see.
    if (Server) {
      std::string Body = scrapeMetrics(Server->port(), "/metrics");
      ++Scrapes;
      if (Body.empty()) {
        ++Failures;
        std::fprintf(stderr, "FAIL iter %u: /metrics scrape failed\n", I);
      } else {
        double Rss = promValue(Body, "swp_process_rss_mib");
        if (Rss <= 0.0) {
          ++Failures;
          std::fprintf(stderr,
                       "FAIL iter %u: RSS gauge missing or nonpositive "
                       "(%.3f)\n",
                       I, Rss);
        }
        double Searches = promValue(Body, "swp_sched_searches_total");
        if (Searches < LastSearches) {
          ++Failures;
          std::fprintf(stderr,
                       "FAIL iter %u: search counter went backwards "
                       "(%.0f -> %.0f)\n",
                       I, LastSearches, Searches);
        }
        LastSearches = Searches;
        // The scrape observes itself (the server counts the request
        // before snapshotting), so the endpoint's own request counter
        // must equal the scrapes this harness has made.
        double Reqs = promValue(
            Body, "swp_metrics_http_requests_total{path=\"metrics\"}");
        if (Reqs != static_cast<double>(Scrapes) ||
            Server->requestsServed() != Scrapes) {
          ++Failures;
          std::fprintf(stderr,
                       "FAIL iter %u: request counters inconsistent with "
                       "live scraper (scrapes %llu, scraped %.0f, served "
                       "%llu)\n",
                       I, static_cast<unsigned long long>(Scrapes), Reqs,
                       static_cast<unsigned long long>(
                           Server->requestsServed()));
        }
      }
    }
  }

  // A mixed-fleet soak long enough to schedule loops on both machines
  // must leave the II-gap histogram split by at least two targets.
  if (Server && Iterations >= 20) {
    std::string Body = scrapeMetrics(Server->port(), "/metrics");
    ++Scrapes;
    unsigned Targets = countTargetLabels(Body, "swp_sched_ii_gap_count");
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
