//===- CompileService.cpp - Batched compile front end ---------------------===//
//
// Part of warp-swp. See swp/Service/CompileService.h.
//
//===----------------------------------------------------------------------===//

#include "swp/Service/CompileService.h"

#include "swp/Metrics/Metrics.h"
#include "swp/Support/ThreadPool.h"
#include "swp/Support/Trace.h"

#include <cassert>
#include <exception>
#include <sstream>
#include <utility>

using namespace swp;

namespace {

/// Fleet counters mirroring ServiceStats, aggregated over every
/// CompileService in the process.
struct ServiceMetrics {
  metrics::Counter Requests, Compiles, MemoHits, Coalesced;
  static const ServiceMetrics &get() {
    static ServiceMetrics M = [] {
      auto &R = metrics::MetricsRegistry::global();
      ServiceMetrics M;
      M.Requests = R.counter("swp_service_requests_total", "",
                             "Compile requests reaching the service");
      M.Compiles = R.counter("swp_service_compiles_total", "",
                             "Requests that ran a real compile");
      M.MemoHits = R.counter("swp_service_memo_hits_total", "",
                             "Requests served from the whole-result memo");
      M.Coalesced = R.counter(
          "swp_service_coalesced_total", "",
          "Requests coalesced onto another request's in-flight compile");
      return M;
    }();
    return M;
  }
};

/// Calls the job's factory. A throw (or a null program) becomes a null
/// result plus \p Error, so no request leaves compileOne by exception: a
/// single-flight leader must always publish its flight.
std::unique_ptr<Program> makeProgram(const CompileJob &Job,
                                     std::string &Error) {
  try {
    if (std::unique_ptr<Program> P = Job.Make())
      return P;
    Error = "program factory returned no program";
  } catch (const std::exception &E) {
    Error = std::string("program factory failed: ") + E.what();
  } catch (...) {
    Error = "program factory failed: unknown exception";
  }
  return nullptr;
}

} // namespace

std::string ServiceStats::toJson() const {
  std::ostringstream OS;
  OS << "{\"coalesced\":" << Coalesced << ",\"compiles\":" << Compiles
     << ",\"memo_hits\":" << MemoHits << ",\"requests\":" << Requests << "}";
  return OS.str();
}

CompileService::CompileService(Config C) : Cfg(C) {
  Memo = std::vector<MemoShard>(Cfg.MemoShards == 0 ? 1 : Cfg.MemoShards);
}

Fingerprint CompileService::jobKey(const Program &P,
                                   const MachineDescription &MD,
                                   const CompilerOptions &Opts) {
  // The exact program fingerprint: a memoized CompileResult embeds
  // vreg/array ids, so only id-identical programs may share one. The
  // schedule-options fingerprint deliberately excludes report-shaping
  // flags (they don't change schedules); the service memoizes whole
  // CompileResults, so fold them back in here.
  FingerprintHasher H;
  H.absorb(fingerprintProgramExact(P));
  H.absorb(fingerprintMachine(MD));
  H.absorb(fingerprintScheduleOptions(Opts));
  H.absorb(static_cast<uint64_t>(Opts.ParanoidVerify));
  H.absorb(static_cast<uint64_t>(Opts.Explain));
  return H.finish();
}

bool CompileService::memoLookup(const Fingerprint &Key, CompileResult &Out) {
  MemoShard &S =
      Memo[static_cast<size_t>(FingerprintHash()(Key)) % Memo.size()];
  std::lock_guard<std::mutex> Lock(S.Mu);
  auto It = S.Map.find(Key);
  if (It == S.Map.end())
    return false;
  S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
  Out = It->second->second;
  return true;
}

/// Rough footprint of a finished result for the memo byte budget.
static size_t resultBytes(const CompileResult &R) {
  return sizeof(CompileResult) + R.Error.size() +
         R.Code.Insts.size() * sizeof(VLIWInst) +
         R.Code.LiveInRegs.size() * 4 * sizeof(unsigned) +
         R.Report.Loops.size() * sizeof(LoopReport);
}

void CompileService::memoInsert(const Fingerprint &Key,
                                const CompileResult &R) {
  MemoShard &S =
      Memo[static_cast<size_t>(FingerprintHash()(Key)) % Memo.size()];
  size_t EntryCap = Cfg.MemoMaxEntries / Memo.size();
  size_t ByteCap = Cfg.MemoMaxBytes / Memo.size();
  if (EntryCap == 0)
    EntryCap = 1;
  if (ByteCap == 0)
    ByteCap = 1;
  std::lock_guard<std::mutex> Lock(S.Mu);
  auto It = S.Map.find(Key);
  if (It != S.Map.end()) {
    S.Bytes -= resultBytes(It->second->second);
    S.Lru.erase(It->second);
    S.Map.erase(It);
  }
  S.Lru.emplace_front(Key, R);
  S.Map[Key] = S.Lru.begin();
  S.Bytes += resultBytes(R);
  while (S.Lru.size() > 1 &&
         (S.Lru.size() > EntryCap || S.Bytes > ByteCap)) {
    auto &Back = S.Lru.back();
    S.Bytes -= resultBytes(Back.second);
    S.Map.erase(Back.first);
    S.Lru.pop_back();
  }
}

CompileResult CompileService::runCompile(const CompileJob &Job,
                                         std::unique_ptr<Program> &P) {
  CompileResult Failed;
  if (!P && !(P = makeProgram(Job, Failed.Error)))
    return Failed;
  Compiles.fetch_add(1, std::memory_order_relaxed);
  ServiceMetrics::get().Compiles.inc();
  CompilerOptions Opts = Job.Opts;
  if (Opts.Tracker == nullptr)
    Opts.Tracker = Job.Tracker;
  return compileProgram(*P, *Job.MD, Opts);
}

CompileResult CompileService::compileOne(const CompileJob &Job) {
  SWP_TRACE_SPAN(Span, "service.compileOne");
  Requests.fetch_add(1, std::memory_order_relaxed);
  ServiceMetrics::get().Requests.inc();
  assert(Job.Make && Job.MD && "CompileJob needs a factory and a machine");

  // Budgeted or chaos-armed compiles are functions of wall-clock / injected
  // faults, not content: compile directly, never share or memoize. A
  // tracker carrying real ceilings is a budgeted compile by another name.
  std::unique_ptr<Program> P;
  if (Job.Opts.Budget.limited() || Job.Opts.ChaosSeed != 0 ||
      (Job.Tracker && Job.Tracker->budget().limited()))
    return runCompile(Job, P);

  // A cancelled request is answered without materializing the program.
  if (Job.Tracker && Job.Tracker->cancelled()) {
    CompileResult R;
    R.Error = "compile cancelled";
    return R;
  }

  // With a client-provided key the program is built lazily — a memo hit
  // or coalesced wait never materializes it.
  Fingerprint Key;
  if (Job.Key) {
    Key = *Job.Key;
  } else {
    CompileResult Failed;
    if (!(P = makeProgram(Job, Failed.Error)))
      return Failed;
    Key = jobKey(*P, *Job.MD, Job.Opts);
  }

  if (Cfg.MemoizeResults) {
    CompileResult Hit;
    if (memoLookup(Key, Hit)) {
      MemoHits.fetch_add(1, std::memory_order_relaxed);
      ServiceMetrics::get().MemoHits.inc();
      SWP_TRACE_INSTANT("service.memoHit", {});
      return Hit;
    }
  }

  // Cancellable (tracker-armed) jobs bypass single-flight: a leader whose
  // caller cancels it would publish an aborted result to followers who
  // did not ask to cancel. They compile directly instead, and the result
  // is shared through the memo only when the tracker never tripped.
  if (Job.Tracker) {
    CompileResult R = runCompile(Job, P);
    if (Cfg.MemoizeResults && P && !Job.Tracker->expired())
      memoInsert(Key, R);
    return R;
  }

  // Single flight per fingerprint: the first requester compiles, identical
  // concurrent requests wait for it and copy the published result.
  std::shared_ptr<Flight> F;
  bool Leader = false;
  {
    std::lock_guard<std::mutex> Lock(FlightsMu);
    auto It = Flights.find(Key);
    if (It != Flights.end()) {
      F = It->second;
    } else {
      F = std::make_shared<Flight>();
      Flights.emplace(Key, F);
      Leader = true;
    }
  }

  if (!Leader) {
    Coalesced.fetch_add(1, std::memory_order_relaxed);
    ServiceMetrics::get().Coalesced.inc();
    SWP_TRACE_INSTANT("service.coalesced", {});
    std::unique_lock<std::mutex> Lock(F->Mu);
    F->Ready.wait(Lock, [&] { return F->Done; });
    return F->Result;
  }

  // A failed factory is published to the followers but never memoized:
  // the next request gets a fresh attempt.
  CompileResult R = runCompile(Job, P);
  if (Cfg.MemoizeResults && P)
    memoInsert(Key, R);
  {
    std::lock_guard<std::mutex> Lock(FlightsMu);
    Flights.erase(Key);
  }
  {
    std::lock_guard<std::mutex> Lock(F->Mu);
    F->Result = R;
    F->Done = true;
  }
  F->Ready.notify_all();
  return R;
}

std::vector<CompileResult>
CompileService::compileBatch(const std::vector<CompileJob> &Jobs) {
  SWP_TRACE_SPAN(Span, "service.compileBatch");
  std::vector<CompileResult> Results(Jobs.size());
  if (Jobs.empty())
    return Results;
  ThreadPool &Pool = Cfg.Pool ? *Cfg.Pool : ThreadPool::global();
  TaskGroup Group;
  for (size_t I = 0; I < Jobs.size(); ++I)
    Pool.enqueue(Group, [this, &Jobs, &Results, I] {
      Results[I] = compileOne(Jobs[I]);
    });
  Pool.wait(Group);
  return Results;
}

ServiceStats CompileService::stats() const {
  ServiceStats S;
  S.Requests = Requests.load(std::memory_order_relaxed);
  S.Compiles = Compiles.load(std::memory_order_relaxed);
  S.MemoHits = MemoHits.load(std::memory_order_relaxed);
  S.Coalesced = Coalesced.load(std::memory_order_relaxed);
  return S;
}
