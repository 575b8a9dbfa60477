//===- Session.cpp - Versioned async compile API --------------------------===//
//
// Part of warp-swp. See swp/API/Session.h.
//
//===----------------------------------------------------------------------===//

#include "swp/API/Session.h"

#include "swp/Metrics/MetricsServer.h"
#include "swp/Metrics/MetricsSink.h"
#include "swp/Support/ThreadPool.h"
#include "swp/Support/Trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <sstream>
#include <utility>

using namespace swp;

//===----------------------------------------------------------------------===//
// Session fleet metrics
//===----------------------------------------------------------------------===//

namespace {

/// Request-level fleet metrics, aggregated over every session in the
/// process. Latency is submit→complete (queue wait + compile) for async
/// requests, call duration for the synchronous path; every request —
/// including ones failed before compiling — lands in exactly one latency
/// series and one outcome series, so histogram count == requests holds.
struct SessionMetrics {
  metrics::Counter Submit, CompileNow;
  metrics::Counter OutOk, OutDegraded, OutError, OutCancelled, OutBudget;
  metrics::Histogram LatLow, LatNormal, LatHigh, LatSync;
  metrics::Gauge QueueDepth;

  static const SessionMetrics &get() {
    static SessionMetrics M = [] {
      auto &R = metrics::MetricsRegistry::global();
      SessionMetrics M;
      const char *RN = "swp_session_requests_total";
      const char *RH = "Session requests, by entry path";
      M.Submit = R.counter(RN, "path=\"submit\"", RH);
      M.CompileNow = R.counter(RN, "path=\"compile_now\"", RH);
      const char *ON = "swp_session_outcomes_total";
      const char *OH = "Completed session requests, by outcome";
      M.OutOk = R.counter(ON, "outcome=\"ok\"", OH);
      M.OutDegraded = R.counter(ON, "outcome=\"degraded\"", OH);
      M.OutError = R.counter(ON, "outcome=\"error\"", OH);
      M.OutCancelled = R.counter(ON, "outcome=\"cancelled\"", OH);
      M.OutBudget = R.counter(ON, "outcome=\"budget_tripped\"", OH);
      const char *LN = "swp_session_latency_us";
      const char *LH = "Submit-to-complete microseconds, by priority class";
      M.LatLow = R.histogram(LN, "priority=\"low\"", LH);
      M.LatNormal = R.histogram(LN, "priority=\"normal\"", LH);
      M.LatHigh = R.histogram(LN, "priority=\"high\"", LH);
      M.LatSync = R.histogram(LN, "priority=\"sync\"", LH);
      M.QueueDepth = R.gauge("swp_session_queue_depth", "",
                             "Async requests queued but not yet running");
      return M;
    }();
    return M;
  }

  /// Per-target splits of the outcome and latency series (dynamic
  /// `target` label sourced from resolved machine names; requests that
  /// fail before resolving a machine land under target="unknown" so the
  /// label set stays bounded whatever strings callers send). Kept
  /// alongside the unlabeled aggregates above, so existing dashboards
  /// and report tooling keep reading the same series.
  struct PerTarget {
    metrics::CounterFamily OutOk, OutDegraded, OutError, OutCancelled,
        OutBudget;
    metrics::HistogramFamily LatLow, LatNormal, LatHigh, LatSync;

    PerTarget()
        : OutOk(reg(), ON(), OH(), "target", {{"outcome", "ok"}}),
          OutDegraded(reg(), ON(), OH(), "target", {{"outcome", "degraded"}}),
          OutError(reg(), ON(), OH(), "target", {{"outcome", "error"}}),
          OutCancelled(reg(), ON(), OH(), "target",
                       {{"outcome", "cancelled"}}),
          OutBudget(reg(), ON(), OH(), "target",
                    {{"outcome", "budget_tripped"}}),
          LatLow(reg(), LN(), LH(), "target", {{"priority", "low"}}),
          LatNormal(reg(), LN(), LH(), "target", {{"priority", "normal"}}),
          LatHigh(reg(), LN(), LH(), "target", {{"priority", "high"}}),
          LatSync(reg(), LN(), LH(), "target", {{"priority", "sync"}}) {}

    metrics::HistogramFamily &latency(int Priority) {
      return Priority < 0 ? LatLow : Priority > 0 ? LatHigh : LatNormal;
    }

    static PerTarget &get() {
      static PerTarget M;
      return M;
    }

  private:
    static metrics::MetricsRegistry &reg() {
      return metrics::MetricsRegistry::global();
    }
    static const char *ON() { return "swp_session_outcomes_total"; }
    static const char *OH() {
      return "Completed session requests, by outcome";
    }
    static const char *LN() { return "swp_session_latency_us"; }
    static const char *LH() {
      return "Submit-to-complete microseconds, by priority class";
    }
  };

  /// Priority classes keep label cardinality fixed whatever ints callers
  /// pick: negative = low, zero = normal, positive = high.
  const metrics::Histogram &latency(int Priority) const {
    return Priority < 0 ? LatLow : Priority > 0 ? LatHigh : LatNormal;
  }

  /// One latency sample + one outcome count, in both the unlabeled
  /// aggregate and the per-target split. \p Target must be a resolved
  /// machine name (or "unknown").
  void recordRequest(const CompileResponse &Resp, int Priority,
                     uint64_t Micros, const std::string &Target) const {
    latency(Priority).record(Micros);
    PerTarget::get().latency(Priority).with(Target).record(Micros);
    recordOutcome(Resp, Target);
  }

  /// The synchronous-path variant: priority class "sync".
  void recordSyncRequest(const CompileResponse &Resp, uint64_t Micros,
                         const std::string &Target) const {
    LatSync.record(Micros);
    PerTarget::get().LatSync.with(Target).record(Micros);
    recordOutcome(Resp, Target);
  }

  void recordOutcome(const CompileResponse &Resp,
                     const std::string &Target) const {
    auto &T = PerTarget::get();
    if (Resp.Result.Report.BudgetTripped != BudgetCause::None) {
      OutBudget.inc();
      T.OutBudget.with(Target).inc();
    } else if (Resp.Cancelled) {
      OutCancelled.inc();
      T.OutCancelled.with(Target).inc();
    } else if (!Resp.Ok) {
      OutError.inc();
      T.OutError.with(Target).inc();
    } else {
      for (const LoopReport &L : Resp.Result.Report.Loops)
        if (L.Decision == PipelineDecision::Degraded) {
          OutDegraded.inc();
          T.OutDegraded.with(Target).inc();
          return;
        }
      OutOk.inc();
      T.OutOk.with(Target).inc();
    }
  }
};

/// Label for requests that never resolved a machine description.
const char *const UnknownTarget = "unknown";

uint64_t microsSince(std::chrono::steady_clock::time_point T0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - T0)
          .count());
}

} // namespace

//===----------------------------------------------------------------------===//
// CompileResponse
//===----------------------------------------------------------------------===//

static std::string escapeJson(const std::string &S) {
  std::string R;
  for (char C : S) {
    switch (C) {
    case '"':
      R += "\\\"";
      break;
    case '\\':
      R += "\\\\";
      break;
    case '\n':
      R += "\\n";
      break;
    case '\t':
      R += "\\t";
      break;
    default:
      R += C;
    }
  }
  return R;
}

std::string CompileResponse::toJson() const {
  // Sorted keys; optional keys keep their slot when present. The shape
  // is golden-locked (ApiTests SessionResponseGolden).
  std::ostringstream OS;
  OS << "{\n  \"api_version\": \"" << api::versionString() << "\",\n"
     << "  \"cancelled\": " << (Cancelled ? "true" : "false") << ",\n"
     << "  \"error\": \"" << escapeJson(Result.Error) << "\",\n"
     << "  \"ok\": " << (Ok ? "true" : "false");
  if (!OptionErrors.empty()) {
    OS << ",\n  \"option_errors\": [";
    for (size_t I = 0; I != OptionErrors.size(); ++I)
      OS << (I ? ", " : "") << "{\"kind\": \""
         << optionErrorKindText(OptionErrors[I].Kind) << "\", \"message\": \""
         << escapeJson(OptionErrors[I].Message) << "\"}";
    OS << "]";
  }
  if (Ok) {
    // Indent the report's rendering two spaces so the envelope nests
    // readably; the report itself is already canonical sorted-key JSON.
    std::string Report = Result.Report.toJson();
    std::string Indented;
    Indented.reserve(Report.size());
    for (char C : Report) {
      Indented += C;
      if (C == '\n')
        Indented += "  ";
    }
    OS << ",\n  \"report\": " << Indented;
  }
  OS << ",\n  \"request_id\": " << RequestId
     << ",\n  \"session_id\": " << SessionId << ",\n  \"target\": \""
     << escapeJson(Target) << "\"\n}";
  return OS.str();
}

//===----------------------------------------------------------------------===//
// SessionConfig
//===----------------------------------------------------------------------===//

std::string SessionConfig::validate() const {
  if (Service && !MemoizeResults)
    return "SessionConfig: MemoizeResults configures the session-private "
           "service; it is ignored when a Service is injected";
  std::vector<OptionDiag> Diags = DefaultOpts.validate();
  if (!Diags.empty())
    return "SessionConfig: DefaultOpts invalid: " + Diags.front().Message;
  return "";
}

//===----------------------------------------------------------------------===//
// Session
//===----------------------------------------------------------------------===//

namespace {

/// Everything one queued request needs to run, independent of the
/// CompileRequest it came from (which the caller may have destroyed).
struct PendingRequest {
  uint64_t ReqId = 0;
  int Priority = 0;
  uint64_t Seq = 0; ///< Submission order, for FIFO among equal priorities.
  std::chrono::steady_clock::time_point SubmitTime; ///< For latency metrics.
  std::function<std::unique_ptr<Program>()> Make;
  const MachineDescription *MD = nullptr;
  CompilerOptions Opts; ///< Merged and budget-normalized.
  std::shared_ptr<BudgetTracker> Tracker;
  std::string Target;
  std::string Label;
  std::promise<CompileResponse> Promise;
};

/// Max-heap order: higher priority first, then lower sequence number.
struct PendingLess {
  bool operator()(const std::unique_ptr<PendingRequest> &A,
                  const std::unique_ptr<PendingRequest> &B) const {
    if (A->Priority != B->Priority)
      return A->Priority < B->Priority;
    return A->Seq > B->Seq;
  }
};

uint64_t nextSessionId() {
  static std::atomic<uint64_t> Next{1};
  return Next.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

struct Session::Impl {
  SessionConfig Cfg;
  std::string ConfigError;
  uint64_t Id = 0;
  TargetRegistry *Reg = nullptr;
  ThreadPool *Pool = nullptr;
  std::optional<CompileService> OwnedService;
  CompileService *Service = nullptr;

  std::atomic<uint64_t> NextReq{0};
  std::mutex QueueMu;
  std::vector<std::unique_ptr<PendingRequest>> Queue; ///< Heap (PendingLess).
  TaskGroup Outstanding;
  std::optional<metrics::MetricsSink> Sink; ///< SessionConfig::MetricsJsonl.
  std::optional<metrics::MetricsServer> Server; ///< SessionConfig::MetricsPort.

  /// Pops and runs the highest-priority pending request. Each submit
  /// enqueues exactly one call, so pops never find the heap empty.
  void runNext() {
    std::unique_ptr<PendingRequest> P;
    {
      std::lock_guard<std::mutex> Lock(QueueMu);
      std::pop_heap(Queue.begin(), Queue.end(), PendingLess());
      P = std::move(Queue.back());
      Queue.pop_back();
    }
    SessionMetrics::get().QueueDepth.sub(1);

    SWP_TRACE_SPAN(Span, "session.request");
    if (Span.active()) {
      std::ostringstream Args;
      Args << "\"session_id\": " << Id << ", \"request_id\": " << P->ReqId
           << ", \"target\": \"" << P->Target << "\"";
      if (!P->Label.empty())
        Args << ", \"label\": \"" << P->Label << "\"";
      Span.args(Args.str());
    }

    CompileJob Job;
    Job.Make = std::move(P->Make);
    Job.MD = P->MD;
    Job.Opts = P->Opts;
    Job.Tracker = P->Tracker.get();
    CompileResult R = Service->compileOne(Job);

    CompileResponse Resp;
    Resp.SessionId = Id;
    Resp.RequestId = P->ReqId;
    Resp.Target = P->Target;
    Resp.Cancelled = P->Tracker && P->Tracker->expired();
    R.Report.SessionId = Id;
    R.Report.RequestId = P->ReqId;
    Resp.Ok = R.Ok;
    Resp.Result = std::move(R);
    SessionMetrics::get().recordRequest(Resp, P->Priority,
                                        microsSince(P->SubmitTime), P->Target);
    P->Promise.set_value(std::move(Resp));
  }

  /// Fulfills a handle immediately with a request-level failure.
  static CompileHandle failNow(uint64_t SessionId, uint64_t ReqId,
                               std::string Target, std::string Error,
                               std::vector<OptionDiag> OptionErrors) {
    CompileResponse Resp;
    Resp.SessionId = SessionId;
    Resp.RequestId = ReqId;
    Resp.Target = std::move(Target);
    Resp.Result.Error = std::move(Error);
    Resp.Result.Report.SessionId = SessionId;
    Resp.Result.Report.RequestId = ReqId;
    Resp.OptionErrors = std::move(OptionErrors);
    std::promise<CompileResponse> Promise;
    CompileHandle H;
    H.Future = Promise.get_future().share();
    H.ReqId = ReqId;
    Promise.set_value(std::move(Resp));
    return H;
  }

  /// Resolves the request's machine; null with Error set on failure.
  const MachineDescription *resolveTarget(const CompileRequest &Req,
                                          std::string &Name,
                                          std::string &Error) const {
    if (Req.Machine) {
      Name = Req.Machine->name();
      return Req.Machine;
    }
    Name = Req.Target.empty() ? Cfg.DefaultTarget : Req.Target;
    const MachineDescription *MD = Reg->lookup(Name);
    if (!MD)
      Error = "unknown target \"" + Name + "\" (known: " + knownNames() + ")";
    return MD;
  }

  std::string knownNames() const {
    std::string Joined;
    for (const std::string &N : Reg->names())
      Joined += (Joined.empty() ? "" : ", ") + N;
    return Joined;
  }

  CompileResponse compileNowImpl(Program &P, const CompileRequest &Req,
                                 DiagnosticEngine *Diags);
  /// \p TargetLabel receives the resolved machine name, or "unknown"
  /// when the request failed before resolution (bounded metric labels).
  CompileResponse compileNowInner(Program &P, const CompileRequest &Req,
                                  DiagnosticEngine *Diags,
                                  std::string &TargetLabel);

  /// Applies session defaults and moves any budget ceilings into the
  /// request's tracker. Returns false with diagnostics on rejection.
  bool mergeOptions(const CompileRequest &Req, CompilerOptions &Out,
                    std::shared_ptr<BudgetTracker> &Tracker,
                    std::string &Error,
                    std::vector<OptionDiag> &OptionErrors) const {
    Out = Req.Opts ? *Req.Opts : Cfg.DefaultOpts;

    if (Req.Budget.limited() && Out.Budget.limited()) {
      OptionErrors.push_back(
          {OptionErrorKind::DuplicateBudget,
           "CompileRequest: Budget and Opts->Budget are mutually "
           "exclusive; set the ceilings once"});
      Error = OptionErrors.front().Message;
      return false;
    }
    // All ceilings ride the tracker (which doubles as the cancellation
    // token); the inline Budget field stays empty so validate()'s
    // DuplicateBudget check holds by construction.
    CompileBudget Ceilings = Req.Budget.limited() ? Req.Budget : Out.Budget;
    Out.Budget = CompileBudget();
    Tracker = std::make_shared<BudgetTracker>(Ceilings);

    CompilerOptions Check = Out;
    Check.Tracker = Tracker.get();
    OptionErrors = Check.validate();
    if (!OptionErrors.empty()) {
      Error = OptionErrors.front().Message;
      return false;
    }
    return true;
  }
};

Session::Session(SessionConfig Cfg) : I(std::make_unique<Impl>()) {
  I->Cfg = std::move(Cfg);
  I->Id = nextSessionId();
  I->Reg = I->Cfg.Registry ? I->Cfg.Registry : &TargetRegistry::global();
  I->Pool = I->Cfg.Pool ? I->Cfg.Pool : &ThreadPool::global();
  I->ConfigError = I->Cfg.validate();
  if (I->ConfigError.empty() && !I->Reg->lookup(I->Cfg.DefaultTarget))
    I->ConfigError = "SessionConfig: DefaultTarget \"" + I->Cfg.DefaultTarget +
                     "\" is not registered (known: " + I->knownNames() + ")";
  if (!I->Cfg.MetricsJsonl.empty()) {
    // The telemetry hook implies the caller wants numbers: enable the
    // global registry for the life of the process (cheap, and flipping
    // it back off when one session dies would blind the others).
    metrics::setEnabled(true);
    metrics::MetricsSink::Config SC;
    SC.Path = I->Cfg.MetricsJsonl;
    SC.IntervalMs = I->Cfg.MetricsFlushMs;
    I->Sink.emplace(std::move(SC));
    if (!I->Sink->ok() && I->ConfigError.empty())
      I->ConfigError = I->Sink->error();
  }
  if (I->Cfg.MetricsPort >= 0 && I->Cfg.MetricsPort <= 65535) {
    // Same policy as the JSONL hook: asking to be scraped means the
    // caller wants numbers.
    metrics::setEnabled(true);
    metrics::MetricsServer::Config MC;
    MC.Port = static_cast<uint16_t>(I->Cfg.MetricsPort);
    I->Server.emplace(MC);
    if (!I->Server->ok() && I->ConfigError.empty())
      I->ConfigError = I->Server->error();
  } else if (I->Cfg.MetricsPort > 65535 && I->ConfigError.empty()) {
    I->ConfigError = "SessionConfig: MetricsPort " +
                     std::to_string(I->Cfg.MetricsPort) +
                     " is not a TCP port (0..65535, or -1 to disable)";
  }
  if (I->Cfg.Service) {
    I->Service = I->Cfg.Service;
  } else {
    CompileService::Config SC;
    SC.Pool = I->Pool;
    SC.MemoizeResults = I->Cfg.MemoizeResults;
    I->OwnedService.emplace(SC);
    I->Service = &*I->OwnedService;
  }
}

Session::~Session() { waitAll(); }

uint64_t Session::id() const { return I->Id; }

TargetRegistry &Session::targets() const { return *I->Reg; }

std::string Session::configError() const { return I->ConfigError; }

uint16_t Session::metricsPort() const {
  return I->Server && I->Server->ok() ? I->Server->port() : 0;
}

void Session::waitAll() { I->Pool->wait(I->Outstanding); }

ServiceStats Session::stats() const { return I->Service->stats(); }

CompileHandle Session::submit(CompileRequest Req) {
  uint64_t ReqId = I->NextReq.fetch_add(1, std::memory_order_relaxed) + 1;
  auto T0 = std::chrono::steady_clock::now();
  SessionMetrics::get().Submit.inc();
  // Requests failed before queueing still land one latency sample and
  // one outcome, keeping count == requests. failNow's handle is already
  // resolved, so get() below never blocks.
  auto FailRecorded = [&](CompileHandle H, const std::string &Target) {
    SessionMetrics::get().recordRequest(H.get(), Req.Priority, microsSince(T0),
                                        Target);
    return H;
  };

  if (!I->ConfigError.empty())
    return FailRecorded(
        Impl::failNow(I->Id, ReqId, Req.Target, I->ConfigError, {}),
        UnknownTarget);
  if (!Req.Make)
    return FailRecorded(
        Impl::failNow(I->Id, ReqId, Req.Target,
                      "CompileRequest: Make (the program factory) is "
                      "required for async submission",
                      {}),
        UnknownTarget);

  std::string Target, Error;
  const MachineDescription *MD = I->resolveTarget(Req, Target, Error);
  if (!MD)
    return FailRecorded(
        Impl::failNow(I->Id, ReqId, Target, std::move(Error), {}),
        UnknownTarget);

  auto P = std::make_unique<PendingRequest>();
  std::vector<OptionDiag> OptionErrors;
  if (!I->mergeOptions(Req, P->Opts, P->Tracker, Error, OptionErrors))
    return FailRecorded(Impl::failNow(I->Id, ReqId, Target, std::move(Error),
                                      std::move(OptionErrors)),
                        Target);

  P->ReqId = ReqId;
  P->SubmitTime = T0;
  P->Priority = Req.Priority;
  P->Make = std::move(Req.Make);
  P->MD = MD;
  P->Target = Target;
  P->Label = std::move(Req.Label);
  P->Promise = std::promise<CompileResponse>();

  CompileHandle H;
  H.Future = P->Promise.get_future().share();
  H.Tracker = P->Tracker;
  H.ReqId = ReqId;

  {
    std::lock_guard<std::mutex> Lock(I->QueueMu);
    P->Seq = ReqId; // Strictly increasing: FIFO among equal priorities.
    I->Queue.push_back(std::move(P));
    std::push_heap(I->Queue.begin(), I->Queue.end(), PendingLess());
  }
  SessionMetrics::get().QueueDepth.add(1);
  Impl *Ip = I.get();
  I->Pool->enqueue(I->Outstanding, [Ip] { Ip->runNext(); });
  return H;
}

std::vector<CompileHandle>
Session::submitBatch(std::vector<CompileRequest> Reqs) {
  SWP_TRACE_SPAN(Span, "session.submitBatch");
  std::vector<CompileHandle> Handles;
  Handles.reserve(Reqs.size());
  for (CompileRequest &Req : Reqs)
    Handles.push_back(submit(std::move(Req)));
  return Handles;
}

CompileResponse Session::compileNow(Program &P, const std::string &Target,
                                    const CompilerOptions *Opts,
                                    DiagnosticEngine *Diags) {
  CompileRequest Req;
  Req.Target = Target;
  if (Opts)
    Req.Opts = *Opts;
  return I->compileNowImpl(P, Req, Diags);
}

CompileResponse Session::compileNow(Program &P, const MachineDescription &MD,
                                    const CompilerOptions *Opts,
                                    DiagnosticEngine *Diags) {
  CompileRequest Req;
  Req.Machine = &MD;
  if (Opts)
    Req.Opts = *Opts;
  return I->compileNowImpl(P, Req, Diags);
}

CompileResponse Session::Impl::compileNowImpl(Program &P,
                                              const CompileRequest &Req,
                                              DiagnosticEngine *Diags) {
  auto T0 = std::chrono::steady_clock::now();
  SessionMetrics::get().CompileNow.inc();
  std::string TargetLabel = UnknownTarget;
  CompileResponse Resp = compileNowInner(P, Req, Diags, TargetLabel);
  SessionMetrics::get().recordSyncRequest(Resp, microsSince(T0), TargetLabel);
  return Resp;
}

CompileResponse Session::Impl::compileNowInner(Program &P,
                                               const CompileRequest &Req,
                                               DiagnosticEngine *Diags,
                                               std::string &TargetLabel) {
  uint64_t ReqId = NextReq.fetch_add(1, std::memory_order_relaxed) + 1;
  CompileResponse Resp;
  Resp.SessionId = Id;
  Resp.RequestId = ReqId;
  Resp.Target = Req.Target;
  Resp.Result.Report.SessionId = Id;
  Resp.Result.Report.RequestId = ReqId;

  if (!ConfigError.empty()) {
    Resp.Result.Error = ConfigError;
    return Resp;
  }

  std::string Name, Error;
  const MachineDescription *MD = resolveTarget(Req, Name, Error);
  Resp.Target = Name;
  if (!MD) {
    Resp.Result.Error = std::move(Error);
    return Resp;
  }
  TargetLabel = Name;

  CompilerOptions Merged;
  std::shared_ptr<BudgetTracker> Tracker;
  if (!mergeOptions(Req, Merged, Tracker, Error, Resp.OptionErrors)) {
    Resp.Result.Error = std::move(Error);
    return Resp;
  }

  SWP_TRACE_SPAN(Span, "session.compileNow");
  if (Span.active()) {
    std::ostringstream Args;
    Args << "\"session_id\": " << Id << ", \"request_id\": " << ReqId
         << ", \"target\": \"" << Name << "\"";
    Span.args(Args.str());
  }

  // In-place and memo-free by design: the caller gets *this* program
  // mutated (simulate() needs it), which a memoized copy cannot give.
  // Ceilings (if any) still ride the tracker for uniformity.
  Merged.Tracker = Tracker.get();
  CompileResult R = compileProgram(P, *MD, Merged, Diags);
  R.Report.SessionId = Id;
  R.Report.RequestId = ReqId;
  Resp.Cancelled = Tracker && Tracker->expired();
  Resp.Ok = R.Ok;
  Resp.Result = std::move(R);
  return Resp;
}
