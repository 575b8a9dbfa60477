//===- Session.cpp - Versioned async compile API --------------------------===//
//
// Part of warp-swp. See swp/API/Session.h.
//
//===----------------------------------------------------------------------===//

#include "swp/API/Session.h"

#include "swp/Metrics/Metrics.h"
#include "swp/Support/Json.h"
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

const char *const OutcomeName = "swp_session_outcomes_total";
const char *const OutcomeHelp = "Completed session requests, by outcome";
const char *const LatencyName = "swp_session_latency_us";
const char *const LatencyHelp =
    "Submit-to-complete microseconds, by priority class";

/// Request-level metrics, aggregated over every session in the process.
/// Latency is submit→complete (queue wait + compile) for async requests,
/// call duration for the synchronous path. Outcome and latency series are
/// split by `target`, the resolved machine name; requests that fail
/// before resolving a machine land under target="unknown", so the label
/// set stays bounded whatever strings callers send. Every request —
/// including ones failed before compiling — lands in exactly one latency
/// series and one outcome series, so the latency count summed over
/// labels equals the request count.
struct SessionMetrics {
  metrics::Counter Submit, CompileNow;
  metrics::Gauge QueueDepth;
  metrics::CounterFamily OutOk, OutDegraded, OutError, OutCancelled,
      OutBudget;
  metrics::HistogramFamily LatLow, LatNormal, LatHigh, LatSync;

  static SessionMetrics &get() {
    static SessionMetrics M;
    return M;
  }

  /// One latency sample in the request's priority class plus one outcome
  /// count. \p Target must be a resolved machine name (or "unknown").
  void recordRequest(const CompileResponse &Resp, int Priority,
                     uint64_t Micros, const std::string &Target) {
    latency(Priority).with(Target).record(Micros);
    outcome(Resp).with(Target).inc();
  }

  /// The synchronous-path variant: priority class "sync".
  void recordSyncRequest(const CompileResponse &Resp, uint64_t Micros,
                         const std::string &Target) {
    LatSync.with(Target).record(Micros);
    outcome(Resp).with(Target).inc();
  }

private:
  SessionMetrics()
      : Submit(reg().counter("swp_session_requests_total",
                             "path=\"submit\"",
                             "Session requests, by entry path")),
        CompileNow(reg().counter("swp_session_requests_total",
                                 "path=\"compile_now\"",
                                 "Session requests, by entry path")),
        QueueDepth(reg().gauge("swp_session_queue_depth", "",
                               "Async requests queued but not yet running")),
        OutOk(reg(), OutcomeName, OutcomeHelp, "target", {{"outcome", "ok"}}),
        OutDegraded(reg(), OutcomeName, OutcomeHelp, "target",
                    {{"outcome", "degraded"}}),
        OutError(reg(), OutcomeName, OutcomeHelp, "target",
                 {{"outcome", "error"}}),
        OutCancelled(reg(), OutcomeName, OutcomeHelp, "target",
                     {{"outcome", "cancelled"}}),
        OutBudget(reg(), OutcomeName, OutcomeHelp, "target",
                  {{"outcome", "budget_tripped"}}),
        LatLow(reg(), LatencyName, LatencyHelp, "target",
               {{"priority", "low"}}),
        LatNormal(reg(), LatencyName, LatencyHelp, "target",
                  {{"priority", "normal"}}),
        LatHigh(reg(), LatencyName, LatencyHelp, "target",
                {{"priority", "high"}}),
        LatSync(reg(), LatencyName, LatencyHelp, "target",
                {{"priority", "sync"}}) {}

  static metrics::MetricsRegistry &reg() {
    return metrics::MetricsRegistry::global();
  }

  /// Priority classes keep label cardinality fixed whatever ints callers
  /// pick: negative = low, zero = normal, positive = high.
  metrics::HistogramFamily &latency(int Priority) {
    return Priority < 0 ? LatLow : Priority > 0 ? LatHigh : LatNormal;
  }

  metrics::CounterFamily &outcome(const CompileResponse &Resp) {
    if (Resp.Result.Report.BudgetTripped != BudgetCause::None)
      return OutBudget;
    if (Resp.Cancelled)
      return OutCancelled;
    if (!Resp.Ok)
      return OutError;
    for (const LoopReport &L : Resp.Result.Report.Loops)
      if (L.Decision == PipelineDecision::Degraded)
        return OutDegraded;
    return OutOk;
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

std::string CompileResponse::toJson() const {
  // Sorted keys; optional keys keep their slot when present. The shape
  // is golden-locked (ApiTests SessionResponseGolden).
  std::ostringstream OS;
  OS << "{\n  \"api_version\": \"" << api::versionString() << "\",\n"
     << "  \"cancelled\": " << (Cancelled ? "true" : "false") << ",\n"
     << "  \"error\": \"" << jsonEscape(Result.Error) << "\",\n"
     << "  \"ok\": " << (Ok ? "true" : "false");
  if (!OptionErrors.empty()) {
    OS << ",\n  \"option_errors\": [";
    for (size_t I = 0; I != OptionErrors.size(); ++I)
      OS << (I ? ", " : "") << "{\"kind\": \""
         << optionErrorKindText(OptionErrors[I].Kind) << "\", \"message\": \""
         << jsonEscape(OptionErrors[I].Message) << "\"}";
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
     << jsonEscape(Target) << "\"\n}";
  return OS.str();
}

//===----------------------------------------------------------------------===//
// SessionConfig
//===----------------------------------------------------------------------===//

std::string SessionConfig::validate() const {
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

    trace::Span Span("session.request");
    if (Span.active()) {
      std::ostringstream Args;
      Args << "\"session_id\": " << Id << ", \"request_id\": " << P->ReqId
           << ", \"target\": \"" << jsonEscape(P->Target) << "\"";
      if (!P->Label.empty())
        Args << ", \"label\": \"" << jsonEscape(P->Label) << "\"";
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
  if (I->Cfg.Service) {
    I->Service = I->Cfg.Service;
  } else {
    I->OwnedService.emplace();
    I->Service = &*I->OwnedService;
  }
}

Session::~Session() { waitAll(); }

uint64_t Session::id() const { return I->Id; }

TargetRegistry &Session::targets() const { return *I->Reg; }

std::string Session::configError() const { return I->ConfigError; }

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
  trace::Span Span("session.submitBatch");
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

  trace::Span Span("session.compileNow");
  if (Span.active()) {
    std::ostringstream Args;
    Args << "\"session_id\": " << Id << ", \"request_id\": " << ReqId
         << ", \"target\": \"" << jsonEscape(Name) << "\"";
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
