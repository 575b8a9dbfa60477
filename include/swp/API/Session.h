//===- swp/API/Session.h - Versioned async compile API ----------*- C++ -*-===//
//
// Part of warp-swp. See DESIGN.md section 11.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public compile API: a Session accepts CompileRequests against
/// named targets (see TargetRegistry.h) and answers CompileResponses,
/// either synchronously (compileNow) or asynchronously (submit /
/// submitBatch returning future-backed CompileHandles). The API is
/// versioned — every response envelope carries "api_version" (see
/// Version.h for the stability policy) — and everything underneath is
/// the existing compiler stack: requests flow through a CompileService
/// (whole-result memo, single-flight dedup) into compileProgram, so a
/// session's results are bit-identical to bare compileProgram calls
/// (tests enforce the equivalence).
///
/// What the session adds over the free function:
///
///  - named targets: requests say "warp-cell" or a name loaded from a
///    JSON machine file instead of hauling MachineDescriptions around,
///    and one batch may mix targets — per-target memo keys stay separate
///    because fingerprintMachine covers the full resource / latency /
///    register tables;
///  - async submission with priorities: submit() queues work on the
///    shared ThreadPool and returns immediately; a session-private
///    priority queue (higher Priority first, FIFO among equals) decides
///    what runs as workers free up;
///  - cooperative cancellation: every handle can cancel(); the request's
///    BudgetTracker token trips, the scheduler backs out at its next
///    probe, and the response reports Cancelled. Per-request budget
///    ceilings ride the same tracker;
///  - per-session defaults: options and target are configured once
///    (SessionConfig) and every request inherits them unless it
///    overrides;
///  - identity: responses and their embedded CompileReports carry
///    (session_id, request_id), and the session's trace spans are
///    labeled with the same pair, so a report joins against a Perfetto
///    trace of the serving process.
///
/// Threading: submit / submitBatch / compileNow / cancel may be called
/// from any thread. Handle::get() blocks the calling thread; do not
/// call it from inside a pool task (block-waiting a future on the pool
/// can deadlock a saturated pool — the session's own workers never
/// do). The destructor drains all outstanding requests.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_API_SESSION_H
#define SWP_API_SESSION_H

#include "swp/API/TargetRegistry.h"
#include "swp/API/Version.h"
#include "swp/Codegen/Compiler.h"
#include "swp/Service/CompileService.h"
#include "swp/Support/Budget.h"

#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace swp {

class ThreadPool;

/// One unit of work for a Session. The program arrives as a factory
/// because compileProgram mutates its input: the factory runs once per
/// actual compile, and not at all when the service answers from its
/// memo. (For the in-place path where the caller needs the mutated
/// program back — e.g. to simulate it — use Session::compileNow.)
struct CompileRequest {
  /// Builds a fresh instance of the program to compile. Required.
  std::function<std::unique_ptr<Program>()> Make;

  /// Target name in the session's registry; empty means the session's
  /// DefaultTarget. Unknown names fail the request up front (the handle
  /// resolves immediately with an error, nothing is compiled).
  std::string Target;

  /// Explicit machine override (not owned; must outlive the request).
  /// When set, Target is ignored and the response's Target is the
  /// machine's display name.
  const MachineDescription *Machine = nullptr;

  /// Options override. Unset inherits the session's DefaultOpts
  /// wholesale; set replaces them wholesale (no field-wise merge, so a
  /// request's option set is always readable in one place).
  std::optional<CompilerOptions> Opts;

  /// Per-request budget ceilings (0 = unlimited), enforced through the
  /// request's cancellation tracker. Mutually exclusive with ceilings
  /// inside Opts->Budget — setting both fails the request with
  /// OptionErrorKind::DuplicateBudget.
  CompileBudget Budget;

  /// Scheduling priority: higher runs earlier; equal priorities run in
  /// submission order.
  int Priority = 0;

  /// Optional label carried into the session's trace span for this
  /// request ("kernel-7"), making per-request spans findable by name.
  std::string Label;
};

/// The answer to one CompileRequest. Everything a caller needs is here:
/// the compile outcome (Result.Ok / Result.Error / Result.Code /
/// Result.Report), request-level typed option diagnostics, and the
/// (session_id, request_id) identity also stamped into the report.
struct CompileResponse {
  /// Convenience mirror of Result.Ok (false also for request-level
  /// failures: unknown target, invalid options, cancellation).
  bool Ok = false;

  CompileResult Result;

  /// Typed findings when the request's option set was rejected
  /// (Result.Error carries the first message; nothing was compiled).
  std::vector<OptionDiag> OptionErrors;

  /// Resolved target name (registry name, or the explicit machine's
  /// display name).
  std::string Target;

  /// The request's cancellation/budget token tripped (cancel() or a
  /// per-request ceiling). The compile backed out cooperatively; for a
  /// ceiling trip Result.Report.BudgetTripped names the cause.
  bool Cancelled = false;

  uint64_t SessionId = 0;
  uint64_t RequestId = 0;

  /// The versioned response envelope as canonical sorted-key JSON:
  /// {"api_version", "cancelled", "error", "ok", ["option_errors",]
  ///  ["report",] "request_id", "session_id", "target"}. The envelope
  /// shape is locked by a golden snapshot (tests/goldens/); per the
  /// stability policy, consumers must ignore unknown keys.
  std::string toJson() const;
};

/// A future over one submitted request. Copyable (shared state); the
/// default-constructed handle is invalid. Dropping every copy without
/// get() is safe — the session still completes the work.
class CompileHandle {
public:
  CompileHandle() = default;

  /// True when this handle refers to a submitted request.
  bool valid() const { return Future.valid(); }

  /// The request id (matches the response and its report).
  uint64_t requestId() const { return ReqId; }

  /// Blocks until the response is ready and returns it. Never throws;
  /// failed requests come back as Ok = false responses.
  const CompileResponse &get() const { return Future.get(); }

  /// True when get() would not block.
  bool ready() const {
    return Future.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
  }

  /// Trips the request's cancellation token. Cooperative and always
  /// safe: a not-yet-started request is answered "compile cancelled"
  /// without compiling; a running one backs out at the scheduler's
  /// next probe; a finished one is unaffected. Idempotent.
  void cancel() const {
    if (Tracker)
      Tracker->cancel();
  }

private:
  friend class Session;
  std::shared_future<CompileResponse> Future;
  std::shared_ptr<BudgetTracker> Tracker;
  uint64_t ReqId = 0;
};

/// Per-session defaults and wiring. Everything is optional: the
/// zero-argument Session compiles for "warp-cell" with default options
/// on the process-wide pool and registry.
struct SessionConfig {
  /// Target for requests that name none. Must exist in the registry at
  /// construction time.
  std::string DefaultTarget = "warp-cell";

  /// Options for requests that carry none.
  CompilerOptions DefaultOpts;

  /// Target namespace (not owned). Null = TargetRegistry::global().
  TargetRegistry *Registry = nullptr;

  /// Pool async requests run on (not owned). Null = ThreadPool::global().
  ThreadPool *Pool = nullptr;

  /// Inject an existing CompileService (not owned) so several sessions
  /// share one memo; null gives the session a private service.
  CompileService *Service = nullptr;

  /// Whole-result memoization for the session-private service. Ignored
  /// — and rejected by validate() — when Service is injected.
  bool MemoizeResults = true;

  /// Telemetry hook: when non-empty, the session enables the global
  /// metrics registry and owns a MetricsSink streaming periodic JSONL
  /// snapshots to this path for the session's lifetime (final flush on
  /// destruction). See swp/Metrics/MetricsSink.h and DESIGN.md §12.
  std::string MetricsJsonl;

  /// Flush interval for MetricsJsonl in milliseconds; 0 writes only the
  /// final snapshot.
  unsigned MetricsFlushMs = 1000;

  /// Scrape hook: when >= 0, the session enables the global metrics
  /// registry and owns a MetricsServer (swp/Metrics/MetricsServer.h)
  /// listening on 127.0.0.1:<MetricsPort> for the session's lifetime;
  /// 0 binds an ephemeral port — read it back with metricsPort(). A
  /// port that fails to bind is a config error, reported like every
  /// other through configError(). -1 (the default) serves nothing.
  int MetricsPort = -1;

  /// First incoherence in this config ("" when coherent): an injected
  /// Service combined with MemoizeResults = false (it configures the
  /// private service the injection replaces — it would be silently
  /// ignored), or DefaultOpts that fail
  /// CompilerOptions::validate(). Session's constructor runs this;
  /// a bad config fails every request with the message rather than
  /// aborting (constructors can't return errors).
  std::string validate() const;
};

/// The façade. One Session per client/tenant/tool invocation; sessions
/// are independent (ids, queues, defaults) but may share a registry,
/// pool, and service through SessionConfig.
class Session {
public:
  explicit Session(SessionConfig Cfg = {});
  ~Session(); ///< Drains all outstanding requests, then releases wiring.

  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  /// Process-unique session id (nonzero), stamped into every response.
  uint64_t id() const;

  /// The session's target namespace.
  TargetRegistry &targets() const;

  /// The config incoherence found at construction ("" when healthy).
  std::string configError() const;

  /// The port the SessionConfig::MetricsPort scrape endpoint actually
  /// bound (the kernel's pick under port 0); 0 when no server runs.
  uint16_t metricsPort() const;

  /// Queues one request and returns immediately. The handle's future
  /// resolves when the compile finishes (or the request fails up
  /// front). Thread-safe.
  CompileHandle submit(CompileRequest Req);

  /// Queues a batch (handles in request order). Equivalent to calling
  /// submit in a loop; batches may mix targets, options, priorities.
  std::vector<CompileHandle> submitBatch(std::vector<CompileRequest> Reqs);

  /// The synchronous in-place path: compiles \p P (mutating it, exactly
  /// like compileProgram) for \p Target (empty = session default) with
  /// \p Opts (null = session defaults), on the calling thread. Bypasses
  /// the whole-result memo — the caller wants *this* instance mutated
  /// (to simulate it), which a memoized copy cannot provide — but still
  /// stamps ids. \p Diags receives compile errors when non-null.
  CompileResponse compileNow(Program &P, const std::string &Target = "",
                             const CompilerOptions *Opts = nullptr,
                             DiagnosticEngine *Diags = nullptr);

  /// Same, compiling for an explicit machine instead of a registered
  /// name (mirrors CompileRequest::Machine; the machine's display name
  /// becomes the response's Target). Thread-safe, like all entry points.
  CompileResponse compileNow(Program &P, const MachineDescription &MD,
                             const CompilerOptions *Opts = nullptr,
                             DiagnosticEngine *Diags = nullptr);

  /// Blocks until every submitted request has resolved.
  void waitAll();

  /// Counters of the underlying CompileService (shared counters when
  /// the service was injected).
  ServiceStats stats() const;

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace swp

#endif // SWP_API_SESSION_H
