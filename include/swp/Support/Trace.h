//===- swp/Support/Trace.h - Structured compiler tracing --------*- C++ -*-===//
//
// Part of warp-swp. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-aware structured tracing layer for the compiler and the
/// simulator, in the spirit of LLVM's -ftime-trace: RAII spans and instant
/// events are collected into per-thread ring buffers and flushed on
/// session stop as Chrome trace-event JSON, loadable in Perfetto or
/// chrome://tracing. Each thread gets its own track (tid), so work the
/// thread pool spreads over its workers shows up per worker.
///
/// Cost model:
///   - compile-time off (-DSWP_TRACE_ENABLED=0): every macro expands to
///     nothing; the library contains no instrumentation at all;
///   - compiled in but runtime-inactive (the default): one relaxed atomic
///     load per span, no allocation, no locking;
///   - active: one uncontended per-thread mutex acquisition per event
///     (taken only to serialize against the session flush, which may run
///     on another thread), appends into a preallocated ring buffer.
///
/// Sessions are process-global: trace::start(path) begins collecting,
/// trace::stop() flushes every thread's buffer to \c path. Buffers are
/// owned by a process-wide registry (not by the threads), so events
/// recorded by pool workers survive the workers' exit and are flushed
/// with everyone else's.
///
/// Args strings are caller-formatted JSON object bodies ("\"ii\": 5"),
/// built only when a span is active (check \c Span::active() first, or
/// route through the SWP_TRACE_* macros which compile away entirely when
/// tracing is off).
///
//===----------------------------------------------------------------------===//

#ifndef SWP_SUPPORT_TRACE_H
#define SWP_SUPPORT_TRACE_H

#include <cstddef>
#include <cstdint>
#include <string>

/// Compile-time master switch. Off removes every trace site from the
/// binary; the runtime API degrades to no-ops that report !compiledIn().
#ifndef SWP_TRACE_ENABLED
#define SWP_TRACE_ENABLED 1
#endif

namespace swp {
namespace trace {

/// True when the binary contains trace instrumentation.
constexpr bool compiledIn() { return SWP_TRACE_ENABLED != 0; }

/// True while a session is collecting (always false when compiled out).
bool isActive();

/// Begins a session writing to \p Path on stop(). Clears all buffers.
/// Returns false (and does nothing) when compiled out or already active.
bool start(const std::string &Path);

/// Stops the session and flushes every thread's events to the session
/// path as Chrome trace-event JSON. Returns false on I/O failure or when
/// no session was active; \p Error receives a description when non-null.
bool stop(std::string *Error = nullptr);

/// Labels the calling thread's track in the trace (a thread_name
/// metadata event). Safe to call any time; a no-op when inactive.
void setThreadName(const std::string &Name);

/// Records an instant event (ph "i") with an optional preformatted JSON
/// args body. A no-op when inactive.
void instant(const char *Name, std::string ArgsJson = {});

/// Records a counter sample (ph "C"): \p Name is the counter track,
/// \p Key the series, \p Value the sample. A no-op when inactive.
void counter(const char *Name, const char *Key, double Value);

/// Events dropped because a thread's ring buffer wrapped during the
/// current (or last) session.
uint64_t droppedEvents();

/// One RAII span: duration from construction to destruction, recorded as
/// a complete event (ph "X") on the calling thread's track. \p Name must
/// outlive the span (string literals only).
class Span {
public:
  explicit Span(const char *Name);
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
  ~Span();

  /// True when this span will be recorded: guard args formatting on it.
  bool active() const { return Name != nullptr; }

  /// Attaches a preformatted JSON object body ("\"k\": 1, \"s\": \"x\"")
  /// emitted with the event. Later calls replace earlier ones.
  void args(std::string ArgsJson);

private:
  const char *Name = nullptr;
  uint64_t StartNs = 0;
  std::string Args;
};

/// No-op stand-in used by the macros when tracing is compiled out.
struct NullSpan {
  static constexpr bool active() { return false; }
  void args(const std::string &) {}
};

} // namespace trace
} // namespace swp

#define SWP_TRACE_CONCAT_IMPL(A, B) A##B
#define SWP_TRACE_CONCAT(A, B) SWP_TRACE_CONCAT_IMPL(A, B)

#if SWP_TRACE_ENABLED
/// Anonymous scope span: traces the enclosing scope's duration.
#define SWP_TRACE_SCOPE(NameLiteral)                                         \
  ::swp::trace::Span SWP_TRACE_CONCAT(SwpTraceSpan_, __COUNTER__)(NameLiteral)
/// Named span variable, for attaching args before scope exit.
#define SWP_TRACE_SPAN(Var, NameLiteral) ::swp::trace::Span Var(NameLiteral)
/// Instant event with lazily formatted args.
#define SWP_TRACE_INSTANT(NameLiteral, ...)                                  \
  do {                                                                       \
    if (::swp::trace::isActive())                                            \
      ::swp::trace::instant(NameLiteral, __VA_ARGS__);                       \
  } while (false)
#else
#define SWP_TRACE_SCOPE(NameLiteral) ((void)0)
#define SWP_TRACE_SPAN(Var, NameLiteral) ::swp::trace::NullSpan Var
#define SWP_TRACE_INSTANT(NameLiteral, ...) ((void)0)
#endif

#endif // SWP_SUPPORT_TRACE_H
