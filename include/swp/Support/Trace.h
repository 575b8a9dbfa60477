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
///   - inactive (the default): one relaxed atomic load per span or
///     instant, no allocation, no locking;
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
/// built only when a span is active (check \c Span::active() first).
///
//===----------------------------------------------------------------------===//

#ifndef SWP_SUPPORT_TRACE_H
#define SWP_SUPPORT_TRACE_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace swp {
namespace trace {

/// True while a session is collecting.
bool isActive();

/// Begins a session writing to \p Path on stop(). Clears all buffers.
/// Returns false (and does nothing) when a session is already active.
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

} // namespace trace
} // namespace swp

#endif // SWP_SUPPORT_TRACE_H
