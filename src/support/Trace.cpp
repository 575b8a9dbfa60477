//===- Trace.cpp - Structured compiler tracing ----------------------------------===//
//
// Part of warp-swp. See Trace.h.
//
// Buffers are owned by a process-wide registry and referenced from a
// thread_local pointer: a pool worker that exits between start() and
// stop() leaves its events behind in the registry, and they are flushed
// with everyone else's. Each buffer carries its own mutex; appends take
// only that (uncontended) lock, never the registry lock, so concurrent
// tracing threads do not serialize against each other.
//
//===----------------------------------------------------------------------===//

#include "swp/Support/Trace.h"

#include "swp/Support/Json.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

using namespace swp;

namespace {

using Clock = std::chrono::steady_clock;

/// Per-thread ring capacity. At ~64 bytes an event this bounds a thread's
/// trace memory near 4 MB; long sessions wrap and count drops instead of
/// growing without bound.
constexpr size_t RingCapacity = 1u << 16;

struct Event {
  const char *Name;
  char Ph; ///< 'X' complete, 'i' instant, 'C' counter.
  uint64_t TsNs;
  uint64_t DurNs;
  std::string Args; ///< Preformatted JSON object body (may be empty).
};

struct ThreadBuffer {
  std::mutex Mu;
  uint32_t Tid = 0;
  std::string Name;
  std::vector<Event> Ring;
  size_t Head = 0; ///< Overwrite cursor once the ring is full.
  uint64_t Dropped = 0;
};

struct Registry {
  std::atomic<bool> Active{false};
  std::mutex Mu; ///< Guards Buffers, Path, Epoch.
  std::vector<std::shared_ptr<ThreadBuffer>> Buffers;
  std::string Path;
  Clock::time_point Epoch;
  std::atomic<uint32_t> NextTid{1};
};

Registry &registry() {
  static Registry *R = new Registry; // Intentionally leaked: threads may
  return *R;                         // outlive static destruction order.
}

ThreadBuffer &threadBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> Buf = [] {
    auto B = std::make_shared<ThreadBuffer>();
    Registry &R = registry();
    B->Tid = R.NextTid.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> Lock(R.Mu);
    R.Buffers.push_back(B);
    return B;
  }();
  return *Buf;
}

uint64_t nowNs(const Registry &R) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           R.Epoch)
          .count());
}

void append(Event E) {
  ThreadBuffer &B = threadBuffer();
  std::lock_guard<std::mutex> Lock(B.Mu);
  if (B.Ring.size() < RingCapacity) {
    B.Ring.push_back(std::move(E));
    return;
  }
  B.Ring[B.Head] = std::move(E);
  B.Head = (B.Head + 1) % RingCapacity;
  ++B.Dropped;
}

/// Renders one event as a trace-event object (no trailing comma).
void renderEvent(std::string &Out, uint32_t Tid, const Event &E) {
  char Buf[128];
  Out += "{\"name\": \"";
  Out += jsonEscape(E.Name);
  std::snprintf(Buf, sizeof(Buf), "\", \"ph\": \"%c\", \"pid\": 1, \"tid\": %u",
                E.Ph, Tid);
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf), ", \"ts\": %.3f",
                static_cast<double>(E.TsNs) / 1000.0);
  Out += Buf;
  if (E.Ph == 'X') {
    std::snprintf(Buf, sizeof(Buf), ", \"dur\": %.3f",
                  static_cast<double>(E.DurNs) / 1000.0);
    Out += Buf;
  }
  if (E.Ph == 'i')
    Out += ", \"s\": \"t\"";
  if (!E.Args.empty()) {
    Out += ", \"args\": {";
    Out += E.Args;
    Out += "}";
  }
  Out += "}";
}

} // namespace

bool trace::isActive() {
  return registry().Active.load(std::memory_order_relaxed);
}

bool trace::start(const std::string &Path) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mu);
  if (R.Active.load(std::memory_order_relaxed))
    return false;
  for (const auto &B : R.Buffers) {
    std::lock_guard<std::mutex> BLock(B->Mu);
    B->Ring.clear();
    B->Head = 0;
    B->Dropped = 0;
  }
  R.Path = Path;
  R.Epoch = Clock::now();
  R.Active.store(true, std::memory_order_release);
  return true;
}

bool trace::stop(std::string *Error) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mu);
  if (!R.Active.load(std::memory_order_relaxed)) {
    if (Error)
      *Error = "no trace session active";
    return false;
  }
  R.Active.store(false, std::memory_order_release);

  // Gather (tid, event) pairs; ring order is Head..end, 0..Head when
  // wrapped. A global sort by timestamp keeps the file deterministic for
  // the tests and pleasant to diff.
  struct Flat {
    uint32_t Tid;
    const Event *E;
  };
  std::vector<Flat> All;
  std::string Meta;
  for (const auto &B : R.Buffers) {
    std::lock_guard<std::mutex> BLock(B->Mu);
    if (!B->Name.empty()) {
      if (!Meta.empty())
        Meta += ",\n";
      Meta += "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
              "\"tid\": " +
              std::to_string(B->Tid) + ", \"args\": {\"name\": \"";
      Meta += jsonEscape(B->Name);
      Meta += "\"}}";
    }
    size_t N = B->Ring.size();
    for (size_t I = 0; I != N; ++I) {
      size_t Idx = N == RingCapacity ? (B->Head + I) % N : I;
      All.push_back({B->Tid, &B->Ring[Idx]});
    }
  }
  std::stable_sort(All.begin(), All.end(), [](const Flat &A, const Flat &B) {
    return A.E->TsNs < B.E->TsNs;
  });

  std::ofstream Out(R.Path);
  if (!Out) {
    if (Error)
      *Error = "cannot write trace file '" + R.Path + "'";
    return false;
  }
  Out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  bool First = true;
  if (!Meta.empty()) {
    Out << Meta;
    First = false;
  }
  std::string Line;
  for (const Flat &F : All) {
    Line.clear();
    renderEvent(Line, F.Tid, *F.E);
    Out << (First ? "" : ",\n") << Line;
    First = false;
  }
  Out << "\n]}\n";
  Out.close();
  if (!Out) {
    if (Error)
      *Error = "I/O error writing trace file '" + R.Path + "'";
    return false;
  }
  return true;
}

void trace::setThreadName(const std::string &Name) {
  ThreadBuffer &B = threadBuffer();
  std::lock_guard<std::mutex> Lock(B.Mu);
  B.Name = Name;
}

void trace::instant(const char *Name, std::string ArgsJson) {
  Registry &R = registry();
  if (!R.Active.load(std::memory_order_relaxed))
    return;
  append({Name, 'i', nowNs(R), 0, std::move(ArgsJson)});
}

void trace::counter(const char *Name, const char *Key, double Value) {
  Registry &R = registry();
  if (!R.Active.load(std::memory_order_relaxed))
    return;
  char Num[32];
  std::snprintf(Num, sizeof(Num), "%g", Value);
  append({Name, 'C', nowNs(R), 0, "\"" + jsonEscape(Key) + "\": " + Num});
}

uint64_t trace::droppedEvents() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mu);
  uint64_t N = 0;
  for (const auto &B : R.Buffers) {
    std::lock_guard<std::mutex> BLock(B->Mu);
    N += B->Dropped;
  }
  return N;
}

trace::Span::Span(const char *SpanName) {
  Registry &R = registry();
  if (!R.Active.load(std::memory_order_relaxed))
    return;
  Name = SpanName;
  StartNs = nowNs(R);
}

void trace::Span::args(std::string ArgsJson) {
  if (Name)
    Args = std::move(ArgsJson);
}

trace::Span::~Span() {
  if (!Name)
    return;
  Registry &R = registry();
  // The session may have stopped mid-span; the event would carry a
  // truncated duration and land after the flush, so drop it.
  if (!R.Active.load(std::memory_order_relaxed))
    return;
  uint64_t End = nowNs(R);
  append({Name, 'X', StartNs, End - StartNs, std::move(Args)});
}
