//===- ThreadPool.cpp - Fixed-size worker pool -------------------------------===//
//
// Part of warp-swp. See ThreadPool.h.
//
//===----------------------------------------------------------------------===//

#include "swp/Support/ThreadPool.h"

#include "swp/Metrics/Metrics.h"
#include "swp/Support/Trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>

using namespace swp;

namespace {

/// Fleet counters for pool work, shared by every pool in the process
/// (the callback gauges below are global-pool-only; counters aggregate,
/// which is what a throughput dashboard wants).
struct PoolMetrics {
  metrics::Counter Tasks, BusyUs, TasksAborted;
  static const PoolMetrics &get() {
    static PoolMetrics M = [] {
      auto &R = metrics::MetricsRegistry::global();
      PoolMetrics M;
      M.Tasks = R.counter("swp_pool_tasks_total", "",
                          "Tasks completed by thread pools");
      M.BusyUs = R.counter("swp_pool_busy_us_total", "",
                           "Microseconds spent executing pool tasks");
      M.TasksAborted = R.counter("swp_pool_tasks_aborted_total", "",
                                 "Pool tasks whose exception was contained");
      return M;
    }();
    return M;
  }
};

} // namespace

unsigned ThreadPool::hardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool &ThreadPool::global() {
  // Leaked on purpose: joining workers from a static destructor races
  // with other teardown (tracing, sanitizer shutdown), and the singleton
  // stays reachable so leak checkers do not report it.
  static ThreadPool *Pool = new ThreadPool();
  // Queue depth / active workers are levels owned by the pool; sample
  // them at snapshot time instead of tracking deltas. Registered once,
  // for the shared pool only (private test pools would multi-count).
  [[maybe_unused]] static bool GaugesRegistered = [] {
    auto &R = metrics::MetricsRegistry::global();
    R.registerGauge("swp_pool_queue_depth", "",
                    "Tasks queued on the shared pool",
                    [] { return static_cast<double>(Pool->queueDepth()); });
    R.registerGauge("swp_pool_active_workers", "",
                    "Tasks executing on the shared pool",
                    [] { return static_cast<double>(Pool->activeWorkers()); });
    R.registerGauge("swp_pool_workers", "",
                    "Worker threads in the shared pool",
                    [] { return static_cast<double>(Pool->size()); });
    return true;
  }();
  return *Pool;
}

size_t ThreadPool::queueDepth() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Queue.size();
}

size_t ThreadPool::activeWorkers() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Running;
}

ThreadPool::ThreadPool(unsigned NumThreads) {
  if (NumThreads == 0)
    NumThreads = hardwareThreads();
  Workers.reserve(NumThreads);
  for (unsigned I = 0; I != NumThreads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stop = true;
  }
  WorkReady.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::enqueue(TaskGroup &Group, std::function<void()> Task) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Queue.push_back({std::move(Task), &Group});
    ++Group.Pending;
  }
  WorkReady.notify_one();
}

void ThreadPool::wait(TaskGroup &Group) {
  std::unique_lock<std::mutex> Lock(Mu);
  while (Group.Pending != 0) {
    if (!Queue.empty()) {
      // Help: run a queued task (any group) instead of sleeping, so a
      // pool task waiting on a nested group cannot starve the pool.
      Item I = std::move(Queue.front());
      Queue.pop_front();
      runItem(std::move(I), Lock);
      continue;
    }
    // Everything charged to the group is running on other threads.
    Group.Done.wait(Lock, [&] { return Group.Pending == 0 || !Queue.empty(); });
  }
}

void ThreadPool::runItem(Item I, std::unique_lock<std::mutex> &Lock) {
  ++Running;
  Lock.unlock();
  // Busy-time costs two clock reads; pay them only when someone is
  // watching. The counters themselves are cheap either way.
  const bool Timed = metrics::enabled();
  auto T0 = Timed ? std::chrono::steady_clock::now()
                  : std::chrono::steady_clock::time_point{};
  try {
    I.Fn();
    PoolMetrics::get().Tasks.inc();
  } catch (...) {
    // Contain the failure: the task is charged as aborted and the
    // executing thread keeps serving the queue. Its captured state is
    // left however far the task got.
    Aborted.fetch_add(1, std::memory_order_relaxed);
    PoolMetrics::get().TasksAborted.inc();
  }
  if (Timed)
    PoolMetrics::get().BusyUs.inc(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - T0)
            .count()));
  Lock.lock();
  --Running;
  if (--I.Group->Pending == 0)
    I.Group->Done.notify_all();
}

void ThreadPool::workerLoop() {
#if SWP_TRACE_ENABLED
  // Label this worker's trace track so batch and session work is
  // attributable. The counter is process-wide: beyond the global
  // pool, tests still construct private pools, and reusing names would
  // merge unrelated tracks.
  static std::atomic<unsigned> WorkerSeq{0};
  trace::setThreadName("swp-worker-" + std::to_string(WorkerSeq.fetch_add(
                           1, std::memory_order_relaxed)));
#endif
  std::unique_lock<std::mutex> Lock(Mu);
  while (true) {
    WorkReady.wait(Lock, [this] { return Stop || !Queue.empty(); });
    if (Queue.empty())
      return; // Stop was set and nothing is left to run.
    Item I = std::move(Queue.front());
    Queue.pop_front();
    runItem(std::move(I), Lock);
  }
}
