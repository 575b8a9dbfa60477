//===- swp/Support/ThreadPool.h - Fixed-size worker pool --------*- C++ -*-===//
//
// Part of warp-swp. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size thread pool used by the parallel layers: the
/// parallel workload compilation in the bench harness, the batched
/// compile service, and the async session API. Tasks are plain
/// std::function<void()>.
///
/// Completion is tracked per TaskGroup: enqueue(Group, Task) charges the
/// task to the group and wait(Group) blocks until that group alone has
/// drained. While waiting, the caller *helps* — it pops and runs queued
/// tasks (from any group) instead of sleeping — so nested parallelism is
/// deadlock-free: a pool task may itself enqueue a group into the same
/// pool and wait on it (see global()).
///
/// Failures are reported through the task's captured state; an exception
/// that does escape a task is contained — the worker survives, the task
/// counts as aborted (tasksAborted()), and waits still return — so one
/// bad task cannot take the process down.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_SUPPORT_THREADPOOL_H
#define SWP_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace swp {

class ThreadPool;

/// Completion scope for a set of tasks on one ThreadPool. A group may be
/// created anywhere (including inside a pool task), used for one round of
/// enqueue/wait, and reused after wait() returns. A group must not be
/// destroyed while tasks charged to it are still pending.
class TaskGroup {
  friend class ThreadPool;
  size_t Pending = 0; ///< Guarded by the owning pool's mutex.
  std::condition_variable Done;
};

class ThreadPool {
public:
  /// Creates \p NumThreads workers; 0 means one per hardware thread.
  explicit ThreadPool(unsigned NumThreads = 0);

  /// Drains the queue, waits for running tasks, joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// The lazily-initialized process-wide pool (one worker per hardware
  /// thread), shared by runJobs, the compile service, and sessions so
  /// repeated harness invocations stop paying thread spawn cost. Never
  /// destroyed: workers idle until process exit.
  static ThreadPool &global();

  /// Number of worker threads.
  unsigned size() const { return static_cast<unsigned>(Workers.size()); }

  /// Tasks queued but not yet picked up. A point-in-time reading for
  /// metrics/monitoring: the value may be stale by the time it returns.
  size_t queueDepth() const;

  /// Tasks currently executing (on workers or helping waiters). Same
  /// point-in-time caveat as queueDepth().
  size_t activeWorkers() const;

  /// Queues \p Task charged to \p Group.
  void enqueue(TaskGroup &Group, std::function<void()> Task);

  /// Blocks until every task charged to \p Group has finished, running
  /// queued tasks on the calling thread while it waits (helping), so
  /// nesting group waits inside pool tasks cannot deadlock.
  void wait(TaskGroup &Group);

  /// Runs F(0..N-1) across the pool and blocks until all are done. Built
  /// on a private TaskGroup with a helping wait, so it is safe to call
  /// from inside a pool task (nested parallelism).
  template <typename Fn> void parallelFor(size_t N, Fn &&F) {
    TaskGroup Group;
    for (size_t I = 0; I != N; ++I)
      enqueue(Group, [&F, I] { F(I); });
    wait(Group);
  }

  /// Tasks whose exception was contained since construction. A nonzero
  /// count means some task's work was lost, not that state was corrupted:
  /// tasks own their captured state exclusively.
  uint64_t tasksAborted() const {
    return Aborted.load(std::memory_order_relaxed);
  }

  /// std::thread::hardware_concurrency with a floor of 1.
  static unsigned hardwareThreads();

private:
  struct Item {
    std::function<void()> Fn;
    TaskGroup *Group;
  };

  void workerLoop();
  /// Runs \p I (containing any exception) and retires it under Lock.
  void runItem(Item I, std::unique_lock<std::mutex> &Lock);

  std::atomic<uint64_t> Aborted{0};
  std::vector<std::thread> Workers;
  std::deque<Item> Queue;
  mutable std::mutex Mu;
  std::condition_variable WorkReady; ///< Queue grew or Stop was set.
  size_t Running = 0;                ///< Tasks inside runItem right now.
  bool Stop = false;
};

} // namespace swp

#endif // SWP_SUPPORT_THREADPOOL_H
