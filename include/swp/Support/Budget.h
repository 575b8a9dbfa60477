//===- swp/Support/Budget.h - Compile budgets and cancellation --*- C++ -*-===//
//
// Part of warp-swp. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hard ceilings for one compilation: wall-clock time, candidate intervals
/// tried by the modulo scheduler, and nodes scheduled. The paper's search
/// is a heuristic that usually succeeds fast but can legitimately blow up
/// on adversarial loops (and an optimal scheduler would be no better —
/// Roorda's SMT formulation runs under exactly this kind of time budget);
/// a budget turns "blow up" into "degrade": when any ceiling is hit the
/// tracker trips a cooperative cancellation token, every in-flight
/// scheduling attempt backs out at its next probe, and the compiler walks
/// down the degradation ladder (see Compiler.h) instead of hanging.
///
/// The tracker may be shared across threads (a session caller cancels a
/// compile running on a pool worker): counters are relaxed atomics, the
/// token is a single flag, and every charge*() is const-callable. When no
/// tracker is attached the scheduler never consults one, so unbudgeted
/// compiles stay bit-identical to the plain algorithm.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_SUPPORT_BUDGET_H
#define SWP_SUPPORT_BUDGET_H

#include <atomic>
#include <chrono>
#include <cstdint>

namespace swp {

/// Ceilings for one compilation; 0 means unlimited.
struct CompileBudget {
  uint64_t WallMs = 0;       ///< Wall-clock ceiling for the whole compile.
  uint64_t MaxIntervals = 0; ///< Candidate intervals tried (all loops).
  uint64_t MaxNodes = 0;     ///< Node placements attempted (all loops).

  bool limited() const {
    return WallMs != 0 || MaxIntervals != 0 || MaxNodes != 0;
  }
};

/// Which ceiling tripped first.
enum class BudgetCause : uint8_t { None, WallClock, Intervals, Nodes };

/// Stable human-readable rendering ("wall-clock").
const char *budgetCauseText(BudgetCause C);

/// One compilation's running charge against a CompileBudget. Thread-safe:
/// charges are relaxed atomic increments, expiry latches a cancellation
/// flag every cooperative loop polls.
class BudgetTracker {
public:
  explicit BudgetTracker(const CompileBudget &B)
      : B(B), Start(std::chrono::steady_clock::now()) {}

  /// Polls for cancellation without charging (cheap; call inside loops).
  bool cancelled() const { return Cancel.load(std::memory_order_relaxed); }

  /// Charges one candidate interval; false when the budget is exhausted
  /// (wall clock is also checked here, at interval granularity).
  bool chargeInterval() {
    if (cancelled())
      return false;
    if (B.MaxIntervals != 0 &&
        Intervals.fetch_add(1, std::memory_order_relaxed) + 1 >
            B.MaxIntervals)
      return trip(BudgetCause::Intervals);
    if (wallExpired())
      return trip(BudgetCause::WallClock);
    return true;
  }

  /// Charges one node placement attempt; false when exhausted.
  bool chargeNode() {
    if (cancelled())
      return false;
    if (B.MaxNodes != 0 &&
        Nodes.fetch_add(1, std::memory_order_relaxed) + 1 > B.MaxNodes)
      return trip(BudgetCause::Nodes);
    return true;
  }

  /// True when some ceiling has tripped (or cancel() was called).
  bool expired() const { return cancelled(); }

  /// The first ceiling that tripped (None while within budget).
  BudgetCause cause() const {
    return TrippedCause.load(std::memory_order_relaxed);
  }

  /// Trips the token directly (driver-initiated cancellation).
  void cancel(BudgetCause C = BudgetCause::WallClock) { trip(C); }

  /// The ceilings this tracker enforces. A tracker whose budget has no
  /// ceilings is a pure cancellation token: it trips only via cancel(),
  /// so an uncancelled compile under it is bit-identical to an
  /// untracked one (and stays memoizable).
  const CompileBudget &budget() const { return B; }

  uint64_t intervalsCharged() const {
    return Intervals.load(std::memory_order_relaxed);
  }
  uint64_t nodesCharged() const {
    return Nodes.load(std::memory_order_relaxed);
  }

private:
  bool wallExpired() const {
    if (B.WallMs == 0)
      return false;
    auto Elapsed = std::chrono::steady_clock::now() - Start;
    return std::chrono::duration_cast<std::chrono::milliseconds>(Elapsed)
               .count() >= static_cast<int64_t>(B.WallMs);
  }

  bool trip(BudgetCause C) {
    BudgetCause Expected = BudgetCause::None;
    TrippedCause.compare_exchange_strong(Expected, C,
                                         std::memory_order_relaxed);
    Cancel.store(true, std::memory_order_relaxed);
    return false;
  }

  CompileBudget B;
  std::chrono::steady_clock::time_point Start;
  std::atomic<uint64_t> Intervals{0};
  std::atomic<uint64_t> Nodes{0};
  std::atomic<bool> Cancel{false};
  std::atomic<BudgetCause> TrippedCause{BudgetCause::None};
};

} // namespace swp

#endif // SWP_SUPPORT_BUDGET_H
