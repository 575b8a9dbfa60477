//===- SupportTests.cpp - Unit tests for swp_support -------------------------===//
//
// Part of warp-swp.
//
//===----------------------------------------------------------------------===//

#include "swp/Support/Diagnostics.h"
#include "swp/Support/MathUtils.h"
#include "swp/Support/RNG.h"
#include "swp/Support/TablePrinter.h"
#include "swp/Support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

using namespace swp;

TEST(MathUtils, CeilDiv) {
  EXPECT_EQ(ceilDiv(0, 3), 0);
  EXPECT_EQ(ceilDiv(1, 3), 1);
  EXPECT_EQ(ceilDiv(3, 3), 1);
  EXPECT_EQ(ceilDiv(4, 3), 2);
  EXPECT_EQ(ceilDiv(9, 3), 3);
  EXPECT_EQ(ceilDiv(10, 1), 10);
}

TEST(MathUtils, GcdLcm) {
  EXPECT_EQ(gcd(12, 18), 6);
  EXPECT_EQ(gcd(0, 7), 7);
  EXPECT_EQ(gcd(7, 0), 7);
  EXPECT_EQ(gcd(-12, 18), 6);
  EXPECT_EQ(lcm(4, 6), 12);
  EXPECT_EQ(lcm(0, 6), 0);
  EXPECT_EQ(lcm(7, 13), 91);
}

TEST(MathUtils, Divisors) {
  EXPECT_EQ(divisorsOf(1), (std::vector<int64_t>{1}));
  EXPECT_EQ(divisorsOf(12), (std::vector<int64_t>{1, 2, 3, 4, 6, 12}));
  EXPECT_EQ(divisorsOf(13), (std::vector<int64_t>{1, 13}));
  EXPECT_EQ(divisorsOf(36), (std::vector<int64_t>{1, 2, 3, 4, 6, 9, 12, 18,
                                                  36}));
}

/// The section 2.3 register-count rule: smallest divisor of the unroll
/// degree that covers the variable's lifetime requirement.
TEST(MathUtils, SmallestDivisorAtLeast) {
  EXPECT_EQ(smallestDivisorAtLeast(12, 5), 6);
  EXPECT_EQ(smallestDivisorAtLeast(12, 7), 12);
  EXPECT_EQ(smallestDivisorAtLeast(12, 1), 1);
  EXPECT_EQ(smallestDivisorAtLeast(7, 2), 7);
  EXPECT_EQ(smallestDivisorAtLeast(6, 6), 6);
}

struct DivisorCase {
  int64_t U, Q;
};

class SmallestDivisorProperty : public ::testing::TestWithParam<DivisorCase> {
};

TEST_P(SmallestDivisorProperty, IsDivisorAndMinimal) {
  auto [U, Q] = GetParam();
  int64_t R = smallestDivisorAtLeast(U, Q);
  EXPECT_EQ(U % R, 0) << "result must divide U";
  EXPECT_GE(R, Q) << "result must cover the requirement";
  for (int64_t D = Q; D < R; ++D)
    EXPECT_NE(U % D, 0) << "a smaller valid divisor exists";
}

static std::vector<DivisorCase> allDivisorCases() {
  std::vector<DivisorCase> Cases;
  for (int64_t U = 1; U <= 24; ++U)
    for (int64_t Q = 1; Q <= U; ++Q)
      Cases.push_back({U, Q});
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(Exhaustive, SmallestDivisorProperty,
                         ::testing::ValuesIn(allDivisorCases()));

TEST(RNG, Deterministic) {
  RNG A(42), B(42);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RNG, DifferentSeedsDiffer) {
  RNG A(1), B(2);
  bool AnyDiff = false;
  for (int I = 0; I != 16; ++I)
    AnyDiff |= A.next() != B.next();
  EXPECT_TRUE(AnyDiff);
}

TEST(RNG, UniformInRange) {
  RNG R(7);
  for (int I = 0; I != 1000; ++I) {
    int64_t V = R.uniform(-3, 9);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 9);
  }
  for (int I = 0; I != 1000; ++I) {
    double V = R.uniformReal();
    EXPECT_GE(V, 0.0);
    EXPECT_LT(V, 1.0);
  }
}

TEST(RNG, UniformCoversRange) {
  RNG R(11);
  std::set<int64_t> Seen;
  for (int I = 0; I != 200; ++I)
    Seen.insert(R.uniform(0, 3));
  EXPECT_EQ(Seen.size(), 4u);
}

TEST(Diagnostics, CollectsAndCounts) {
  DiagnosticEngine DE;
  EXPECT_FALSE(DE.hasErrors());
  DE.warning({1, 2}, "watch out");
  EXPECT_FALSE(DE.hasErrors());
  DE.error({3, 4}, "bad thing");
  DE.note({}, "context");
  EXPECT_TRUE(DE.hasErrors());
  EXPECT_EQ(DE.errorCount(), 1u);
  EXPECT_EQ(DE.diagnostics().size(), 3u);
  EXPECT_NE(DE.str().find("3:4: error: bad thing"), std::string::npos);
  EXPECT_NE(DE.str().find("warning: watch out"), std::string::npos);
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter T({"name", "value"});
  T.addRow({"x", "1"});
  T.addRow({"longer-name", "22"});
  std::ostringstream OS;
  T.print(OS);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("name"), std::string::npos);
  EXPECT_NE(Out.find("longer-name"), std::string::npos);
  // Header and both rows plus the separator line.
  EXPECT_EQ(std::count(Out.begin(), Out.end(), '\n'), 4);
}

TEST(TablePrinter, FormatsNumbers) {
  EXPECT_EQ(TablePrinter::num(1.234, 2), "1.23");
  EXPECT_EQ(TablePrinter::num(100.0, 1), "100.0");
  EXPECT_EQ(TablePrinter::num(0.5, 0), "0" /* banker-free snprintf */);
}

// Saturating a 1-worker pool pins both monitoring accessors to exact
// values: the single worker is inside the blocker (activeWorkers == 1)
// and nothing can drain the two queued tasks (queueDepth == 2).
TEST(ThreadPool, QueueDepthAndActiveWorkers) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.queueDepth(), 0u);
  EXPECT_EQ(Pool.activeWorkers(), 0u);

  TaskGroup Group;
  std::promise<void> Started, Release;
  std::future<void> ReleaseF = Release.get_future();
  Pool.enqueue(Group, [&Started, &ReleaseF] {
    Started.set_value();
    ReleaseF.wait();
  });
  Started.get_future().wait();
  Pool.enqueue(Group, [] {});
  Pool.enqueue(Group, [] {});
  EXPECT_EQ(Pool.activeWorkers(), 1u);
  EXPECT_EQ(Pool.queueDepth(), 2u);

  Release.set_value();
  Pool.wait(Group);
  EXPECT_EQ(Pool.queueDepth(), 0u);
  EXPECT_EQ(Pool.activeWorkers(), 0u);
}

// An exception escaping a task is contained: the group wait returns, the
// worker that ran the task survives to run the next one, and the task
// counts as aborted. The test thread only ever waits on futures before
// the group is drained, so it never helps: the worker runs both tasks.
TEST(ThreadPool, ThrowingTaskIsContained) {
  ThreadPool Pool(1);
  TaskGroup Group;
  std::promise<void> Threw;
  Pool.enqueue(Group, [&Threw] {
    Threw.set_value();
    throw std::runtime_error("task failed");
  });
  Threw.get_future().wait();
  Pool.wait(Group);
  EXPECT_EQ(Pool.tasksAborted(), 1u);

  std::promise<std::thread::id> Ran;
  std::future<std::thread::id> RanF = Ran.get_future();
  Pool.enqueue(Group, [&Ran] { Ran.set_value(std::this_thread::get_id()); });
  ASSERT_EQ(RanF.wait_for(std::chrono::seconds(30)),
            std::future_status::ready)
      << "the worker did not survive the throwing task";
  EXPECT_NE(RanF.get(), std::this_thread::get_id());
  Pool.wait(Group);
  EXPECT_EQ(Pool.tasksAborted(), 1u);
}
