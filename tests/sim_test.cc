// Unit tests for the discrete-event scheduler.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/check.h"
#include "sim/scheduler.h"

namespace dgc {
namespace {

TEST(SchedulerTest, StartsAtTimeZeroIdle) {
  Scheduler s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_FALSE(s.RunOne());
}

TEST(SchedulerTest, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.At(30, [&] { order.push_back(3); });
  s.At(10, [&] { order.push_back(1); });
  s.At(20, [&] { order.push_back(2); });
  EXPECT_TRUE(s.RunUntilIdle());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(SchedulerTest, FifoWithinSameInstant) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.At(5, [&order, i] { order.push_back(i); });
  }
  s.RunUntilIdle();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SchedulerTest, AfterIsRelativeToNow) {
  Scheduler s;
  SimTime seen = -1;
  s.At(100, [&] {
    s.After(5, [&] { seen = s.now(); });
  });
  s.RunUntilIdle();
  EXPECT_EQ(seen, 105);
}

TEST(SchedulerTest, EventsMayScheduleMoreEvents) {
  Scheduler s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 50) s.After(1, chain);
  };
  s.After(0, chain);
  s.RunUntilIdle();
  EXPECT_EQ(depth, 50);
  EXPECT_EQ(s.now(), 49);
}

TEST(SchedulerTest, SchedulingInThePastThrows) {
  Scheduler s;
  s.At(10, [] {});
  s.RunUntilIdle();
  EXPECT_THROW(s.At(5, [] {}), InvariantViolation);
}

TEST(SchedulerTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Scheduler s;
  std::vector<SimTime> fired;
  s.At(10, [&] { fired.push_back(10); });
  s.At(20, [&] { fired.push_back(20); });
  s.At(30, [&] { fired.push_back(30); });
  s.RunUntil(20);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(s.now(), 20);
  EXPECT_EQ(s.pending_events(), 1u);
}

TEST(SchedulerTest, EventBudgetGuardsLivelock) {
  Scheduler s;
  std::function<void()> forever = [&] { s.After(1, forever); };
  s.After(0, forever);
  EXPECT_THROW(s.RunUntilIdle(100), InvariantViolation);
}

TEST(SchedulerTest, CountsExecutedEvents) {
  Scheduler s;
  for (int i = 0; i < 7; ++i) s.At(i, [] {});
  s.RunUntilIdle();
  EXPECT_EQ(s.events_executed(), 7u);
}

// A callable that counts its copies. Its copy constructor is not trivial,
// so std::function stores it on the heap and moving the function never
// touches the callable: every count here is a real copy of an action.
struct CopyCountingAction {
  int* copies;
  std::vector<int>* runs;
  std::vector<std::pair<SimTime, int>>* order;
  const Scheduler* scheduler;
  int id;

  CopyCountingAction(int* copies_in, std::vector<int>* runs_in,
                     std::vector<std::pair<SimTime, int>>* order_in,
                     const Scheduler* scheduler_in, int id_in)
      : copies(copies_in),
        runs(runs_in),
        order(order_in),
        scheduler(scheduler_in),
        id(id_in) {}
  CopyCountingAction(const CopyCountingAction& other)
      : copies(other.copies),
        runs(other.runs),
        order(other.order),
        scheduler(other.scheduler),
        id(other.id) {
    ++*copies;
  }
  CopyCountingAction(CopyCountingAction&&) = default;

  void operator()() const {
    ++(*runs)[id];
    order->emplace_back(scheduler->now(), id);
  }
};

TEST(SchedulerTest, ActionsAreMovedNeverCopied) {
  Scheduler s;
  constexpr int kEvents = 1000;
  int copies = 0;
  std::vector<int> runs(kEvents, 0);
  std::vector<std::pair<SimTime, int>> order;
  for (int i = 0; i < kEvents; ++i) {
    // Mixed instants, most of them shared by many events: 0..9 interleaved,
    // plus a run of 100 events all at instant 50.
    const SimTime t = i % 10 == 3 ? 50 : (i * 7) % 10;
    s.At(t, CopyCountingAction(&copies, &runs, &order, &s, i));
  }
  EXPECT_TRUE(s.RunUntilIdle());
  EXPECT_EQ(copies, 0);
  for (int i = 0; i < kEvents; ++i) EXPECT_EQ(runs[i], 1) << "event " << i;
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kEvents));
  for (std::size_t k = 1; k < order.size(); ++k) {
    // Time order, and scheduling (FIFO) order at equal instants.
    EXPECT_LT(order[k - 1], order[k]) << "at position " << k;
  }
}

}  // namespace
}  // namespace dgc
