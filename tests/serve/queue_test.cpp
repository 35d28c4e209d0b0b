// Admission queue contract: bounded capacity, priority-then-FIFO ordering,
// evict-lowest admission, and the close/drain shutdown handshake.
#include "serve/queue.hpp"

#include <gtest/gtest.h>

#include <thread>

namespace mocha::serve {
namespace {

QueuedRequest make_item(std::uint64_t id, int priority) {
  QueuedRequest item;
  item.request.priority = priority;
  item.ticket = std::make_shared<Ticket>();
  item.id = id;
  return item;
}

TEST(AdmissionQueue, PopsHighestPriorityFirst) {
  AdmissionQueue queue(8);
  QueuedRequest evicted;
  queue.push(make_item(1, 0), &evicted);
  queue.push(make_item(2, 5), &evicted);
  queue.push(make_item(3, 2), &evicted);
  EXPECT_EQ(queue.pop()->id, 2u);
  EXPECT_EQ(queue.pop()->id, 3u);
  EXPECT_EQ(queue.pop()->id, 1u);
}

TEST(AdmissionQueue, FifoWithinAPriority) {
  AdmissionQueue queue(8);
  QueuedRequest evicted;
  for (std::uint64_t id = 1; id <= 5; ++id) {
    queue.push(make_item(id, 3), &evicted);
  }
  for (std::uint64_t id = 1; id <= 5; ++id) {
    EXPECT_EQ(queue.pop()->id, id);
  }
}

TEST(AdmissionQueue, FullQueueRejectsEqualPriority) {
  AdmissionQueue queue(2);
  QueuedRequest evicted;
  EXPECT_EQ(queue.push(make_item(1, 1), &evicted),
            AdmissionQueue::Admit::Queued);
  EXPECT_EQ(queue.push(make_item(2, 1), &evicted),
            AdmissionQueue::Admit::Queued);
  // Equal priority never displaces (FIFO fairness under overload), lower
  // certainly not.
  EXPECT_EQ(queue.push(make_item(3, 1), &evicted),
            AdmissionQueue::Admit::Rejected);
  EXPECT_EQ(queue.push(make_item(4, 0), &evicted),
            AdmissionQueue::Admit::Rejected);
  EXPECT_EQ(queue.size(), 2u);
}

TEST(AdmissionQueue, HigherPriorityEvictsTheWorst) {
  AdmissionQueue queue(2);
  QueuedRequest evicted;
  queue.push(make_item(1, 1), &evicted);
  queue.push(make_item(2, 3), &evicted);
  EXPECT_EQ(queue.push(make_item(3, 5), &evicted),
            AdmissionQueue::Admit::QueuedEvicted);
  EXPECT_EQ(evicted.id, 1u);  // the lowest-priority entry lost its slot
  EXPECT_EQ(queue.pop()->id, 3u);
  EXPECT_EQ(queue.pop()->id, 2u);
}

TEST(AdmissionQueue, EvictsNewestAmongEqualWorst) {
  AdmissionQueue queue(2);
  QueuedRequest evicted;
  queue.push(make_item(1, 1), &evicted);
  queue.push(make_item(2, 1), &evicted);
  ASSERT_EQ(queue.push(make_item(3, 9), &evicted),
            AdmissionQueue::Admit::QueuedEvicted);
  // Both queued entries share the worst priority; the later arrival (2) is
  // the victim, preserving FIFO among what survives.
  EXPECT_EQ(evicted.id, 2u);
}

TEST(AdmissionQueue, BlockingPopWakesOnPush) {
  AdmissionQueue queue(4);
  std::uint64_t got = 0;
  std::thread popper([&] {
    const auto item = queue.pop();
    ASSERT_TRUE(item.has_value());
    got = item->id;
  });
  QueuedRequest evicted;
  queue.push(make_item(7, 0), &evicted);
  popper.join();
  EXPECT_EQ(got, 7u);
}

TEST(AdmissionQueue, CloseWakesBlockedPoppers) {
  AdmissionQueue queue(4);
  bool got_nullopt = false;
  std::thread popper([&] { got_nullopt = !queue.pop().has_value(); });
  queue.close();
  popper.join();
  EXPECT_TRUE(got_nullopt);
}

TEST(AdmissionQueue, QueuedWorkSurvivesClose) {
  AdmissionQueue queue(4);
  QueuedRequest evicted;
  queue.push(make_item(1, 0), &evicted);
  queue.push(make_item(2, 0), &evicted);
  queue.close();
  // Drain-on-shutdown: close() stops admission but queued entries still pop.
  EXPECT_EQ(queue.push(make_item(3, 0), &evicted),
            AdmissionQueue::Admit::Rejected);
  EXPECT_EQ(queue.pop()->id, 1u);
  EXPECT_EQ(queue.pop()->id, 2u);
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(AdmissionQueue, DrainReturnsEverything) {
  AdmissionQueue queue(8);
  QueuedRequest evicted;
  for (std::uint64_t id = 1; id <= 5; ++id) {
    queue.push(make_item(id, static_cast<int>(id % 3)), &evicted);
  }
  const auto drained = queue.drain();
  EXPECT_EQ(drained.size(), 5u);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(AdmissionQueue, StealBackTakesLowestPriorityYoungestFirst) {
  AdmissionQueue queue(8);
  QueuedRequest evicted;
  queue.push(make_item(1, 5), &evicted);
  queue.push(make_item(2, 0), &evicted);
  queue.push(make_item(3, 0), &evicted);
  // The back of the ranking order: lowest priority, youngest within it.
  const auto stolen = queue.steal_back(2);
  ASSERT_EQ(stolen.size(), 2u);
  EXPECT_EQ(stolen[0].id, 3u);
  EXPECT_EQ(stolen[1].id, 2u);
  // The high-priority head is never stolen.
  EXPECT_EQ(queue.pop()->id, 1u);
}

TEST(AdmissionQueue, StealBackNeverBlocks) {
  AdmissionQueue queue(4);
  EXPECT_TRUE(queue.steal_back(4).empty());
}

TEST(AdmissionQueue, TryAppendIsBoundedAndNeverEvicts) {
  AdmissionQueue queue(2);
  QueuedRequest evicted;
  queue.push(make_item(1, 0), &evicted);
  queue.push(make_item(2, 0), &evicted);
  QueuedRequest stolen = make_item(3, 9);
  // Even a higher-priority arrival cannot displace queued work through the
  // stealing side door — the item bounces back to the caller.
  EXPECT_FALSE(queue.try_append(stolen));
  EXPECT_EQ(queue.size(), 2u);
  ASSERT_TRUE(queue.pop().has_value());
  EXPECT_TRUE(queue.try_append(stolen));
  EXPECT_EQ(queue.size(), 2u);
}

TEST(AdmissionQueue, TryAppendRejectedWhenClosed) {
  AdmissionQueue queue(4);
  queue.close();
  QueuedRequest stolen = make_item(1, 0);
  EXPECT_FALSE(queue.try_append(stolen));
}

}  // namespace
}  // namespace mocha::serve
