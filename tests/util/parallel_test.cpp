// The thread pool's contract: full coverage of the index range, determinism
// of index-addressed results, serial fallback, nested-call degradation, and
// exception propagation — the invariants every parallel hot path relies on.
#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace mocha::util {
namespace {

/// Restores the global pool width on scope exit so tests stay independent.
struct PoolGuard {
  explicit PoolGuard(int threads) { ThreadPool::set_global_threads(threads); }
  ~PoolGuard() { ThreadPool::set_global_threads(1); }
};

TEST(Parallel, CoversEveryIndexExactlyOnce) {
  PoolGuard guard(4);
  std::vector<int> hits(1000, 0);
  parallel_for(0, 1000, 7, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      hits[static_cast<std::size_t>(i)] += 1;  // chunks are disjoint
    }
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Parallel, EmptyRangeNeverInvokes) {
  PoolGuard guard(4);
  std::atomic<int> calls{0};
  parallel_for(5, 5, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(Parallel, GrainLargerThanRangeIsOneChunk) {
  PoolGuard guard(4);
  std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
  parallel_for(3, 10, 100, [&](std::int64_t b, std::int64_t e) {
    chunks.emplace_back(b, e);  // single chunk => runs inline, no race
  });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].first, 3);
  EXPECT_EQ(chunks[0].second, 10);
}

TEST(Parallel, SerialPoolRunsInline) {
  PoolGuard guard(1);
  const auto caller = std::this_thread::get_id();
  parallel_for(0, 100, 10, [&](std::int64_t, std::int64_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_FALSE(ThreadPool::on_worker_thread());
  });
}

TEST(Parallel, ExceptionsPropagateToCaller) {
  PoolGuard guard(4);
  EXPECT_THROW(
      parallel_for(0, 100, 1,
                   [&](std::int64_t b, std::int64_t) {
                     if (b == 42) throw std::runtime_error("chunk 42 failed");
                   }),
      std::runtime_error);
}

TEST(Parallel, ExceptionCancelsRemainingChunks) {
  PoolGuard guard(2);
  std::atomic<int> executed{0};
  try {
    parallel_for(0, 10000, 1, [&](std::int64_t, std::int64_t) {
      ++executed;
      throw std::runtime_error("boom");
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error&) {
  }
  // The first failure cancels the rest; far fewer than all chunks ran.
  EXPECT_LT(executed.load(), 10000);
}

TEST(Parallel, NestedCallsRunSerialOnWorkers) {
  PoolGuard guard(4);
  std::vector<std::int64_t> outer_sums(8, 0);
  parallel_for(0, 8, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      std::int64_t sum = 0;
      // Inner loop from (potentially) a worker thread: must degrade to the
      // inline serial path and still produce the right answer.
      parallel_for(0, 100, 10, [&](std::int64_t ib, std::int64_t ie) {
        for (std::int64_t j = ib; j < ie; ++j) sum += j;
      });
      outer_sums[static_cast<std::size_t>(i)] = sum;
    }
  });
  for (std::int64_t s : outer_sums) EXPECT_EQ(s, 4950);
}

TEST(Parallel, TransformPreservesIndexOrder) {
  PoolGuard guard(4);
  const std::vector<std::int64_t> out = parallel_transform<std::int64_t>(
      257, 3, [](std::int64_t i) { return i * i; });
  ASSERT_EQ(out.size(), 257u);
  for (std::int64_t i = 0; i < 257; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
  }
}

TEST(Parallel, SetGlobalThreadsResizes) {
  PoolGuard guard(3);
  EXPECT_EQ(ThreadPool::global_threads(), 3);
  ThreadPool::set_global_threads(2);
  EXPECT_EQ(ThreadPool::global_threads(), 2);
}

// Resizing destroys the pool; a parallel_for still running on it must make
// the resize fail loudly instead of pulling the pool out from under it.
TEST(Parallel, SetGlobalThreadsRefusesWhileWorkIsInFlight) {
  PoolGuard guard(1);
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::thread runner([&] {
    parallel_for(0, 1, 1, [&](std::int64_t, std::int64_t) {
      entered = true;
      while (!release) std::this_thread::yield();
    });
  });
  while (!entered) std::this_thread::yield();
  EXPECT_THROW(ThreadPool::set_global_threads(2), CheckFailure);
  release = true;
  runner.join();
  ThreadPool::set_global_threads(2);  // nothing in flight any more
  EXPECT_EQ(ThreadPool::global_threads(), 2);
}

TEST(Parallel, RejectsNegativeRange) {
  PoolGuard guard(1);
  EXPECT_THROW(parallel_for(10, 0, 1, [](std::int64_t, std::int64_t) {}),
               CheckFailure);
}

TEST(Cancel, TokenStartsClear) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.cancel_requested());
  token.check();  // must not throw
}

TEST(Cancel, ExplicitCancelThrowsFromCheck) {
  CancelToken token;
  token.cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.cancel_requested());
  EXPECT_THROW(token.check(), Cancelled);
}

TEST(Cancel, PastDeadlineCancelsWithoutRequest) {
  CancelToken token;
  token.set_deadline_ns(steady_now_ns() - 1);
  EXPECT_TRUE(token.cancelled());
  EXPECT_FALSE(token.cancel_requested());  // deadline, not a client cancel
  EXPECT_THROW(token.check(), Cancelled);
}

TEST(Cancel, FutureDeadlineDoesNotCancel) {
  CancelToken token;
  token.set_deadline_ns(steady_now_ns() + 60'000'000'000ull);  // +60 s
  EXPECT_FALSE(token.cancelled());
  token.check();
}

TEST(Cancel, ParallelForStopsOnCancelledToken) {
  PoolGuard guard(4);
  CancelToken token;
  token.cancel();
  std::atomic<int> chunks{0};
  EXPECT_THROW(parallel_for(
                   0, 1000, 1,
                   [&](std::int64_t, std::int64_t) { ++chunks; }, &token),
               Cancelled);
  // Pre-cancelled: the pool may run at most the chunks already claimed
  // before the flag is observed — with the token set up front, none.
  EXPECT_EQ(chunks.load(), 0);
}

TEST(Cancel, SerialPathStopsMidRange) {
  PoolGuard guard(1);
  CancelToken token;
  std::atomic<int> chunks{0};
  // One-thread pool: parallel_for takes the inline serial path.
  EXPECT_THROW(parallel_for(
                   0, 100, 1,
                   [&](std::int64_t b, std::int64_t) {
                     ++chunks;
                     if (b == 9) token.cancel();  // cancel from inside
                   },
                   &token),
               Cancelled);
  EXPECT_EQ(chunks.load(), 10);  // chunks 0..9 ran, 10..99 abandoned
}

TEST(Cancel, MidFlightCancelAbandonsRemainingChunks) {
  PoolGuard guard(4);
  CancelToken token;
  std::atomic<int> chunks{0};
  EXPECT_THROW(parallel_for(
                   0, 10'000, 1,
                   [&](std::int64_t, std::int64_t) {
                     if (++chunks == 16) token.cancel();
                   },
                   &token),
               Cancelled);
  // Workers observe the flag at the next chunk boundary: far fewer than the
  // full range runs (bounded by claimed-before-flag + one per worker).
  EXPECT_LT(chunks.load(), 10'000);
}

TEST(Cancel, NullTokenRunsToCompletion) {
  PoolGuard guard(4);
  std::atomic<int> chunks{0};
  parallel_for(
      0, 100, 1, [&](std::int64_t, std::int64_t) { ++chunks; }, nullptr);
  EXPECT_EQ(chunks.load(), 100);
}

TEST(Parallel, ManySmallRegionsBackToBack) {
  PoolGuard guard(4);
  // Stress region setup/teardown: the pool must not leak or deadlock when
  // regions are submitted in rapid succession.
  for (int round = 0; round < 200; ++round) {
    std::atomic<std::int64_t> sum{0};
    parallel_for(0, 32, 1, [&](std::int64_t b, std::int64_t e) {
      std::int64_t local = 0;
      for (std::int64_t i = b; i < e; ++i) local += i;
      sum += local;
    });
    ASSERT_EQ(sum.load(), 496);
  }
}

}  // namespace
}  // namespace mocha::util
