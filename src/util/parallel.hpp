// Chunked thread-pool parallelism for the hot paths.
//
// Every parallel loop in MOCHA goes through parallel_for / parallel_transform
// so one policy governs them all:
//
//  * Thread count comes from MOCHA_THREADS (default hardware_concurrency).
//    A count of 1 is a true serial fallback — no pool, no locks, the loop
//    body runs inline on the caller.
//  * Determinism: callers never reduce through shared accumulators. Chunks
//    write disjoint, index-addressed slots and the caller combines them in
//    index order, so results are bit-identical to the serial run.
//  * Nesting: a parallel_for issued from inside a worker thread runs inline
//    (serial) — outer loops get the threads, inner loops degrade gracefully,
//    and the pool cannot deadlock on itself.
//  * Exceptions: the first exception thrown by any chunk is captured,
//    remaining chunks are cancelled, and the exception is rethrown on the
//    calling thread.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "util/assert.hpp"

namespace mocha::util {

/// steady_clock now in nanoseconds — the time domain CancelToken deadlines
/// live in (same epoch as obs::wall_now_ns).
inline std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Thrown when a cancellable loop observes its CancelToken fire. Distinct
/// from CheckFailure on purpose: cancellation is a *request outcome* (a
/// deadline passed, a client hung up), not a bug — catch sites map it to
/// their own error taxonomy (e.g. serve::Outcome::DeadlineExceeded).
class Cancelled : public std::runtime_error {
 public:
  explicit Cancelled(const std::string& what) : std::runtime_error(what) {}
};

/// Cooperative cancellation + deadline for long-running (parallel) work.
/// One token is shared between the party that cancels (a serving runtime's
/// deadline watchdog, a client hanging up) and the loops doing the work,
/// which poll it between tiles/chunks and abandon the remaining range.
/// All members are thread-safe; polling is one relaxed atomic load plus a
/// steady_clock read when a deadline is armed.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Requests cancellation (sticky; there is no un-cancel).
  void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }

  /// True when cancel() was called explicitly (as opposed to the deadline
  /// passing) — lets catch sites distinguish "client cancelled" from
  /// "deadline exceeded".
  bool cancel_requested() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Arms an absolute steady-clock deadline (steady_now_ns domain);
  /// 0 disarms. The token reports cancelled once the deadline passes.
  void set_deadline_ns(std::uint64_t deadline_ns) noexcept {
    deadline_ns_.store(deadline_ns, std::memory_order_relaxed);
  }
  std::uint64_t deadline_ns() const noexcept {
    return deadline_ns_.load(std::memory_order_relaxed);
  }

  /// Cancelled explicitly, or past the armed deadline.
  bool cancelled() const noexcept {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    const std::uint64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
    return deadline != 0 && steady_now_ns() >= deadline;
  }

  /// Polling helper for loop bodies: throws Cancelled when the token fired.
  void check() const {
    if (cancelled()) {
      throw Cancelled(cancel_requested() ? "operation cancelled"
                                         : "deadline exceeded");
    }
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<std::uint64_t> deadline_ns_{0};
};

/// Fixed-size worker pool executing chunked index ranges. Most code should
/// use the free functions below (which share one process-global pool) rather
/// than instantiating pools directly.
class ThreadPool {
 public:
  /// Pool with `threads` total execution lanes. `threads == 1` spawns no
  /// worker threads at all; for N >= 2 the pool owns N workers and the
  /// submitting thread blocks until the region completes.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int threads() const;

  /// Runs fn(chunk_begin, chunk_end) over [begin, end) split into chunks of
  /// at most `grain` indices. Blocks until every chunk finished. A region
  /// that resolves to a single chunk — or one issued from a worker thread —
  /// runs inline on the caller.
  ///
  /// With a non-null `cancel`, the token is polled at every chunk boundary:
  /// once it fires, unclaimed chunks are skipped, in-flight chunks finish,
  /// and the call throws Cancelled on the submitting thread. An exception
  /// thrown by a chunk body still takes precedence over cancellation.
  void for_range(std::int64_t begin, std::int64_t end, std::int64_t grain,
                 const std::function<void(std::int64_t, std::int64_t)>& fn,
                 const CancelToken* cancel = nullptr);

  /// True when called from one of *any* ThreadPool's worker threads.
  static bool on_worker_thread();

  /// Resizes the global pool (tests and benchmarks sweep thread counts).
  /// Must not be called while parallel work is in flight: a resize while
  /// any parallel_for is running on the global pool throws CheckFailure.
  static void set_global_threads(int threads);

  /// Current global pool width (1 == serial).
  static int global_threads();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Chunked parallel loop on the global pool: fn(chunk_begin, chunk_end) over
/// [begin, end) in chunks of at most `grain`. A non-null `cancel` makes the
/// loop cooperative: chunk boundaries poll the token, a fired token skips
/// the remaining range and the call throws Cancelled (see
/// ThreadPool::for_range).
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& fn,
                  const CancelToken* cancel = nullptr);

/// A grain that splits `range` into a few chunks per thread — enough slack
/// for load balance without drowning small loops in dispatch overhead.
/// `floor` sets a minimum chunk size for loops whose per-index work is
/// small (e.g. planner candidate evaluations, register-blocked map passes):
/// small ranges then run in fewer, meatier chunks instead of paying one
/// dispatch per index.
std::int64_t default_grain(std::int64_t range, std::int64_t floor = 1);

/// Maps fn over [0, n), returning results in index order (deterministic
/// regardless of which thread computed which slot). T must be default- and
/// move-constructible.
template <typename T, typename Fn>
std::vector<T> parallel_transform(std::int64_t n, std::int64_t grain,
                                  Fn&& fn) {
  MOCHA_CHECK(n >= 0, "parallel_transform over negative count " << n);
  std::vector<T> out(static_cast<std::size_t>(n));
  parallel_for(0, n, grain, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      out[static_cast<std::size_t>(i)] = fn(i);
    }
  });
  return out;
}

}  // namespace mocha::util
