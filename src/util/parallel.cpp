#include "util/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "obs/trace.hpp"

namespace mocha::util {

namespace {

thread_local bool t_on_worker = false;

int env_thread_count() {
  const char* env = std::getenv("MOCHA_THREADS");
  if (env != nullptr) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed >= 1 && parsed <= 1024) {
      return static_cast<int>(parsed);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// One parallel_for invocation: a chunk cursor plus completion/exception
/// state. Lives on the submitting thread's stack; the submitter waits until
/// every chunk is credited *and* every worker has left the region before
/// returning, so the storage never dangles.
struct Region {
  std::function<void(std::int64_t, std::int64_t)> const* fn = nullptr;
  std::int64_t end = 0;
  std::int64_t grain = 1;
  const CancelToken* cancel = nullptr;  // optional cooperative cancellation

  std::atomic<std::int64_t> next{0};   // next unclaimed chunk start
  std::atomic<bool> cancelled{false};  // set on first exception / token fire

  std::mutex mu;
  std::condition_variable done_cv;
  std::int64_t pending_chunks = 0;  // guarded by mu
  int entrants = 0;                 // workers inside the region, guarded by mu
  std::exception_ptr error;         // guarded by mu

  /// Claims and runs chunks until the range is exhausted. Returns the number
  /// of chunks this thread completed.
  std::int64_t drain() {
    std::int64_t completed = 0;
    for (;;) {
      const std::int64_t b = next.fetch_add(grain, std::memory_order_relaxed);
      if (b >= end) break;
      const std::int64_t e = std::min(end, b + grain);
      if (cancel != nullptr && cancel->cancelled()) {
        cancelled.store(true, std::memory_order_relaxed);
      }
      if (!cancelled.load(std::memory_order_relaxed)) {
        try {
          MOCHA_TRACE_SCOPE("pool.chunk", "pool");
          (*fn)(b, e);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu);
          if (!error) error = std::current_exception();
          cancelled.store(true, std::memory_order_relaxed);
        }
      }
      ++completed;
    }
    return completed;
  }
};

}  // namespace

struct ThreadPool::Impl {
  int threads = 1;
  std::vector<std::thread> workers;

  std::mutex mu;
  std::condition_variable work_cv;
  std::deque<Region*> queue;  // regions that may still have unclaimed chunks
  bool stopping = false;

  void worker_loop() {
    t_on_worker = true;
    for (;;) {
      Region* region = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu);
        work_cv.wait(lock, [&] { return stopping || !queue.empty(); });
        if (stopping && queue.empty()) return;
        region = queue.front();
        if (region->next.load(std::memory_order_relaxed) >= region->end) {
          queue.pop_front();  // exhausted; expose whatever is behind it
          continue;
        }
        // Register as an entrant while the region is provably still queued
        // (the submitter unlinks it under the same pool lock before its
        // final wait, so it cannot miss us).
        std::lock_guard<std::mutex> rlock(region->mu);
        ++region->entrants;
      }
      const std::int64_t completed = region->drain();
      {
        std::lock_guard<std::mutex> rlock(region->mu);
        region->pending_chunks -= completed;
        --region->entrants;
        if (region->pending_chunks == 0 && region->entrants == 0) {
          region->done_cv.notify_all();
        }
      }
    }
  }

  void run(Region* region) {
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back(region);
    }
    work_cv.notify_all();
    // The submitter works too; with the range drained it unlinks the region
    // (no new entrants) and waits out the stragglers.
    const std::int64_t mine = region->drain();
    {
      std::lock_guard<std::mutex> lock(mu);
      for (auto it = queue.begin(); it != queue.end(); ++it) {
        if (*it == region) {
          queue.erase(it);
          break;
        }
      }
    }
    std::unique_lock<std::mutex> rlock(region->mu);
    region->pending_chunks -= mine;
    region->done_cv.wait(rlock, [&] {
      return region->pending_chunks == 0 && region->entrants == 0;
    });
  }
};

ThreadPool::ThreadPool(int threads) : impl_(std::make_unique<Impl>()) {
  MOCHA_CHECK(threads >= 1, "thread pool needs >= 1 thread, got " << threads);
  impl_->threads = threads;
  // The submitting thread participates in every region, so N lanes total
  // means N - 1 pool workers.
  impl_->workers.reserve(static_cast<std::size_t>(threads - 1));
  for (int i = 0; i + 1 < threads; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stopping = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& t : impl_->workers) t.join();
}

int ThreadPool::threads() const { return impl_->threads; }

bool ThreadPool::on_worker_thread() { return t_on_worker; }

void ThreadPool::for_range(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t)>& fn,
    const CancelToken* cancel) {
  MOCHA_CHECK(begin <= end, "parallel range [" << begin << ", " << end << ")");
  if (begin >= end) return;
  if (grain < 1) grain = 1;
  const std::int64_t range = end - begin;
  const std::int64_t chunks = (range + grain - 1) / grain;
  // Serial fallback: 1-thread pool, a single chunk, or a nested call from a
  // worker (the outer loop owns the threads). Runs inline — zero pool
  // machinery, bitwise the same iteration order as the pooled path.
  if (impl_->threads == 1 || chunks == 1 || on_worker_thread()) {
    for (std::int64_t b = begin; b < end; b += grain) {
      if (cancel != nullptr) cancel->check();
      MOCHA_TRACE_SCOPE("pool.chunk", "pool");
      fn(b, std::min(end, b + grain));
    }
    if (cancel != nullptr) cancel->check();
    return;
  }
  Region region;
  region.fn = &fn;
  region.end = end;
  region.grain = grain;
  region.cancel = cancel;
  region.next.store(begin, std::memory_order_relaxed);
  region.pending_chunks = chunks;
  impl_->run(&region);
  if (region.error) std::rethrow_exception(region.error);
  if (cancel != nullptr) cancel->check();
}

namespace {

// The process-global pool behind parallel_for, sized from MOCHA_THREADS on
// first use (default: hardware_concurrency, minimum 1).
std::mutex g_global_mu;
std::unique_ptr<ThreadPool> g_global_pool;
// parallel_for calls running on g_global_pool. Counted up under
// g_global_mu, so set_global_threads (which holds it) sees every call that
// has already picked up the pool it would destroy.
std::atomic<int> g_in_flight{0};

ThreadPool& locked_global() {
  if (!g_global_pool) {
    g_global_pool = std::make_unique<ThreadPool>(env_thread_count());
  }
  return *g_global_pool;
}

}  // namespace

void ThreadPool::set_global_threads(int threads) {
  std::lock_guard<std::mutex> lock(g_global_mu);
  if (g_global_pool && g_global_pool->threads() == threads) return;
  MOCHA_CHECK(g_in_flight.load() == 0,
              "set_global_threads(" << threads << ") while "
                                    << g_in_flight.load()
                                    << " parallel_for call(s) are in flight");
  g_global_pool.reset();  // join old workers before spawning anew
  g_global_pool = std::make_unique<ThreadPool>(threads);
}

int ThreadPool::global_threads() {
  std::lock_guard<std::mutex> lock(g_global_mu);
  return locked_global().threads();
}

void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& fn,
                  const CancelToken* cancel) {
  ThreadPool* pool = nullptr;
  {
    std::lock_guard<std::mutex> lock(g_global_mu);
    pool = &locked_global();
    g_in_flight.fetch_add(1);
  }
  struct Leave {
    ~Leave() { g_in_flight.fetch_sub(1); }
  } leave;
  pool->for_range(begin, end, grain, fn, cancel);
}

std::int64_t default_grain(std::int64_t range, std::int64_t floor) {
  const std::int64_t lanes = ThreadPool::global_threads();
  return std::max<std::int64_t>(std::max<std::int64_t>(1, floor),
                                range / (4 * lanes));
}

}  // namespace mocha::util
