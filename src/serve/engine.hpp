// ServeEngine — the resilient serving runtime over the morphable executor.
//
// MOCHA's controller story is continuous adaptation; this is the layer that
// makes it answer requests while conditions change. The engine owns:
//
//  * admission — a bounded priority queue (serve/queue.hpp) plus per-tenant
//    token buckets: overload sheds deliberately (Overloaded/RateLimited)
//    instead of queueing without bound;
//  * deadlines — every request carries an absolute deadline wired into a
//    util::CancelToken the executor polls per tile, so an expired or
//    client-cancelled request stops consuming compute mid-layer;
//  * retry — transient data damage (compress::DecodeError once the
//    executor's re-fetch budget is spent) re-executes with exponential
//    backoff and seeded full jitter; CheckFailure (a bug) never retries;
//  * circuit breaking — per model, consecutive failures or latency-SLO
//    violations flip execution onto the planner's guaranteed-feasible
//    fallback plan (core::minimal_fallback_plan via force_fallback, no
//    codecs → immune to codec faults); a half-open probe restores the
//    primary plan when it proves healthy again;
//  * plans — a keyed warm-plan cache over MorphController::plan_result:
//    (model, fault scenario, primary|fallback) -> plan, so fault churn
//    replans once per scenario, not once per request.
//
// Every submission resolves to exactly one terminal Outcome — the
// conservation law (submitted == completed + shed + failed once idle) that
// the serve_soak ctest hammers. Execution runs on the engine's worker
// threads; the tile-level parallelism inside run_functional still fans out
// on the global chunked thread pool.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/morph.hpp"
#include "fault/model.hpp"
#include "nn/quant.hpp"
#include "serve/policy.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"

namespace mocha::serve {

struct ServeOptions {
  /// Serving worker threads (request-level concurrency). Tile-level
  /// parallelism inside one request comes from the global pool on top.
  int workers = 2;
  /// Admission queue bound (see AdmissionQueue).
  std::size_t queue_capacity = 16;
  /// Deadline applied to requests that don't carry one; 0 = none.
  std::uint64_t default_deadline_ms = 1000;
  RetryOptions retry;
  BreakerOptions breaker;
  /// Corrupted-stream re-fetches absorbed *inside* one execution attempt
  /// before the attempt fails retryable (FunctionalOptions::
  /// codec_retry_budget). 0 = any corruption fails the attempt and the
  /// serve-level retry/breaker policies own recovery; < 0 = the executor
  /// self-heals and serve-level retry only sees non-codec failures.
  std::int64_t codec_retry_budget = 0;
  /// Per-tenant token bucket; rate <= 0 disables metering.
  double tenant_rate_per_sec = 0;
  double tenant_burst = 4;
  /// Metric-lane scope (obs::lane_name): per-shard engines pass "shardK" so
  /// every counter/gauge/histogram lands in its own fault-domain lane
  /// ("serve.shardK.completed"). Empty = the legacy "serve.*" names.
  std::string metrics_scope;
  /// Requantization for execution (must match how weights were produced).
  nn::Quant quant;
  model::TechParams tech = model::default_tech();
};

/// Point-in-time counters. Conservation (generalized for fleet mode):
/// submitted + stolen_in == completed + shed + failed + stolen_out +
/// in_flight, always; in_flight == 0 after shutdown(). Every field except
/// in_flight is monotone non-decreasing — soak monitors rely on that.
struct ServeStats {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  /// Overloaded + RateLimited + Rejected (refused before execution).
  std::int64_t shed = 0;
  /// DeadlineExceeded + Cancelled + Failed (work started, did not complete).
  std::int64_t failed = 0;
  /// Queued or executing right now.
  std::int64_t in_flight = 0;

  // Per-outcome breakdown (terminal outcomes only).
  std::int64_t by_outcome[8] = {0, 0, 0, 0, 0, 0, 0, 0};

  /// Serve-level re-executions after retryable failures.
  std::int64_t retries = 0;
  /// Completions served by a breaker-selected fallback plan.
  std::int64_t fallback_completions = 0;
  /// Work stealing (transfer_to): requests that arrived from / departed to
  /// a sibling engine's queue. A stolen request's terminal outcome books on
  /// the engine that finishes it.
  std::int64_t stolen_in = 0;
  std::int64_t stolen_out = 0;

  std::int64_t accepted() const { return submitted - shed; }
  std::int64_t outcome_count(Outcome o) const {
    return by_outcome[static_cast<int>(o)];
  }
};

class ServeEngine {
 public:
  explicit ServeEngine(ServeOptions options = {});
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Registers a model: network + weights + the fabric and morph options
  /// its plans are searched under. Planning is lazy (first request, per
  /// fault scenario) and cached. Throws CheckFailure on duplicate name or
  /// mismatched weights.
  void register_model(const std::string& name, nn::Network net,
                      std::vector<nn::ValueTensor> weights,
                      fabric::FabricConfig config,
                      core::MorphOptions morph = {});

  /// Applies a fault scenario to every model: plans are re-searched against
  /// fault::degraded_config (warm-cached per scenario), and the scenario's
  /// codec_bit_flip_rate drives transient corruption in execution. Throws
  /// CheckFailure if the scenario is invalid for a registered model's
  /// fabric. Thread-safe; in-flight requests keep the scenario they
  /// started with.
  void set_fault_scenario(const fault::FaultModel& faults);
  /// Back to the healthy fabric (plans for it stay warm in the cache).
  void clear_fault_scenario();

  /// Admission: never blocks, always returns a ticket. The ticket may
  /// already be terminal (shed: Overloaded / RateLimited / Rejected).
  TicketPtr submit(Request request);

  /// Stops admission, then either finishes all queued + in-flight work
  /// (drain = true) or cancels it (drain = false), and joins the workers.
  /// Idempotent; the destructor calls shutdown(false) if needed.
  void shutdown(bool drain = true);

  ServeStats stats() const;

  /// Current admission-queue depth — the load signal the shard router's
  /// power-of-two-choices placement and work stealing read.
  std::size_t queue_depth() const { return queue_.size(); }

  /// Work stealing: moves up to `max` entries from the *back* of this
  /// engine's queue (lowest-priority, youngest) into `dst`'s queue, bounded
  /// and eviction-free on arrival. Returns how many moved. An entry that no
  /// longer fits anywhere (both queues filled up mid-transfer) is shed as
  /// Overloaded here — every ticket still reaches exactly one terminal
  /// outcome, and the stolen_in/stolen_out counters keep both engines'
  /// conservation identities exact and monotone.
  std::size_t transfer_to(ServeEngine& dst, std::size_t max);

  /// True when the primary plan for `model` under the *current* fault
  /// scenario is warm in the plan cache. Tests use it to prove that the
  /// shard router's readmission probe rebuilt a healed shard (plans
  /// re-searched for the post-heal scenario) before it took client traffic
  /// again. Throws on unknown name.
  bool has_plan(const std::string& model);

  /// Breaker observability for one model (throws on unknown name).
  BreakerState breaker_state(const std::string& model);
  std::int64_t breaker_trips(const std::string& model);
  std::int64_t breaker_recoveries(const std::string& model);

 private:
  struct Model {
    std::string name;
    nn::Network net;
    std::vector<nn::ValueTensor> weights;
    fabric::FabricConfig base_config;
    core::MorphOptions morph;
    std::vector<dataflow::LayerStreamStats> stats;
    std::unique_ptr<CircuitBreaker> breaker;
  };

  /// Precomposed metric-lane names (obs::lane_name with metrics_scope) so
  /// the hot paths never rebuild strings.
  struct Lanes {
    std::string submitted, rate_limited, shed_overload, plan_cache_hits,
        plans_built, queue_wait_us, exec_latency_us, fallback_completions,
        retries, retryable_failures, completed, shed, failed, latency_us,
        exec_stalls, steals_out, steals_in, breaker_prefix;
  };

  Model* find_model(const std::string& name);
  /// The (possibly warm) plan for `model` under the current fault scenario.
  std::shared_ptr<const dataflow::NetworkPlan> plan_for(Model& model,
                                                        bool primary);
  void worker_loop();
  void process(QueuedRequest item);
  /// Resolves the ticket and books the terminal outcome into the stats.
  void finish(const QueuedRequest& item, Response&& response);
  void publish_breaker_gauge(Model& model);

  ServeOptions options_;
  Lanes lanes_;
  AdmissionQueue queue_;
  std::vector<std::thread> workers_;

  mutable std::mutex models_mu_;
  std::map<std::string, std::unique_ptr<Model>> models_;

  std::mutex fault_mu_;
  fault::FaultModel faults_;
  bool have_faults_ = false;

  std::mutex plans_mu_;
  std::map<std::string, std::shared_ptr<const dataflow::NetworkPlan>> plans_;

  std::mutex tenants_mu_;
  std::map<std::string, TokenBucket> tenants_;

  std::mutex inflight_mu_;
  std::unordered_set<Ticket*> inflight_;

  std::atomic<bool> accepting_{true};
  std::atomic<bool> shut_down_{false};
  std::mutex shutdown_mu_;  // serializes shutdown() callers
  std::atomic<std::uint64_t> next_id_{1};

  std::atomic<std::int64_t> submitted_{0};
  std::atomic<std::int64_t> retries_{0};
  std::atomic<std::int64_t> fallback_completions_{0};
  std::atomic<std::int64_t> stolen_in_{0};
  std::atomic<std::int64_t> stolen_out_{0};
  std::atomic<std::int64_t> by_outcome_[8] = {};
};

}  // namespace mocha::serve
