// ShardRouter — a sharded, replicated serving fleet with shard-level fault
// domains.
//
// The router fronts N shared-nothing ServeEngine instances. Each shard owns
// its own admission queue, plan cache, circuit breakers, tenant buckets and
// fault scenario, so one poisoned fault domain cannot corrupt another — the
// fleet analogue of MOCHA's morphable-fabric story, where capacity degrades
// in bounded pieces instead of all at once. On top it layers:
//
//  * placement — every (tenant, model) key hashes to one of 64 routing
//    slots, and each (model, slot) rendezvous-hashes over the live shards
//    to an ordered *replica set* of R shards (serve/routing.hpp; R
//    configurable per model, default RouterOptions::default_replicas),
//    computed per request. A request routes to the best live replica —
//    first Healthy in set order, with a power-of-two-choices spill to the
//    next live replica when the target's queue is markedly deeper. An
//    unregistered model is refused by the router itself;
//  * health — an active checker (periodic canary inferences per shard)
//    feeds EWMA latency + error-rate into a per-shard state machine
//    (serve/health.hpp): Degraded shards stay live but lose spill traffic,
//    Quarantined shards leave the live set. Readmission requires a *warm
//    rebuild*: the half-open probe runs one canary per registered model,
//    forcing the shard's plan cache to re-search every model under the
//    post-heal scenario, so a healed shard never serves cold;
//  * hedging — a duplicate attempt on the next untried replica after a
//    p99-derived delay; first terminal Completed wins, the loser is
//    cancelled through its util::CancelToken, and the client ticket
//    resolves exactly once;
//  * failover — a failed attempt promotes the next live replica in set
//    order immediately, walking deterministically down the set; when every
//    replica is exhausted the request fails — replica count R, not luck,
//    bounds the blast radius. A Rejected attempt (the request itself is
//    invalid) neither fails over nor counts against the shard's health;
//  * stealing — when a shard's queue runs hot, its youngest lowest-priority
//    work migrates to the coldest live shard (ServeEngine::transfer_to).
//
// All background work (hedge timers, cancel propagation, canaries,
// live-set maintenance, stealing) runs on one maintenance thread; request
// execution stays on the shards' own workers.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/engine.hpp"
#include "serve/health.hpp"

namespace mocha::serve {

struct RouterOptions {
  /// Fleet size (shared-nothing ServeEngine instances).
  int shards = 2;
  /// Per-shard engine template; the router overwrites metrics_scope with
  /// "shardK" so every shard gets its own metric lanes.
  ServeOptions engine;
  HealthOptions health;

  /// Replica-set size for models registered without an explicit R, clamped
  /// to the fleet size (a 1-shard fleet serves R=1 regardless).
  int default_replicas = 2;

  /// Tail-latency hedging. The delay tracks the measured p99 of fleet-level
  /// completed latency, clamped to [floor, cap]; until 20 completions exist
  /// the cap is used (hedge late, not eagerly, while the estimate is
  /// noise). Failover on *failure* is always on — disabling hedging only
  /// disables the duplicate-attempt timer.
  bool hedge = true;
  std::uint64_t hedge_floor_ms = 2;
  std::uint64_t hedge_cap_ms = 250;

  /// Work stealing: when the hottest queue reaches `steal_threshold`, up to
  /// `steal_max` entries migrate to the coldest live shard per tick.
  bool steal = true;
  std::size_t steal_threshold = 8;
  std::size_t steal_max = 2;

  /// Maintenance cadence: the tick bounds hedge-timer latency; canaries
  /// fire per shard every `canary_period_ms` on top of it.
  std::uint64_t maintenance_tick_ms = 2;
  std::uint64_t canary_period_ms = 25;
};

/// Per-shard observability snapshot.
struct ShardSnapshot {
  int shard = -1;
  HealthState state = HealthState::Healthy;
  ServeStats stats;
  std::size_t queue_depth = 0;
  std::int64_t quarantines = 0;
  std::int64_t probes_started = 0;
  std::int64_t probes_abandoned = 0;
  double ewma_latency_ns = 0;
  double error_rate = 0;
};

/// Fleet-level counters. Conservation: submitted == completed + shed +
/// failed + in_flight (each *client* request, exactly one terminal
/// outcome; hedge attempts are internal and never double-count).
struct RouterStats {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  std::int64_t shed = 0;
  std::int64_t failed = 0;
  std::int64_t in_flight = 0;
  std::int64_t by_outcome[8] = {0, 0, 0, 0, 0, 0, 0, 0};

  /// Secondary attempts issued (timer hedges + failure-promoted failovers)
  /// and how many resolved the client (the primary lost).
  std::int64_t hedges_issued = 0;
  std::int64_t hedge_wins = 0;
  /// Attempts promoted early because the previous attempt failed first.
  std::int64_t failovers = 0;
  /// Queue entries migrated by work stealing.
  std::int64_t steals = 0;
  std::int64_t canaries = 0;
  std::int64_t probes = 0;
  /// Current derived hedge delay.
  std::uint64_t hedge_delay_ns = 0;

  std::vector<ShardSnapshot> shards;

  std::int64_t outcome_count(Outcome o) const {
    return by_outcome[static_cast<int>(o)];
  }
};

class ShardRouter {
 public:
  explicit ShardRouter(RouterOptions options = {});
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Registers the model on every shard with a replica-set size of
  /// `replicas` (0 = RouterOptions::default_replicas; otherwise must be in
  /// [1, shards]). The first registered model also becomes the periodic
  /// canary workload; *every* registered model is probed during readmission
  /// (warm rebuild).
  void register_model(const std::string& name, const nn::Network& net,
                      const std::vector<nn::ValueTensor>& weights,
                      const fabric::FabricConfig& config,
                      core::MorphOptions morph = {}, int replicas = 0);

  /// Fleet admission: places on the best live replica, may spill, may later
  /// hedge or fail over down the replica set. An unregistered model
  /// resolves Rejected without reaching a shard. Never blocks; always
  /// returns a ticket that resolves exactly once.
  TicketPtr submit(Request request);

  /// Stops the maintenance thread, then shuts every shard down (drain
  /// semantics per ServeEngine::shutdown). Idempotent.
  void shutdown(bool drain = true);

  RouterStats stats() const;

  /// Shard-level fault-domain control: applies / clears a fault scenario on
  /// one shard's engine (out-of-range index throws).
  void set_shard_fault(int shard, const fault::FaultModel& faults);
  void clear_shard_fault(int shard);

  int shard_count() const { return options_.shards; }
  HealthState shard_state(int shard);
  /// Direct shard access for tests and tools.
  ServeEngine& shard_engine(int shard);
  /// Current derived hedge delay (see RouterOptions::hedge_*).
  std::uint64_t hedge_delay_ns() const;

 private:
  struct Shard {
    std::unique_ptr<ServeEngine> engine;
    ShardHealth health;
    std::uint64_t last_canary_ns = 0;
    std::atomic<bool> canary_outstanding{false};
    /// Warm-rebuild probe bookkeeping: verdicts still pending and whether
    /// any model's canary failed.
    std::atomic<int> probe_remaining{0};
    std::atomic<bool> probe_failed{false};
    std::string state_gauge;
    std::string depth_gauge;

    explicit Shard(HealthOptions h) : health(h) {}
  };

  /// One client request in flight: the client-facing ticket plus its
  /// attempts walking down the replica set (at most two outstanding at
  /// once: the newest attempt and the timer hedge racing it).
  struct Route {
    std::uint64_t id = 0;
    std::mutex mu;
    TicketPtr client;
    /// Kept for re-submits down the set (deadline_ns resolved to absolute).
    Request request;
    std::uint64_t submitted_ns = 0;
    /// Ordered replica set captured at submit time (spill may reorder the
    /// first attempt; failover order always follows this vector).
    std::vector<int> candidates;
    /// Shard of each attempt issued so far, in attempt order.
    std::vector<int> attempted;
    std::vector<TicketPtr> attempts;
    int outstanding = 0;
    bool done = false;
    bool cancel_propagated = false;
    /// Steady-ns instant the timer hedge fires; 0 = none pending (either
    /// never planned, already consumed, or cancelled by a failover).
    std::uint64_t hedge_due_ns = 0;
    /// Best non-Completed attempt outcome so far — what the client gets if
    /// every attempt fails.
    Response pending;
    bool have_pending = false;
  };
  using RoutePtr = std::shared_ptr<Route>;

  void maintenance_loop();
  void tick(std::uint64_t now_ns);
  void maybe_canary(int shard, std::uint64_t now_ns);
  void on_canary(int shard, bool probe, const Response& response);
  void update_ring(std::uint64_t now_ns);
  void steal_tick();
  /// Issues the next attempt for `route` — the first unattempted live
  /// replica in set order (timer hedge or failure-promoted failover).
  /// Resolves the client itself when the set is exhausted and no attempt is
  /// still outstanding.
  void issue_attempt(const RoutePtr& route, bool failover);
  void on_attempt(const RoutePtr& route, std::size_t attempt, int shard,
                  const Response& response);
  void record_attempt_health(int shard, const Response& response);
  /// Resolves the client ticket exactly once and books fleet stats.
  void resolve_client(const RoutePtr& route, Response&& response);
  void erase_route(std::uint64_t id);
  /// First unattempted in-ring candidate in set order; -1 when exhausted.
  /// Caller holds route->mu.
  int next_candidate_locked(const Route& route, std::uint64_t now_ns) const;

  RouterOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex ring_mu_;
  /// In-ring (Healthy or Degraded) shard ids, ascending — the members every
  /// replica set is rendezvous-hashed over. Refreshed once per maintenance
  /// tick by update_ring.
  std::vector<int> live_;
  /// (model, replica count) in registration order.
  std::vector<std::pair<std::string, int>> models_;

  mutable std::mutex routes_mu_;
  std::map<std::uint64_t, RoutePtr> routes_;

  /// Canary workloads, one per registered model (name, zero input of the
  /// head shape). The first is the periodic liveness canary; a readmission
  /// probe runs all of them (warm rebuild). Guarded by ring_mu_.
  std::vector<std::pair<std::string, nn::ValueTensor>> canaries_;

  mutable std::mutex hist_mu_;
  obs::HistogramData latency_us_;

  std::thread maintenance_;
  std::mutex maint_mu_;
  std::condition_variable maint_cv_;
  bool stop_ = false;

  std::atomic<bool> accepting_{true};
  std::atomic<bool> shut_down_{false};
  std::mutex shutdown_mu_;
  std::atomic<std::uint64_t> next_id_{1};

  std::atomic<std::int64_t> submitted_{0};
  std::atomic<std::int64_t> hedges_issued_{0};
  std::atomic<std::int64_t> hedge_wins_{0};
  std::atomic<std::int64_t> failovers_{0};
  std::atomic<std::int64_t> steals_{0};
  std::atomic<std::int64_t> canaries_issued_{0};
  std::atomic<std::int64_t> probes_{0};
  std::atomic<std::int64_t> by_outcome_[8] = {};
};

}  // namespace mocha::serve
