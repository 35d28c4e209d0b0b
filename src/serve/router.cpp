#include "serve/router.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/trace.hpp"
#include "serve/routing.hpp"
#include "util/assert.hpp"

namespace mocha::serve {

namespace {

/// Routing slots the (tenant, model) key space hashes into.
constexpr int kRoutingSlots = 64;
/// Power-of-two-choices spill: route to the next live replica when the
/// chosen one's queue is at least this much deeper.
constexpr std::size_t kSpillMargin = 2;
/// The hedge delay tracks this percentile of completed fleet latency, once
/// at least kHedgeMinSamples completions exist.
constexpr double kHedgePercentile = 99.0;
constexpr std::uint64_t kHedgeMinSamples = 20;
/// Canaries outrank client traffic so a saturated queue still yields a
/// health signal (the shed itself is the signal when even this fails).
constexpr int kCanaryPriority = 100;
constexpr std::uint64_t kCanaryDeadlineMs = 200;

}  // namespace

ShardRouter::ShardRouter(RouterOptions options)
    : options_(std::move(options)) {
  MOCHA_CHECK(options_.shards >= 1, "router needs >= 1 shard");
  MOCHA_CHECK(options_.maintenance_tick_ms >= 1,
              "maintenance_tick_ms must be >= 1");
  MOCHA_CHECK(options_.hedge_floor_ms <= options_.hedge_cap_ms,
              "hedge_floor_ms must be <= hedge_cap_ms");
  MOCHA_CHECK(options_.steal_max >= 1, "steal_max must be >= 1");
  MOCHA_CHECK(options_.default_replicas >= 1,
              "default_replicas must be >= 1");
  // A replica set can never be wider than the fleet.
  options_.default_replicas = std::min(options_.default_replicas,
                                       options_.shards);

  shards_.reserve(static_cast<std::size_t>(options_.shards));
  for (int i = 0; i < options_.shards; ++i) {
    const std::string scope = "shard" + std::to_string(i);
    auto shard = std::make_unique<Shard>(options_.health);
    ServeOptions engine_options = options_.engine;
    engine_options.metrics_scope = scope;
    shard->engine = std::make_unique<ServeEngine>(std::move(engine_options));
    shard->state_gauge = obs::lane_name("serve", scope, "state");
    shard->depth_gauge = obs::lane_name("serve", scope, "queue_depth");
    live_.push_back(i);
    shards_.push_back(std::move(shard));
  }
  maintenance_ = std::thread([this] { maintenance_loop(); });
}

ShardRouter::~ShardRouter() { shutdown(/*drain=*/false); }

void ShardRouter::register_model(const std::string& name,
                                 const nn::Network& net,
                                 const std::vector<nn::ValueTensor>& weights,
                                 const fabric::FabricConfig& config,
                                 core::MorphOptions morph, int replicas) {
  if (replicas == 0) replicas = options_.default_replicas;
  MOCHA_CHECK(replicas >= 1 && replicas <= options_.shards,
              "replicas for '" << name << "' must be in [1, "
                               << options_.shards << "], got " << replicas);
  for (auto& shard : shards_) {
    shard->engine->register_model(name, net, weights, config, morph);
  }
  std::lock_guard<std::mutex> lock(ring_mu_);
  // Zero input of the head shape: cheap, shape-valid, and exercises the
  // full plan — the liveness canary and the warm-rebuild probe both use it.
  canaries_.emplace_back(name,
                         nn::ValueTensor(net.layers.front().input_shape()));
  models_.emplace_back(name, replicas);
}

TicketPtr ShardRouter::submit(Request request) {
  MOCHA_TRACE_SCOPE("router.submit", "serve");
  auto client = std::make_shared<Ticket>();
  const std::uint64_t now = util::steady_now_ns();
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  submitted_.fetch_add(1, std::memory_order_relaxed);
  MOCHA_METRIC_ADD("serve.fleet.submitted", 1);

  auto route = std::make_shared<Route>();
  route->id = id;
  route->client = client;
  route->submitted_ns = now;

  auto refuse = [&](std::string message) {
    Response resp;
    resp.outcome = Outcome::Rejected;
    resp.message = std::move(message);
    resolve_client(route, std::move(resp));
    return client;
  };

  if (!accepting_.load(std::memory_order_acquire)) {
    return refuse("fleet is shutting down");
  }

  // Resolve the deadline to an absolute instant here so every attempt down
  // the replica set shares it exactly — all attempts race the same clock.
  if (request.deadline_ns == 0 && options_.engine.default_deadline_ms > 0) {
    request.deadline_ns =
        now + options_.engine.default_deadline_ms * 1'000'000ull;
  }

  // Placement: the key's routing slot selects the model's ordered replica
  // set over the live shards.
  const int slot =
      routing_slot(request.tenant + "|" + request.model, kRoutingSlots);
  int replicas = 0;
  std::vector<int> candidates;
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    for (const auto& [name, r] : models_) {
      if (name == request.model) {
        replicas = r;
        break;
      }
    }
    if (replicas > 0) {
      candidates = rendezvous_replicas(request.model, slot, live_, replicas);
    }
  }
  if (replicas == 0) return refuse("unknown model: " + request.model);
  if (candidates.empty()) return refuse("no live replicas for this key");

  // Best live replica: first Healthy in set order, else the first that is
  // at least in the ring (Degraded), else — every replica momentarily out —
  // the set head (the attempt fails fast and failover re-walks the set).
  int target = -1;
  int first_live = -1;
  int live = 0;
  for (const int c : candidates) {
    Shard& shard = *shards_[static_cast<std::size_t>(c)];
    if (!shard.health.in_ring(now)) continue;
    ++live;
    if (first_live < 0) first_live = c;
    if (target < 0 && shard.health.state(now) == HealthState::Healthy) {
      target = c;
    }
  }
  if (target < 0) target = first_live;
  if (target < 0) target = candidates.front();

  // Power-of-two-choices spill: against the next live replica after target.
  for (const int alt : candidates) {
    if (alt == target) continue;
    if (!shards_[static_cast<std::size_t>(alt)]->health.in_ring(now)) continue;
    const std::size_t home =
        shards_[static_cast<std::size_t>(target)]->engine->queue_depth();
    const std::size_t other =
        shards_[static_cast<std::size_t>(alt)]->engine->queue_depth();
    if (home >= other + kSpillMargin) {
      target = alt;
      MOCHA_METRIC_ADD("serve.fleet.spills", 1);
    }
    break;
  }

  // Every field the maintenance thread may read must be set before the
  // route becomes visible in the registry.
  route->candidates = std::move(candidates);
  route->attempted.push_back(target);
  route->request = request;  // kept for re-submits down the set
  route->outstanding = 1;
  if (options_.hedge && live >= 2) {
    route->hedge_due_ns = now + hedge_delay_ns();
  }
  {
    std::lock_guard<std::mutex> lock(routes_mu_);
    routes_.emplace(id, route);
  }

  TicketPtr attempt =
      shards_[static_cast<std::size_t>(target)]->engine->submit(
          std::move(request));
  {
    std::lock_guard<std::mutex> lock(route->mu);
    route->attempts.push_back(attempt);
  }
  attempt->on_resolve([this, route, target](const Response& response) {
    on_attempt(route, 0, target, response);
  });
  return client;
}

std::uint64_t ShardRouter::hedge_delay_ns() const {
  const std::uint64_t floor = options_.hedge_floor_ms * 1'000'000ull;
  const std::uint64_t cap = options_.hedge_cap_ms * 1'000'000ull;
  std::lock_guard<std::mutex> lock(hist_mu_);
  if (latency_us_.count < kHedgeMinSamples) return cap;
  const double p_us = latency_us_.percentile(kHedgePercentile);
  const auto ns = static_cast<std::uint64_t>(std::max(0.0, p_us) * 1000.0);
  return std::min(cap, std::max(floor, ns));
}

int ShardRouter::next_candidate_locked(const Route& route,
                                       std::uint64_t now_ns) const {
  for (const int c : route.candidates) {
    if (std::find(route.attempted.begin(), route.attempted.end(), c) !=
        route.attempted.end()) {
      continue;
    }
    if (!shards_[static_cast<std::size_t>(c)]->health.in_ring(now_ns)) {
      continue;
    }
    return c;
  }
  return -1;
}

void ShardRouter::issue_attempt(const RoutePtr& route, bool failover) {
  Request request;
  int target = -1;
  bool resolve_now = false;
  Response client_resp;
  {
    std::lock_guard<std::mutex> lock(route->mu);
    if (route->done) return;
    if (!failover) {
      // Timer hedge: fires at most once, never stacks a third attempt, and
      // a cancelled client gets no new work.
      if (route->hedge_due_ns == 0) return;
      route->hedge_due_ns = 0;
      if (route->outstanding >= 2) return;
      if (route->client->token().cancel_requested()) return;
    } else {
      // A failure-promoted attempt supersedes any pending timer hedge.
      route->hedge_due_ns = 0;
    }
    const std::uint64_t now = util::steady_now_ns();
    target = next_candidate_locked(*route, now);
    if (target < 0) {
      // Replica set exhausted. On the failover path every attempt has
      // already failed, so the client gets the pending outcome now.
      if (route->outstanding == 0 && route->have_pending) {
        route->done = true;
        resolve_now = true;
        client_resp = std::move(route->pending);
      }
    } else {
      route->attempted.push_back(target);
      ++route->outstanding;
      request = route->request;  // copy; shares the absolute deadline
    }
  }
  if (resolve_now) {
    resolve_client(route, std::move(client_resp));
    erase_route(route->id);
    return;
  }
  if (target < 0) return;

  MOCHA_TRACE_SCOPE(failover ? "router.failover" : "router.hedge", "serve");
  hedges_issued_.fetch_add(1, std::memory_order_relaxed);
  MOCHA_METRIC_ADD("serve.fleet.hedges", 1);
  if (failover) {
    failovers_.fetch_add(1, std::memory_order_relaxed);
    MOCHA_METRIC_ADD("serve.fleet.failovers", 1);
  }
  TicketPtr attempt =
      shards_[static_cast<std::size_t>(target)]->engine->submit(
          std::move(request));
  std::size_t index = 0;
  {
    std::lock_guard<std::mutex> lock(route->mu);
    route->attempts.push_back(attempt);
    index = route->attempts.size() - 1;
  }
  const int shard = target;
  attempt->on_resolve([this, route, index, shard](const Response& response) {
    on_attempt(route, index, shard, response);
  });
}

void ShardRouter::on_attempt(const RoutePtr& route, std::size_t attempt,
                             int shard, const Response& response) {
  std::vector<TicketPtr> to_cancel;
  bool resolve = false;
  bool failover = false;
  Response client_resp;
  {
    std::lock_guard<std::mutex> lock(route->mu);
    --route->outstanding;
    if (route->done) {
      // Another attempt already resolved the client.
    } else if (response.outcome == Outcome::Completed) {
      route->done = true;
      route->hedge_due_ns = 0;
      resolve = true;
      client_resp = response;  // the engine ticket keeps its own copy
      if (attempt > 0) {
        hedge_wins_.fetch_add(1, std::memory_order_relaxed);
        MOCHA_METRIC_ADD("serve.fleet.hedge_wins", 1);
      }
      for (std::size_t i = 0; i < route->attempts.size(); ++i) {
        if (i != attempt && route->attempts[i]) {
          to_cancel.push_back(route->attempts[i]);
        }
      }
    } else {
      // Failed or shed attempt. Keep the most informative outcome for the
      // client: failures (work consumed) beat sheds; the first in a class
      // wins.
      if (!route->have_pending ||
          (outcome_is_failure(response.outcome) &&
           !outcome_is_failure(route->pending.outcome))) {
        route->pending = response;
        route->have_pending = true;
      }
      if (route->outstanding == 0) {
        const bool cancelled = route->client->token().cancel_requested();
        // A Rejected request (bad input shape) is refused by every replica
        // alike, so walking the set would only repeat the refusal.
        if (!cancelled && response.outcome != Outcome::Rejected &&
            accepting_.load(std::memory_order_acquire) &&
            next_candidate_locked(*route, util::steady_now_ns()) >= 0) {
          // Promote the next replica immediately: deterministic failover
          // down the set instead of waiting out the hedge delay.
          failover = true;
        } else {
          route->done = true;
          resolve = true;
          client_resp = std::move(route->pending);
        }
      }
    }
  }
  record_attempt_health(shard, response);
  for (const TicketPtr& t : to_cancel) t->cancel();
  if (resolve) resolve_client(route, std::move(client_resp));
  if (failover) issue_attempt(route, /*failover=*/true);

  bool finished;
  {
    std::lock_guard<std::mutex> lock(route->mu);
    finished = route->done && route->outstanding == 0;
  }
  if (finished) erase_route(route->id);
}

void ShardRouter::record_attempt_health(int shard, const Response& response) {
  // Cancelled attempts carry no health signal: they are our own first-wins
  // cancellation (the loser) or a client hang-up. Rejected attempts carry
  // none either: the request was invalid. Neither is the shard's fault. A
  // completed loser is still a healthy signal.
  if (response.outcome == Outcome::Cancelled ||
      response.outcome == Outcome::Rejected) {
    return;
  }
  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  const std::uint64_t now = util::steady_now_ns();
  if (response.outcome == Outcome::Completed) {
    sh.health.record_success(now, response.latency_ns);
  } else if (outcome_is_shed(response.outcome)) {
    sh.health.record_failure(now, /*hard=*/false);
  } else {
    sh.health.record_failure(now, /*hard=*/true);
  }
}

void ShardRouter::resolve_client(const RoutePtr& route, Response&& response) {
  const Outcome outcome = response.outcome;
  MOCHA_CHECK(outcome != Outcome::Pending, "resolve_client with Pending");
  response.latency_ns = util::steady_now_ns() - route->submitted_ns;
  const std::uint64_t latency_ns = response.latency_ns;
  if (!route->client->resolve(std::move(response))) return;

  by_outcome_[static_cast<int>(outcome)].fetch_add(1,
                                                   std::memory_order_relaxed);
  if (outcome == Outcome::Completed) {
    MOCHA_METRIC_ADD("serve.fleet.completed", 1);
    MOCHA_METRIC_HIST("serve.fleet.latency_us",
                      static_cast<std::int64_t>(latency_ns / 1000));
    std::lock_guard<std::mutex> lock(hist_mu_);
    latency_us_.add(static_cast<std::int64_t>(latency_ns / 1000));
  } else if (outcome_is_shed(outcome)) {
    MOCHA_METRIC_ADD("serve.fleet.shed", 1);
  } else {
    MOCHA_METRIC_ADD("serve.fleet.failed", 1);
  }
}

void ShardRouter::erase_route(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(routes_mu_);
  routes_.erase(id);
}

void ShardRouter::maintenance_loop() {
  std::unique_lock<std::mutex> lock(maint_mu_);
  while (!stop_) {
    maint_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.maintenance_tick_ms));
    if (stop_) break;
    lock.unlock();
    tick(util::steady_now_ns());
    lock.lock();
  }
}

void ShardRouter::tick(std::uint64_t now_ns) {
  MOCHA_TRACE_SCOPE("router.tick", "serve");
  // Hedge timers + client-cancel propagation.
  std::vector<RoutePtr> routes;
  {
    std::lock_guard<std::mutex> lock(routes_mu_);
    routes.reserve(routes_.size());
    for (const auto& [id, route] : routes_) routes.push_back(route);
  }
  for (const RoutePtr& route : routes) {
    bool hedge_now = false;
    std::vector<TicketPtr> to_cancel;
    {
      std::lock_guard<std::mutex> lock(route->mu);
      if (!route->done) {
        if (route->client->token().cancel_requested() &&
            !route->cancel_propagated) {
          route->cancel_propagated = true;
          for (const TicketPtr& t : route->attempts) {
            if (t) to_cancel.push_back(t);
          }
        }
        hedge_now = route->hedge_due_ns != 0 && now_ns >= route->hedge_due_ns;
      }
    }
    for (const TicketPtr& t : to_cancel) t->cancel();
    if (hedge_now) issue_attempt(route, /*failover=*/false);
  }

  update_ring(now_ns);
  for (int i = 0; i < options_.shards; ++i) maybe_canary(i, now_ns);
  if (options_.steal && options_.shards > 1) steal_tick();

  for (int i = 0; i < options_.shards; ++i) {
    Shard& shard = *shards_[static_cast<std::size_t>(i)];
    MOCHA_METRIC_GAUGE(
        shard.state_gauge,
        static_cast<std::int64_t>(shard.health.state(now_ns)));
    MOCHA_METRIC_GAUGE(shard.depth_gauge,
                       static_cast<std::int64_t>(shard.engine->queue_depth()));
  }
  MOCHA_METRIC_GAUGE("serve.replicas",
                     static_cast<std::int64_t>(options_.default_replicas));
  MOCHA_METRIC_GAUGE("serve.fleet.hedge_delay_us",
                     static_cast<std::int64_t>(hedge_delay_ns() / 1000));
}

void ShardRouter::update_ring(std::uint64_t now_ns) {
  std::lock_guard<std::mutex> lock(ring_mu_);
  std::vector<int> live;
  for (int i = 0; i < options_.shards; ++i) {
    const bool in = shards_[static_cast<std::size_t>(i)]->health.in_ring(now_ns);
    const bool was = std::binary_search(live_.begin(), live_.end(), i);
    if (in && !was) MOCHA_METRIC_ADD("serve.fleet.ring_readmits", 1);
    if (!in && was) MOCHA_METRIC_ADD("serve.fleet.ring_removals", 1);
    if (in) live.push_back(i);
  }
  live_ = std::move(live);
}

void ShardRouter::maybe_canary(int shard, std::uint64_t now_ns) {
  std::vector<std::pair<std::string, nn::ValueTensor>> canaries;
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    if (canaries_.empty()) return;  // nothing registered yet
    canaries = canaries_;
  }
  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  if (sh.canary_outstanding.load(std::memory_order_acquire)) return;

  const HealthState state = sh.health.state(now_ns);
  bool probe = false;
  if (state == HealthState::Quarantined) {
    if (!sh.health.try_begin_probe(now_ns)) return;  // cooldown
    probe = true;
  } else if (state == HealthState::Probing) {
    return;  // a probe verdict (or its timeout) is pending
  } else if (now_ns - sh.last_canary_ns <
             options_.canary_period_ms * 1'000'000ull) {
    return;
  }
  sh.last_canary_ns = now_ns;
  sh.canary_outstanding.store(true, std::memory_order_release);
  canaries_issued_.fetch_add(1, std::memory_order_relaxed);
  MOCHA_METRIC_ADD("serve.fleet.canaries", 1);

  auto send = [&](const std::pair<std::string, nn::ValueTensor>& canary) {
    Request request;
    request.model = canary.first;
    request.priority = kCanaryPriority;
    request.deadline_ns = now_ns + kCanaryDeadlineMs * 1'000'000ull;
    request.input = canary.second;
    TicketPtr ticket = sh.engine->submit(std::move(request));
    ticket->on_resolve([this, shard, probe](const Response& response) {
      on_canary(shard, probe, response);
    });
  };

  if (probe) {
    // Warm rebuild: the half-open probe canaries *every* registered model,
    // which forces the shard's plan cache to re-search each one under the
    // current (post-heal) scenario — readmission never serves cold. The
    // verdict is all-or-nothing: one failed model re-quarantines.
    probes_.fetch_add(1, std::memory_order_relaxed);
    MOCHA_METRIC_ADD("serve.fleet.probes", 1);
    MOCHA_TRACE_SCOPE("router.probe", "serve");
    sh.probe_failed.store(false, std::memory_order_release);
    sh.probe_remaining.store(static_cast<int>(canaries.size()),
                             std::memory_order_release);
    for (const auto& canary : canaries) send(canary);
  } else {
    MOCHA_TRACE_SCOPE("router.canary", "serve");
    send(canaries.front());
  }
}

void ShardRouter::on_canary(int shard, bool probe, const Response& response) {
  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  const std::uint64_t now = util::steady_now_ns();
  if (probe) {
    // One verdict per model; the last arrival decides. A verdict for an
    // already abandoned probe is ignored inside ShardHealth.
    if (response.outcome != Outcome::Completed) {
      sh.probe_failed.store(true, std::memory_order_release);
    }
    if (sh.probe_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      if (sh.probe_failed.load(std::memory_order_acquire)) {
        sh.health.record_probe_failure(now);
      } else {
        sh.health.record_probe_success(now);
      }
      sh.canary_outstanding.store(false, std::memory_order_release);
    }
    return;
  }
  if (response.outcome == Outcome::Completed) {
    sh.health.record_success(now, response.latency_ns);
  } else if (outcome_is_shed(response.outcome)) {
    sh.health.record_failure(now, /*hard=*/false);
  } else if (response.outcome != Outcome::Cancelled) {
    sh.health.record_failure(now, /*hard=*/true);
  }
  sh.canary_outstanding.store(false, std::memory_order_release);
}

void ShardRouter::steal_tick() {
  const std::uint64_t now = util::steady_now_ns();
  int hot = -1;
  int cold = -1;
  std::size_t hot_depth = 0;
  std::size_t cold_depth = 0;
  for (int i = 0; i < options_.shards; ++i) {
    Shard& shard = *shards_[static_cast<std::size_t>(i)];
    const std::size_t depth = shard.engine->queue_depth();
    if (hot < 0 || depth > hot_depth) {
      hot = i;
      hot_depth = depth;
    }
    if (shard.health.in_ring(now) && (cold < 0 || depth < cold_depth)) {
      cold = i;
      cold_depth = depth;
    }
  }
  if (hot < 0 || cold < 0 || hot == cold) return;
  if (hot_depth < options_.steal_threshold || hot_depth <= cold_depth + 1) {
    return;
  }
  const std::size_t moved =
      shards_[static_cast<std::size_t>(hot)]->engine->transfer_to(
          *shards_[static_cast<std::size_t>(cold)]->engine,
          options_.steal_max);
  if (moved > 0) {
    steals_.fetch_add(static_cast<std::int64_t>(moved),
                      std::memory_order_relaxed);
    MOCHA_METRIC_ADD("serve.fleet.steals",
                     static_cast<std::int64_t>(moved));
  }
}

void ShardRouter::shutdown(bool drain) {
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  if (shut_down_.load(std::memory_order_acquire)) return;
  accepting_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> mlock(maint_mu_);
    stop_ = true;
  }
  maint_cv_.notify_all();
  if (maintenance_.joinable()) maintenance_.join();

  // Shard shutdown resolves every outstanding attempt (engine-level
  // conservation), and the attempt hooks resolve every client ticket and
  // retire their routes — fleet-level conservation needs no extra sweep.
  for (auto& shard : shards_) shard->engine->shutdown(drain);
  shut_down_.store(true, std::memory_order_release);
}

RouterStats ShardRouter::stats() const {
  RouterStats out;
  out.submitted = submitted_.load(std::memory_order_relaxed);
  std::int64_t terminal = 0;
  for (int i = 0; i < 8; ++i) {
    out.by_outcome[i] = by_outcome_[i].load(std::memory_order_relaxed);
    terminal += out.by_outcome[i];
    const auto outcome = static_cast<Outcome>(i);
    if (outcome == Outcome::Completed) {
      out.completed += out.by_outcome[i];
    } else if (outcome_is_shed(outcome)) {
      out.shed += out.by_outcome[i];
    } else if (outcome_is_failure(outcome)) {
      out.failed += out.by_outcome[i];
    }
  }
  out.in_flight = out.submitted - terminal;
  out.hedges_issued = hedges_issued_.load(std::memory_order_relaxed);
  out.hedge_wins = hedge_wins_.load(std::memory_order_relaxed);
  out.failovers = failovers_.load(std::memory_order_relaxed);
  out.steals = steals_.load(std::memory_order_relaxed);
  out.canaries = canaries_issued_.load(std::memory_order_relaxed);
  out.probes = probes_.load(std::memory_order_relaxed);
  out.hedge_delay_ns = hedge_delay_ns();

  const std::uint64_t now = util::steady_now_ns();
  out.shards.reserve(shards_.size());
  for (int i = 0; i < options_.shards; ++i) {
    Shard& shard = *shards_[static_cast<std::size_t>(i)];
    ShardSnapshot snap;
    snap.shard = i;
    snap.state = shard.health.state(now);
    snap.stats = shard.engine->stats();
    snap.queue_depth = shard.engine->queue_depth();
    snap.quarantines = shard.health.quarantines();
    snap.probes_started = shard.health.probes_started();
    snap.probes_abandoned = shard.health.probes_abandoned();
    snap.ewma_latency_ns = shard.health.ewma_latency_ns();
    snap.error_rate = shard.health.error_rate();
    out.shards.push_back(std::move(snap));
  }
  return out;
}

void ShardRouter::set_shard_fault(int shard, const fault::FaultModel& faults) {
  shard_engine(shard).set_fault_scenario(faults);
}

void ShardRouter::clear_shard_fault(int shard) {
  shard_engine(shard).clear_fault_scenario();
}

HealthState ShardRouter::shard_state(int shard) {
  MOCHA_CHECK(shard >= 0 && shard < options_.shards,
              "shard index out of range: " << shard);
  return shards_[static_cast<std::size_t>(shard)]->health.state(
      util::steady_now_ns());
}

ServeEngine& ShardRouter::shard_engine(int shard) {
  MOCHA_CHECK(shard >= 0 && shard < options_.shards,
              "shard index out of range: " << shard);
  return *shards_[static_cast<std::size_t>(shard)]->engine;
}

}  // namespace mocha::serve
