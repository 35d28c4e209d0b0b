// Tests for the sharded fleet router (serve/router.hpp): end-to-end fleet
// conservation, refusal of unknown models and invalid requests without
// charging any shard, hedging, quarantine/readmit via canary probes, and a
// randomized multi-shard stress with hedges and steals active.
#include "serve/router.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "fault/model.hpp"
#include "nn/generate.hpp"
#include "util/rng.hpp"

namespace mocha::serve {
namespace {

// ---------------------------------------------------------------------------
// Fleet fixture: tiny conv model, fast morph options.

class RouterFleet : public ::testing::Test {
 protected:
  RouterOptions base_options(int shards) {
    RouterOptions o;
    o.shards = shards;
    o.engine.workers = 2;
    // Wide enough that a tight-loop submit burst (60 requests before any
    // worker drains) never sheds; the stress test narrows it on purpose.
    o.engine.queue_capacity = 64;
    o.engine.default_deadline_ms = 2'000;
    o.engine.retry.max_attempts = 2;
    o.engine.retry.backoff_base_ms = 1;
    o.engine.codec_retry_budget = 0;
    o.maintenance_tick_ms = 1;
    o.canary_period_ms = 5;
    o.health.quarantine_streak = 2;
    o.health.probe_after_ns = 50'000'000;    // 50 ms
    o.health.probe_timeout_ns = 500'000'000; // 500 ms
    return o;
  }

  void register_tiny(ShardRouter& router) {
    const nn::Network net = nn::make_single_conv(4, 16, 16, 8, 3, 1, 1);
    util::Rng rng(11);
    core::MorphOptions morph;
    morph.exact_top_k = 1;
    morph.max_fusion_len = 1;
    morph.parallelism_options = {{1, 1}};
    router.register_model("m", net, nn::random_weights(net, 0.3, rng),
                          fabric::mocha_default_config(), morph);
    input_ = nn::random_tensor(net.layers.front().input_shape(), 0.4, rng);
  }

  Request make_request(int i) {
    Request r;
    r.model = "m";
    r.tenant = "tenant-" + std::to_string(i % 8);
    r.input = input_;
    return r;
  }

  void expect_conserved(const RouterStats& stats) {
    EXPECT_EQ(stats.submitted, stats.completed + stats.shed + stats.failed);
    EXPECT_EQ(stats.in_flight, 0);
    // Per-shard generalized conservation, stealing included.
    for (const ShardSnapshot& s : stats.shards) {
      EXPECT_EQ(s.stats.submitted + s.stats.stolen_in,
                s.stats.completed + s.stats.shed + s.stats.failed +
                    s.stats.stolen_out)
          << "shard " << s.shard;
      EXPECT_EQ(s.stats.in_flight, 0) << "shard " << s.shard;
    }
  }

  nn::ValueTensor input_;
};

TEST_F(RouterFleet, CompletesAcrossShardsAndConserves) {
  ShardRouter router(base_options(3));
  register_tiny(router);
  std::vector<TicketPtr> tickets;
  for (int i = 0; i < 60; ++i) tickets.push_back(router.submit(make_request(i)));
  for (const TicketPtr& t : tickets) t->wait();
  router.shutdown(/*drain=*/true);

  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.submitted, 60);
  EXPECT_EQ(stats.completed, 60);
  expect_conserved(stats);
  // The tenant spread must land traffic on more than one shard.
  int used = 0;
  for (const ShardSnapshot& s : stats.shards) {
    if (s.stats.completed > 0) ++used;
  }
  EXPECT_GT(used, 1);
}

TEST_F(RouterFleet, SubmitAfterShutdownIsRejected) {
  ShardRouter router(base_options(2));
  register_tiny(router);
  router.shutdown(true);
  TicketPtr t = router.submit(make_request(0));
  EXPECT_EQ(t->wait().outcome, Outcome::Rejected);
  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.submitted, 1);
  EXPECT_EQ(stats.shed, 1);
}

// An unregistered model is refused by the router itself: the client sees
// the engine's own "unknown model" rejection, but no shard is charged.
TEST_F(RouterFleet, UnknownModelIsRejectedWithoutTouchingAShard) {
  ShardRouter router(base_options(3));
  register_tiny(router);
  Request request = make_request(0);
  request.model = "no-such-model";
  TicketPtr ticket = router.submit(std::move(request));
  const Response& response = ticket->wait();
  EXPECT_EQ(response.outcome, Outcome::Rejected);
  EXPECT_EQ(response.message, "unknown model: no-such-model");
  router.shutdown(true);

  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.submitted, 1);
  EXPECT_EQ(stats.shed, 1);
  // With one model registered, every canary is one shard submission, so
  // canaries account for everything the shards were sent.
  std::int64_t shard_submitted = 0;
  for (const ShardSnapshot& s : stats.shards) {
    shard_submitted += s.stats.submitted;
  }
  EXPECT_EQ(shard_submitted, stats.canaries);
}

// A request the engine refuses (here: a wrong input shape) is invalid on
// every replica alike. It must resolve Rejected after one attempt, without
// failing over and without counting against the shard's health.
TEST_F(RouterFleet, InvalidRequestsLeaveShardsHealthy) {
  RouterOptions o = base_options(2);
  o.default_replicas = 2;
  ShardRouter router(o);
  register_tiny(router);
  for (int i = 0; i < 6; ++i) {
    Request request = make_request(i);
    request.input = nn::ValueTensor(nn::Shape4{1, 3, 5, 5});
    TicketPtr ticket = router.submit(std::move(request));
    EXPECT_EQ(ticket->wait().outcome, Outcome::Rejected) << "request " << i;
  }
  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.failovers, 0);
  for (const ShardSnapshot& s : stats.shards) {
    EXPECT_EQ(s.error_rate, 0.0) << "shard " << s.shard;
    EXPECT_EQ(s.state, HealthState::Healthy) << "shard " << s.shard;
  }
  router.shutdown(true);
}

TEST_F(RouterFleet, HedgingRescuesStalledShard) {
  RouterOptions o = base_options(2);
  o.hedge_floor_ms = 5;
  o.hedge_cap_ms = 5;  // fixed 5 ms hedge delay
  o.steal = false;
  ShardRouter router(o);
  register_tiny(router);

  fault::FaultModel stall;
  stall.exec_stall_ms = 100;
  router.set_shard_fault(1, stall);

  std::vector<TicketPtr> tickets;
  for (int i = 0; i < 40; ++i) tickets.push_back(router.submit(make_request(i)));
  for (const TicketPtr& t : tickets) {
    EXPECT_EQ(t->wait().outcome, Outcome::Completed);
  }
  router.shutdown(true);

  const RouterStats stats = router.stats();
  expect_conserved(stats);
  EXPECT_EQ(stats.completed, 40);
  // Requests whose primary landed on the stalled shard must have been
  // rescued by the hedge (the 5 ms delay beats the 100 ms stall).
  EXPECT_GT(stats.hedges_issued, 0);
  EXPECT_GT(stats.hedge_wins, 0);
}

TEST_F(RouterFleet, QuarantineAndProbeReadmission) {
  RouterOptions o = base_options(2);
  o.hedge = true;
  // Keep the breaker out of this test's way: with it tripping, the sick
  // shard's canaries would switch to the codec-free fallback plan and
  // succeed, resetting the hard-failure streak before it quarantines.
  o.engine.breaker.failure_threshold = 1000;
  ShardRouter router(o);
  register_tiny(router);

  // Total codec corruption with a zero retry budget: every execution on
  // shard 1 fails hard. Canaries alone must drive it into quarantine.
  fault::FaultModel sick;
  sick.codec_bit_flip_rate = 1.0;
  router.set_shard_fault(1, sick);

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30);
  while (router.shard_state(1) != HealthState::Quarantined &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(router.shard_state(1), HealthState::Quarantined);

  // While quarantined, client traffic routes around the sick shard.
  std::vector<TicketPtr> tickets;
  for (int i = 0; i < 20; ++i) tickets.push_back(router.submit(make_request(i)));
  for (const TicketPtr& t : tickets) {
    EXPECT_EQ(t->wait().outcome, Outcome::Completed);
  }

  // Heal the shard; the half-open canary probe must readmit it.
  router.clear_shard_fault(1);
  while (!(router.shard_state(1) == HealthState::Healthy ||
           router.shard_state(1) == HealthState::Degraded) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const HealthState readmitted = router.shard_state(1);
  EXPECT_TRUE(readmitted == HealthState::Healthy ||
              readmitted == HealthState::Degraded);

  router.shutdown(true);
  const RouterStats stats = router.stats();
  expect_conserved(stats);
  EXPECT_GE(stats.shards[1].quarantines, 1);
  EXPECT_GE(stats.shards[1].probes_started, 1);
}

// Replication without the hedge timer: with the hedge disabled, a hard
// failure on the best replica must still fail over down the replica set —
// failover-on-failure is always on. Every request completes, conservation
// holds per shard and fleet-wide, and the failover counter proves the
// rescue path actually ran.
TEST_F(RouterFleet, ReplicatedFailoverConserves) {
  RouterOptions o = base_options(3);
  o.default_replicas = 2;
  o.hedge = false;  // no timer hedge: only failure-driven failover remains
  o.steal = false;
  // Without the breaker's codec-free fallback the sick shard fails hard
  // every time, so each of its requests exercises the failover path.
  o.engine.breaker.failure_threshold = 1000;
  o.health.quarantine_streak = 100;  // keep the sick shard in the ring
  // No canaries: health must not flip before the submit burst below, so the
  // sick shard is still Healthy — and targeted — when its keys arrive.
  o.canary_period_ms = 1'000'000;
  ShardRouter router(o);
  register_tiny(router);

  fault::FaultModel sick;
  sick.codec_bit_flip_rate = 1.0;
  router.set_shard_fault(1, sick);

  std::vector<TicketPtr> tickets;
  for (int i = 0; i < 40; ++i) tickets.push_back(router.submit(make_request(i)));
  for (const TicketPtr& t : tickets) {
    EXPECT_EQ(t->wait().outcome, Outcome::Completed);
  }
  router.clear_shard_fault(1);
  router.shutdown(true);

  const RouterStats stats = router.stats();
  expect_conserved(stats);
  EXPECT_EQ(stats.completed, 40);
  EXPECT_GT(stats.failovers, 0);
  // Shard 1 owned some keys (rendezvous spreads every fleet member), so it
  // must have seen — and failed — their first attempts.
  EXPECT_GT(stats.shards[1].stats.failed, 0);
}

// Randomized multi-shard stress: concurrent clients, fault churn across
// shards, hedging and stealing active. The invariant under all of it:
// submitted == completed + shed + failed, exactly, fleet-wide and (with
// steal counters) per shard.
TEST_F(RouterFleet, RandomizedStressConservesWithHedgesAndSteals) {
  RouterOptions o = base_options(3);
  o.engine.queue_capacity = 6;  // small: forces sheds and steals
  o.engine.default_deadline_ms = 300;
  o.hedge_floor_ms = 5;
  o.hedge_cap_ms = 5;
  o.steal_threshold = 3;
  o.steal_max = 2;
  ShardRouter router(o);
  register_tiny(router);

  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> client_submitted{0};

  std::thread chaos([&] {
    util::Rng rng(77);
    while (!stop.load(std::memory_order_acquire)) {
      const int shard = static_cast<int>(rng.uniform_int(0, 2));
      const int roll = static_cast<int>(rng.uniform_int(0, 3));
      if (roll == 0) {
        router.clear_shard_fault(shard);
      } else if (roll == 1) {
        fault::FaultModel f;
        f.exec_stall_ms = 30;
        router.set_shard_fault(shard, f);
      } else if (roll == 2) {
        fault::FaultModel f;
        f.codec_bit_flip_rate = 1.0;
        router.set_shard_fault(shard, f);
      } else {
        router.set_shard_fault(
            shard, fault::FaultModel::random_scenario(
                       fabric::mocha_default_config(), 0.25,
                       static_cast<std::uint64_t>(shard + 1)));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });

  std::vector<std::thread> clients;
  std::vector<std::vector<TicketPtr>> tickets(2);
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      util::Rng rng(static_cast<std::uint64_t>(c) + 1);
      while (!stop.load(std::memory_order_acquire)) {
        Request req;
        req.model = "m";
        req.tenant = "t" + std::to_string(rng.uniform_int(0, 7));
        req.priority = static_cast<int>(rng.uniform_int(0, 4));
        req.input = input_;
        if (rng.bernoulli(0.05)) {
          req.deadline_ns = util::steady_now_ns() + 1'000'000;  // 1 ms
        }
        TicketPtr ticket = router.submit(std::move(req));
        if (rng.bernoulli(0.03)) ticket->cancel();
        tickets[static_cast<std::size_t>(c)].push_back(std::move(ticket));
        client_submitted.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<std::int64_t>(rng.uniform_int(300, 2'000))));
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::seconds(4));
  stop.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();
  chaos.join();
  router.shutdown(/*drain=*/true);

  std::int64_t terminal = 0;
  for (const auto& vec : tickets) {
    for (const TicketPtr& t : vec) {
      if (t->outcome() != Outcome::Pending) ++terminal;
    }
  }
  EXPECT_EQ(terminal, client_submitted.load());

  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.submitted, client_submitted.load());
  expect_conserved(stats);
  EXPECT_GT(stats.completed, 0);
}

}  // namespace
}  // namespace mocha::serve
