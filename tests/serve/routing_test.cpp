// Tests for replica placement (serve/routing.hpp): rendezvous determinism,
// order independence and minimal disruption; that live requests land on the
// head of their rendezvous replica set; and the multi-model warm rebuild on
// readmission.
#include "serve/routing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "fault/model.hpp"
#include "nn/generate.hpp"
#include "serve/router.hpp"
#include "util/rng.hpp"

namespace mocha::serve {
namespace {

TEST(Routing, SlotIsDeterministicAndInRange) {
  for (int i = 0; i < 200; ++i) {
    const std::string key = "tenant-" + std::to_string(i) + "|m";
    const int slot = routing_slot(key, 64);
    EXPECT_EQ(slot, routing_slot(key, 64));
    EXPECT_GE(slot, 0);
    EXPECT_LT(slot, 64);
  }
  // Keys spread over the slot space rather than clumping on a few values.
  std::vector<int> hits(16, 0);
  for (int i = 0; i < 400; ++i) {
    ++hits[static_cast<std::size_t>(
        routing_slot("t" + std::to_string(i) + "|m", 16))];
  }
  for (int s = 0; s < 16; ++s) EXPECT_GT(hits[static_cast<std::size_t>(s)], 0);
}

TEST(Routing, RendezvousReplicasAreDistinctAndOrderIndependent) {
  const std::vector<int> members = {0, 1, 2, 3};
  const std::vector<int> shuffled = {3, 1, 0, 2};
  for (int slot = 0; slot < 64; ++slot) {
    const std::vector<int> set = rendezvous_replicas("m", slot, members, 2);
    ASSERT_EQ(set.size(), 2u);
    EXPECT_NE(set[0], set[1]);
    // Member order must not matter: the set is a pure function of the
    // membership, not of iteration order.
    EXPECT_EQ(set, rendezvous_replicas("m", slot, shuffled, 2));
  }
  // R larger than the fleet degrades to every member, still ordered.
  const std::vector<int> all = rendezvous_replicas("m", 0, members, 8);
  EXPECT_EQ(all.size(), members.size());
  // Different models get different placements for at least some slots.
  int diverged = 0;
  for (int slot = 0; slot < 64; ++slot) {
    if (rendezvous_replicas("m", slot, members, 2) !=
        rendezvous_replicas("other", slot, members, 2)) {
      ++diverged;
    }
  }
  EXPECT_GT(diverged, 0);
}

TEST(Routing, RemovalOnlyRemapsSlotsThatHeldTheShard) {
  const std::vector<int> members = {0, 1, 2, 3};
  const std::vector<int> without = {0, 1, 3};
  for (int slot = 0; slot < 64; ++slot) {
    const std::vector<int> before = rendezvous_replicas("m", slot, members, 2);
    const std::vector<int> after = rendezvous_replicas("m", slot, without, 2);
    if (std::find(before.begin(), before.end(), 2) == before.end()) {
      // Slots that never referenced the removed shard keep their set.
      EXPECT_EQ(after, before) << "slot " << slot;
    } else {
      EXPECT_TRUE(std::find(after.begin(), after.end(), 2) == after.end());
    }
    // Re-adding restores the original table bit-for-bit.
    EXPECT_EQ(rendezvous_replicas("m", slot, members, 2), before);
  }
}

// ---------------------------------------------------------------------------
// Fleet-level placement: a 3-shard R=2 router with canaries driving health.

class RoutingFleet : public ::testing::Test {
 protected:
  RouterOptions fleet_options() {
    RouterOptions o;
    o.shards = 3;
    o.default_replicas = 2;
    o.engine.workers = 2;
    o.engine.queue_capacity = 64;
    o.engine.default_deadline_ms = 2'000;
    o.engine.retry.max_attempts = 2;
    o.engine.retry.backoff_base_ms = 1;
    o.engine.codec_retry_budget = 0;
    // Keep the breaker out of the way: its codec-free fallback plan would
    // let canaries on the sick shard succeed and reset the streak.
    o.engine.breaker.failure_threshold = 1000;
    o.maintenance_tick_ms = 1;
    o.canary_period_ms = 5;
    o.steal = false;
    o.health.quarantine_streak = 2;
    o.health.probe_after_ns = 50'000'000;     // 50 ms
    o.health.probe_timeout_ns = 500'000'000;  // 500 ms
    return o;
  }

  void register_tiny(ShardRouter& router, const std::string& name) {
    const nn::Network net = nn::make_single_conv(4, 16, 16, 8, 3, 1, 1);
    util::Rng rng(11);
    core::MorphOptions morph;
    morph.exact_top_k = 1;
    morph.max_fusion_len = 1;
    morph.parallelism_options = {{1, 1}};
    router.register_model(name, net, nn::random_weights(net, 0.3, rng),
                          fabric::mocha_default_config(), morph);
  }

  // Polls until shard `shard` satisfies `done` (30 s backstop).
  template <typename Pred>
  static bool await_state(ShardRouter& router, int shard, Pred done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!done(router.shard_state(shard)) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return done(router.shard_state(shard));
  }
};

// Placement is rendezvous hashing over the routing slot of "tenant|model":
// on an idle, healthy fleet with hedging off, each request runs on the head
// of its replica set. Per-shard submission counters show where it went.
TEST_F(RoutingFleet, RequestsLandOnRendezvousHead) {
  RouterOptions o = fleet_options();
  o.hedge = false;
  // Sanitizer builds plan slowly; a slow first canary must not mark a shard
  // Degraded, which would move traffic off the head of its set.
  o.health.degraded_latency_ns = 60'000'000'000;
  // Canaries are rare at this period. When one does go out is up to the
  // router's clock, so the loop below re-sends any request a canary races.
  o.canary_period_ms = 1'000'000;
  ShardRouter router(o);
  register_tiny(router, "m");
  const nn::Network net = nn::make_single_conv(4, 16, 16, 8, 3, 1, 1);
  util::Rng rng(5);
  const nn::ValueTensor input =
      nn::random_tensor(net.layers.front().input_shape(), 0.4, rng);

  // A canary books on its shard's counters like a client request. Reads
  // `stats` once every canary issued so far has reached its shard, so the
  // counters hold exactly `clients` client requests plus `stats.canaries`.
  std::int64_t clients = 0;
  auto settled = [&](RouterStats& stats) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (;;) {
      stats = router.stats();
      std::int64_t sent = 0;
      for (const ShardSnapshot& s : stats.shards) sent += s.stats.submitted;
      if (sent == clients + stats.canaries) return true;
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  };

  const std::vector<int> members = {0, 1, 2};
  for (int t = 0; t < 32; ++t) {
    const std::string tenant = "tenant-" + std::to_string(t);
    const int want =
        rendezvous_replicas("m", routing_slot(tenant + "|m", 64), members, 2)
            .front();
    for (int attempt = 0;; ++attempt) {
      ASSERT_LT(attempt, 5) << tenant << ": a canary raced every attempt";
      RouterStats before;
      RouterStats after;
      ASSERT_TRUE(settled(before));
      Request request;
      request.model = "m";
      request.tenant = tenant;
      request.input = input;
      TicketPtr ticket = router.submit(std::move(request));
      ASSERT_EQ(ticket->wait().outcome, Outcome::Completed) << tenant;
      ++clients;
      ASSERT_TRUE(settled(after));
      if (after.canaries != before.canaries) continue;
      for (std::size_t i = 0; i < after.shards.size(); ++i) {
        EXPECT_EQ(after.shards[i].stats.submitted -
                      before.shards[i].stats.submitted,
                  after.shards[i].shard == want ? 1 : 0)
            << tenant << " on shard " << after.shards[i].shard;
      }
      break;
    }
  }
  router.shutdown(true);
}

// Warm rebuild: after quarantine and heal, the readmission probe must have
// re-primed the shard's plan cache for *every* registered model — a
// readmitted shard serves its first real request from a warm cache.
TEST_F(RoutingFleet, ReadmissionProbeWarmsEveryModel) {
  ShardRouter router(fleet_options());
  register_tiny(router, "m0");
  register_tiny(router, "m1");
  fault::FaultModel sick;
  sick.codec_bit_flip_rate = 1.0;
  router.set_shard_fault(1, sick);
  ASSERT_TRUE(await_state(router, 1, [](HealthState s) {
    return s == HealthState::Quarantined;
  }));
  router.clear_shard_fault(1);
  // Readmission: the probe verdict lands only after every model's canary.
  ASSERT_TRUE(await_state(router, 1, [](HealthState s) {
    return s == HealthState::Healthy || s == HealthState::Degraded;
  }));
  EXPECT_TRUE(router.shard_engine(1).has_plan("m0"));
  EXPECT_TRUE(router.shard_engine(1).has_plan("m1"));
  router.shutdown(true);
}

}  // namespace
}  // namespace mocha::serve
