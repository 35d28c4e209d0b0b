// serve_fleet_soak — time-boxed soak of the sharded serving fleet under
// shard-kill/heal churn.
//
// Client threads fire a random request mix at a 3-shard ShardRouter
// (R=2 replication, hedging + stealing active) while a chaos thread kills
// and heals
// individual shards every ~200 ms — resource kills, total codec
// corruption, and execution stalls, each a shard-level fault domain. After
// ~8 seconds the run must wind down to:
//
//   * zero lost requests — every client ticket terminal, and the fleet
//     conservation law submitted == completed + shed + failed holds
//     exactly (hedge attempts never double-count);
//   * per-shard generalized conservation including stolen work:
//     submitted + stolen_in == completed + shed + failed + stolen_out;
//   * zero deadlocks — shutdown(drain) returns (the ctest TIMEOUT is the
//     enforcement backstop);
//   * monotone fleet counters — submitted/completed/shed/failed and the
//     per-shard steal counters never decrease between samples.
//
// Standalone binary (not gtest) registered via add_test as
// `serve_fleet_soak`, so sanitizer presets pick it up by name.
#include <atomic>
#include <chrono>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "fault/model.hpp"
#include "nn/generate.hpp"
#include "serve/router.hpp"
#include "util/rng.hpp"

namespace {

using namespace mocha;

struct Check {
  bool ok = true;
  void expect(bool condition, const std::string& what) {
    if (!condition) {
      ok = false;
      std::cerr << "FAIL: " << what << "\n";
    }
  }
};

int run() {
  const auto soak_time = std::chrono::seconds(8);
  const int kShards = 3;
  const nn::Network net = nn::make_single_conv(4, 16, 16, 8, 3, 1, 1);
  util::Rng rng(2026);
  const auto weights = nn::random_weights(net, 0.3, rng);

  serve::RouterOptions options;
  options.shards = kShards;
  options.default_replicas = 2;  // replicated keys: failover under churn
  options.engine.workers = 2;
  options.engine.queue_capacity = 8;
  options.engine.default_deadline_ms = 250;
  options.engine.retry.max_attempts = 2;
  options.engine.retry.backoff_base_ms = 1;
  options.engine.codec_retry_budget = 0;
  options.engine.breaker.failure_threshold = 2;
  options.engine.breaker.cooldown_ms = 100;
  options.hedge_floor_ms = 5;
  options.hedge_cap_ms = 50;
  options.steal_threshold = 3;
  options.steal_max = 2;
  options.maintenance_tick_ms = 1;
  options.canary_period_ms = 10;
  options.health.quarantine_streak = 2;
  options.health.probe_after_ns = 100'000'000;  // 100 ms
  options.health.probe_timeout_ns = 500'000'000;

  serve::ShardRouter router(options);
  core::MorphOptions morph;
  morph.exact_top_k = 1;
  morph.max_fusion_len = 1;
  morph.parallelism_options = {{1, 1}};
  const fabric::FabricConfig config = fabric::mocha_default_config();
  router.register_model("soak", net, weights, config, morph);

  std::vector<nn::ValueTensor> inputs;
  for (int i = 0; i < 4; ++i) {
    inputs.push_back(
        nn::random_tensor(net.layers.front().input_shape(), 0.4, rng));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> client_submitted{0};
  Check check;

  // Chaos: kill and heal individual shards — each fault scenario lands on
  // exactly one fault domain, never the whole fleet.
  std::thread chaos([&] {
    util::Rng chaos_rng(99);
    while (!stop.load(std::memory_order_acquire)) {
      const int shard = static_cast<int>(chaos_rng.uniform_int(0, kShards - 1));
      const int roll = static_cast<int>(chaos_rng.uniform_int(0, 3));
      if (roll == 0) {
        router.clear_shard_fault(shard);  // heal
      } else if (roll == 1) {
        fault::FaultModel faults = fault::FaultModel::random_scenario(
            config, 0.25, static_cast<std::uint64_t>(shard + 1));
        router.set_shard_fault(shard, faults);
      } else if (roll == 2) {
        fault::FaultModel faults;
        faults.codec_bit_flip_rate = 1.0;  // hard failures -> quarantine
        router.set_shard_fault(shard, faults);
      } else {
        fault::FaultModel faults;
        faults.exec_stall_ms = 40;  // slow shard -> hedges + degraded
        router.set_shard_fault(shard, faults);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
  });

  // Monotonicity watcher: fleet and steal counters must never decrease.
  std::thread monitor([&] {
    serve::RouterStats last = router.stats();
    while (!stop.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      const serve::RouterStats now = router.stats();
      check.expect(now.submitted >= last.submitted, "submitted decreased");
      check.expect(now.completed >= last.completed, "completed decreased");
      check.expect(now.shed >= last.shed, "shed decreased");
      check.expect(now.failed >= last.failed, "failed decreased");
      check.expect(now.hedges_issued >= last.hedges_issued,
                   "hedges_issued decreased");
      check.expect(now.steals >= last.steals, "steals decreased");
      check.expect(now.in_flight >= 0, "negative fleet in_flight");
      for (std::size_t s = 0; s < now.shards.size(); ++s) {
        check.expect(
            now.shards[s].stats.stolen_in >= last.shards[s].stats.stolen_in,
            "stolen_in decreased");
        check.expect(
            now.shards[s].stats.stolen_out >= last.shards[s].stats.stolen_out,
            "stolen_out decreased");
        check.expect(now.shards[s].quarantines >= last.shards[s].quarantines,
                     "quarantines decreased");
      }
      last = now;
    }
  });

  std::vector<std::thread> clients;
  std::vector<std::vector<serve::TicketPtr>> tickets(3);
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      util::Rng client_rng(static_cast<std::uint64_t>(c) + 1);
      while (!stop.load(std::memory_order_acquire)) {
        serve::Request req;
        req.model = "soak";
        req.tenant = "t" + std::to_string(client_rng.uniform_int(0, 7));
        req.priority = static_cast<int>(client_rng.uniform_int(0, 4));
        req.input = inputs[static_cast<std::size_t>(
            client_rng.uniform_int(0, static_cast<std::int64_t>(
                                          inputs.size() - 1)))];
        if (client_rng.bernoulli(0.05)) {
          req.deadline_ns = util::steady_now_ns() + 1'000'000;  // 1 ms: tight
        }
        serve::TicketPtr ticket = router.submit(std::move(req));
        if (client_rng.bernoulli(0.03)) ticket->cancel();
        tickets[static_cast<std::size_t>(c)].push_back(std::move(ticket));
        client_submitted.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<std::int64_t>(client_rng.uniform_int(200, 2'000))));
      }
    });
  }

  std::this_thread::sleep_for(soak_time);
  stop.store(true, std::memory_order_release);
  for (std::thread& client : clients) client.join();
  chaos.join();
  monitor.join();

  router.shutdown(/*drain=*/true);

  std::int64_t terminal = 0;
  for (auto& client_tickets : tickets) {
    for (const serve::TicketPtr& ticket : client_tickets) {
      if (ticket->outcome() != serve::Outcome::Pending) ++terminal;
    }
  }

  const serve::RouterStats stats = router.stats();
  check.expect(stats.submitted == client_submitted.load(),
               "fleet saw a different submission count than the clients");
  check.expect(terminal == client_submitted.load(),
               "some client tickets never reached a terminal outcome");
  check.expect(stats.submitted == stats.completed + stats.shed + stats.failed,
               "fleet conservation violated");
  check.expect(stats.in_flight == 0, "fleet in_flight nonzero after shutdown");
  check.expect(stats.completed > 0, "nothing completed during the soak");
  for (const serve::ShardSnapshot& s : stats.shards) {
    check.expect(s.stats.submitted + s.stats.stolen_in ==
                     s.stats.completed + s.stats.shed + s.stats.failed +
                         s.stats.stolen_out,
                 "per-shard conservation violated on shard " +
                     std::to_string(s.shard));
    check.expect(s.stats.in_flight == 0,
                 "shard in_flight nonzero after shutdown");
  }

  std::cout << "serve_fleet_soak: " << stats.submitted << " submitted, "
            << stats.completed << " completed, " << stats.shed << " shed, "
            << stats.failed << " failed; hedges " << stats.hedges_issued
            << " (wins " << stats.hedge_wins << ", failovers "
            << stats.failovers << "), steals " << stats.steals
            << ", canaries " << stats.canaries << ", probes " << stats.probes
            << "\n";
  for (const serve::ShardSnapshot& s : stats.shards) {
    std::cout << "  shard " << s.shard << ": "
              << serve::health_state_name(s.state) << ", "
              << s.stats.completed << " completed, " << s.stats.stolen_in
              << "/" << s.stats.stolen_out << " stolen in/out, "
              << s.quarantines << " quarantines, " << s.probes_abandoned
              << " probes abandoned\n";
  }
  std::cout << (check.ok ? "PASS" : "FAIL") << "\n";
  return check.ok ? 0 : 1;
}

}  // namespace

int main() { return run(); }
