// ServeEngine end to end: correct outputs, deadline/cancel outcomes, retry
// exhaustion vs executor self-healing, circuit-break to the fallback plan
// and recovery after heal, per-tenant rate limits, shutdown semantics — and
// the conservation law after every scenario.
#include "serve/engine.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "nn/generate.hpp"
#include "nn/reference.hpp"

namespace mocha::serve {
namespace {

/// Small conv net + reference outputs; planning stays fast but the plan
/// search is real (codecs, tiling, fusion all on the table).
struct Fixture {
  nn::Network net;
  nn::ValueTensor input;
  std::vector<nn::ValueTensor> weights;
  std::vector<nn::ValueTensor> reference;
  nn::Quant quant;

  Fixture() : net(nn::make_single_conv(4, 16, 16, 8, 3, 1, 1)) {
    util::Rng rng(7);
    input = nn::random_tensor(net.layers.front().input_shape(), 0.4, rng);
    weights = nn::random_weights(net, 0.3, rng);
    reference = nn::run_network_ref(net, input, weights, quant);
  }

  core::MorphOptions quick_morph() const {
    core::MorphOptions morph;
    morph.exact_top_k = 1;
    morph.max_fusion_len = 1;
    morph.parallelism_options = {{1, 1}};
    return morph;
  }

  void register_on(ServeEngine& engine, const std::string& name) const {
    engine.register_model(name, net, weights, fabric::mocha_default_config(),
                          quick_morph());
  }

  Request request(const std::string& model) const {
    Request req;
    req.model = model;
    req.input = input;
    return req;
  }
};

void expect_conserved(const ServeStats& stats) {
  EXPECT_EQ(stats.submitted, stats.completed + stats.shed + stats.failed);
  EXPECT_EQ(stats.in_flight, 0);
}

TEST(ServeEngine, CompletesAndMatchesReference) {
  const Fixture f;
  ServeEngine engine;
  f.register_on(engine, "m");
  const TicketPtr ticket = engine.submit(f.request("m"));
  const Response& resp = ticket->wait();
  ASSERT_EQ(resp.outcome, Outcome::Completed) << resp.message;
  EXPECT_TRUE(resp.output == f.reference.back());
  EXPECT_EQ(resp.attempts, 1);
  EXPECT_FALSE(resp.fallback_plan);
  EXPECT_GT(resp.latency_ns, 0u);
  engine.shutdown();
  expect_conserved(engine.stats());
}

TEST(ServeEngine, WarmPlanCacheServesRepeats) {
  const Fixture f;
  ServeEngine engine;
  f.register_on(engine, "m");
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(engine.submit(f.request("m"))->wait().outcome,
              Outcome::Completed);
  }
  engine.shutdown();
  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.completed, 5);
  expect_conserved(stats);
}

TEST(ServeEngine, RejectsUnknownModelAndBadShape) {
  const Fixture f;
  ServeEngine engine;
  f.register_on(engine, "m");
  EXPECT_EQ(engine.submit(f.request("nope"))->wait().outcome,
            Outcome::Rejected);

  Request bad = f.request("m");
  bad.input = nn::ValueTensor({1, 1, 2, 2});
  EXPECT_EQ(engine.submit(std::move(bad))->wait().outcome, Outcome::Rejected);

  engine.shutdown();
  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.shed, 2);
  expect_conserved(stats);
}

TEST(ServeEngine, ExpiredDeadlineNeverExecutes) {
  const Fixture f;
  ServeEngine engine;
  f.register_on(engine, "m");
  Request req = f.request("m");
  req.deadline_ns = util::steady_now_ns() - 1;  // already past
  const TicketPtr ticket = engine.submit(std::move(req));
  const Response& resp = ticket->wait();
  EXPECT_EQ(resp.outcome, Outcome::DeadlineExceeded);
  EXPECT_EQ(resp.attempts, 0);  // expired in the queue, no execution
  engine.shutdown();
  expect_conserved(engine.stats());
}

TEST(ServeEngine, ClientCancelResolvesCancelled) {
  const Fixture f;
  ServeOptions options;
  options.workers = 1;
  ServeEngine engine(options);
  f.register_on(engine, "m");
  // Saturate the single worker so the second request sits queued long
  // enough for the cancel to land first.
  std::vector<TicketPtr> busy;
  for (int i = 0; i < 3; ++i) busy.push_back(engine.submit(f.request("m")));
  const TicketPtr victim = engine.submit(f.request("m"));
  victim->cancel();
  EXPECT_EQ(victim->wait().outcome, Outcome::Cancelled);
  engine.shutdown();
  expect_conserved(engine.stats());
}

/// Fault scenario with only transient codec corruption (full strength: every
/// coded stream is damaged on every fetch).
fault::FaultModel certain_flips() {
  fault::FaultModel faults;
  faults.codec_bit_flip_rate = 1.0;
  return faults;
}

TEST(ServeEngine, PersistentDamageExhaustsRetriesAndFails) {
  const Fixture f;
  ServeOptions options;
  options.retry.max_attempts = 2;
  options.retry.backoff_base_ms = 0;  // immediate retry, no test latency
  options.retry.backoff_cap_ms = 0;
  options.codec_retry_budget = 0;  // any corruption fails the attempt
  // Keep the breaker out of this test's way: with it tripping, later
  // attempts would switch to the codec-free fallback plan and succeed.
  options.breaker.failure_threshold = 1000;
  ServeEngine engine(options);
  f.register_on(engine, "m");
  engine.set_fault_scenario(certain_flips());

  const TicketPtr ticket = engine.submit(f.request("m"));
  const Response& resp = ticket->wait();
  ASSERT_EQ(resp.outcome, Outcome::Failed) << resp.message;
  EXPECT_EQ(resp.attempts, 2);  // retried to the configured limit
  EXPECT_NE(resp.message.find("retry budget exhausted"), std::string::npos);
  engine.shutdown();
  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.retries, 1);  // one re-execution between the two attempts
  expect_conserved(stats);
}

TEST(ServeEngine, UnlimitedExecutorBudgetSelfHeals) {
  const Fixture f;
  ServeOptions options;
  options.codec_retry_budget = -1;  // executor re-fetches raw, never throws
  ServeEngine engine(options);
  f.register_on(engine, "m");
  engine.set_fault_scenario(certain_flips());

  const TicketPtr ticket = engine.submit(f.request("m"));
  const Response& resp = ticket->wait();
  ASSERT_EQ(resp.outcome, Outcome::Completed) << resp.message;
  EXPECT_TRUE(resp.output == f.reference.back());
  EXPECT_EQ(resp.attempts, 1);      // no serve-level retry needed
  EXPECT_GT(resp.codec_retries, 0);  // the damage was real, absorbed inline
  engine.shutdown();
  expect_conserved(engine.stats());
}

TEST(ServeEngine, BreakerTripsToFallbackAndRecoversAfterHeal) {
  const Fixture f;
  ServeOptions options;
  options.retry.max_attempts = 1;  // fail fast; the breaker does the work
  options.codec_retry_budget = 0;
  options.breaker.failure_threshold = 1;
  options.breaker.cooldown_ms = 50;
  ServeEngine engine(options);
  f.register_on(engine, "m");
  engine.set_fault_scenario(certain_flips());

  // First request: primary plan carries codecs, every stream is damaged,
  // the attempt fails and trips the breaker.
  const TicketPtr first_ticket = engine.submit(f.request("m"));
  const Response& first = first_ticket->wait();
  ASSERT_EQ(first.outcome, Outcome::Failed) << first.message;
  EXPECT_GE(engine.breaker_trips("m"), 1);

  // Tripped: traffic rides the codec-free fallback plan — immune to the
  // (still active) codec corruption — and completes correctly.
  const TicketPtr second_ticket = engine.submit(f.request("m"));
  const Response& second = second_ticket->wait();
  ASSERT_EQ(second.outcome, Outcome::Completed) << second.message;
  EXPECT_TRUE(second.fallback_plan);
  EXPECT_TRUE(second.output == f.reference.back());

  // Heal, wait out the cooldown: the half-open probe runs the primary plan,
  // succeeds, and closes the breaker.
  engine.clear_fault_scenario();
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  const TicketPtr probe_ticket = engine.submit(f.request("m"));
  const Response& probe = probe_ticket->wait();
  ASSERT_EQ(probe.outcome, Outcome::Completed) << probe.message;
  EXPECT_FALSE(probe.fallback_plan);
  EXPECT_GE(engine.breaker_recoveries("m"), 1);
  EXPECT_EQ(engine.breaker_state("m"), BreakerState::Closed);

  engine.shutdown();
  const ServeStats stats = engine.stats();
  EXPECT_GE(stats.fallback_completions, 1);
  expect_conserved(stats);
}

TEST(ServeEngine, TenantRateLimitSheds) {
  const Fixture f;
  ServeOptions options;
  options.tenant_rate_per_sec = 1e-6;  // effectively no refill mid-test
  options.tenant_burst = 2;
  ServeEngine engine(options);
  f.register_on(engine, "m");

  auto tenant_request = [&](const std::string& tenant) {
    Request req = f.request("m");
    req.tenant = tenant;
    return req;
  };
  // Burst of 2 admitted, the third sheds; another tenant has its own bucket.
  EXPECT_NE(engine.submit(tenant_request("a"))->wait().outcome,
            Outcome::RateLimited);
  EXPECT_NE(engine.submit(tenant_request("a"))->wait().outcome,
            Outcome::RateLimited);
  EXPECT_EQ(engine.submit(tenant_request("a"))->wait().outcome,
            Outcome::RateLimited);
  EXPECT_NE(engine.submit(tenant_request("b"))->wait().outcome,
            Outcome::RateLimited);
  engine.shutdown();
  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.outcome_count(Outcome::RateLimited), 1);
  expect_conserved(stats);
}

TEST(ServeEngine, ShutdownRejectsNewWork) {
  const Fixture f;
  ServeEngine engine;
  f.register_on(engine, "m");
  engine.shutdown();
  EXPECT_EQ(engine.submit(f.request("m"))->wait().outcome, Outcome::Rejected);
  expect_conserved(engine.stats());
}

TEST(ServeEngine, DrainlessShutdownCancelsQueuedWork) {
  const Fixture f;
  ServeOptions options;
  options.workers = 1;
  options.queue_capacity = 64;
  ServeEngine engine(options);
  f.register_on(engine, "m");
  std::vector<TicketPtr> tickets;
  for (int i = 0; i < 12; ++i) tickets.push_back(engine.submit(f.request("m")));
  engine.shutdown(/*drain=*/false);
  for (const TicketPtr& ticket : tickets) {
    EXPECT_NE(ticket->wait().outcome, Outcome::Pending);
  }
  const ServeStats stats = engine.stats();
  expect_conserved(stats);
  // With one worker and twelve instant submissions, at least some queued
  // entries must have been cancelled rather than executed.
  EXPECT_GT(stats.outcome_count(Outcome::Cancelled), 0);
}

TEST(ServeEngine, DrainingShutdownFinishesEverything) {
  const Fixture f;
  ServeOptions options;
  options.workers = 2;
  options.queue_capacity = 64;
  ServeEngine engine(options);
  f.register_on(engine, "m");
  std::vector<TicketPtr> tickets;
  for (int i = 0; i < 12; ++i) tickets.push_back(engine.submit(f.request("m")));
  engine.shutdown(/*drain=*/true);
  for (const TicketPtr& ticket : tickets) {
    EXPECT_EQ(ticket->wait().outcome, Outcome::Completed);
  }
  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.completed, 12);
  expect_conserved(stats);
}

TEST(ServeEngine, OverloadShedsLowestPriority) {
  const Fixture f;
  ServeOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  ServeEngine engine(options);
  f.register_on(engine, "m");
  // Flood a tiny queue from one thread: the engine must shed (Overloaded)
  // rather than queue without bound, and never lose a ticket.
  std::vector<TicketPtr> tickets;
  for (int i = 0; i < 40; ++i) {
    Request req = f.request("m");
    req.priority = i % 3;
    tickets.push_back(engine.submit(std::move(req)));
  }
  engine.shutdown(/*drain=*/true);
  const ServeStats stats = engine.stats();
  expect_conserved(stats);
  EXPECT_GT(stats.outcome_count(Outcome::Overloaded), 0);
  EXPECT_GT(stats.completed, 0);
  for (const TicketPtr& ticket : tickets) {
    EXPECT_NE(ticket->wait().outcome, Outcome::Pending);
  }
}

TEST(ServeEngine, BurstOnOneWorkerMatchesReference) {
  const Fixture f;
  ServeOptions options;
  options.workers = 1;  // one worker so the queue actually builds up
  options.queue_capacity = 64;
  ServeEngine engine(options);
  f.register_on(engine, "m");
  // Burst-submit so the worker drains a deep same-model queue one entry at
  // a time; every request must still come back bit-identical.
  std::vector<TicketPtr> tickets;
  for (int i = 0; i < 24; ++i) tickets.push_back(engine.submit(f.request("m")));
  engine.shutdown(/*drain=*/true);
  for (const TicketPtr& ticket : tickets) {
    const Response& resp = ticket->wait();
    ASSERT_EQ(resp.outcome, Outcome::Completed) << resp.message;
    EXPECT_TRUE(resp.output == f.reference.back());
  }
  const ServeStats stats = engine.stats();
  expect_conserved(stats);
  EXPECT_EQ(stats.completed, 24);
}

TEST(ServeEngine, InjectedStallSlowsExecutionButCompletes) {
  const Fixture f;
  ServeOptions options;
  options.workers = 1;
  ServeEngine engine(options);
  f.register_on(engine, "m");
  fault::FaultModel stall;
  stall.exec_stall_ms = 50;
  engine.set_fault_scenario(stall);
  const TicketPtr ticket = engine.submit(f.request("m"));
  const Response& resp = ticket->wait();
  ASSERT_EQ(resp.outcome, Outcome::Completed) << resp.message;
  EXPECT_GE(resp.latency_ns, 50'000'000u);
  EXPECT_TRUE(resp.output == f.reference.back());
  engine.shutdown();
  expect_conserved(engine.stats());
}

TEST(ServeEngine, StealingPreservesPerEngineConservation) {
  const Fixture f;
  ServeOptions options;
  options.workers = 1;
  options.queue_capacity = 32;
  ServeEngine hot(options);
  ServeEngine cold(options);
  f.register_on(hot, "m");
  f.register_on(cold, "m");
  std::vector<TicketPtr> tickets;
  for (int i = 0; i < 16; ++i) tickets.push_back(hot.submit(f.request("m")));
  // Migrate queued work to the idle engine while the hot one churns.
  std::size_t moved = 0;
  while (moved < 4 && hot.queue_depth() > 1) {
    moved += hot.transfer_to(cold, 2);
  }
  hot.shutdown(/*drain=*/true);
  cold.shutdown(/*drain=*/true);
  for (const TicketPtr& ticket : tickets) {
    EXPECT_EQ(ticket->wait().outcome, Outcome::Completed);
  }
  const ServeStats hs = hot.stats();
  const ServeStats cs = cold.stats();
  // Generalized conservation on both sides of the transfer.
  EXPECT_EQ(hs.submitted + hs.stolen_in,
            hs.completed + hs.shed + hs.failed + hs.stolen_out);
  EXPECT_EQ(cs.submitted + cs.stolen_in,
            cs.completed + cs.shed + cs.failed + cs.stolen_out);
  EXPECT_EQ(hs.stolen_out, cs.stolen_in - cs.stolen_out);
  EXPECT_EQ(hs.in_flight, 0);
  EXPECT_EQ(cs.in_flight, 0);
  EXPECT_EQ(hs.completed + cs.completed, 16);
  if (moved > 0) {
    EXPECT_GT(cs.stolen_in, 0);
  }
}

}  // namespace
}  // namespace mocha::serve
