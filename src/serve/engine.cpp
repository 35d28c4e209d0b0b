#include "serve/engine.hpp"

#include <optional>
#include <utility>

#include "compress/codec.hpp"
#include "dataflow/executor.hpp"
#include "nn/generate.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace mocha::serve {
namespace {

// Decorrelates (request id, attempt) into a fault seed, so a retried
// attempt draws *different* injected flips — retrying the identical seed
// would fail identically forever.
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  return util::mix64(a * 0x9e3779b97f4a7c15ull + b);
}

}  // namespace

const char* outcome_name(Outcome outcome) {
  switch (outcome) {
    case Outcome::Pending:
      return "pending";
    case Outcome::Completed:
      return "completed";
    case Outcome::DeadlineExceeded:
      return "deadline_exceeded";
    case Outcome::Cancelled:
      return "cancelled";
    case Outcome::Overloaded:
      return "overloaded";
    case Outcome::RateLimited:
      return "rate_limited";
    case Outcome::Rejected:
      return "rejected";
    case Outcome::Failed:
      return "failed";
  }
  return "?";
}

bool outcome_is_shed(Outcome outcome) {
  return outcome == Outcome::Overloaded || outcome == Outcome::RateLimited ||
         outcome == Outcome::Rejected;
}

bool outcome_is_failure(Outcome outcome) {
  return outcome == Outcome::DeadlineExceeded ||
         outcome == Outcome::Cancelled || outcome == Outcome::Failed;
}

ServeEngine::ServeEngine(ServeOptions options)
    : options_(std::move(options)),
      queue_(options_.queue_capacity,
             obs::lane_name("serve", options_.metrics_scope, "queue_depth")) {
  const auto lane = [&](const char* name) {
    return obs::lane_name("serve", options_.metrics_scope, name);
  };
  lanes_.submitted = lane("submitted");
  lanes_.rate_limited = lane("rate_limited");
  lanes_.shed_overload = lane("shed_overload");
  lanes_.plan_cache_hits = lane("plan_cache_hits");
  lanes_.plans_built = lane("plans_built");
  lanes_.queue_wait_us = lane("queue_wait_us");
  lanes_.exec_latency_us = lane("exec_latency_us");
  lanes_.fallback_completions = lane("fallback_completions");
  lanes_.retries = lane("retries");
  lanes_.retryable_failures = lane("retryable_failures");
  lanes_.completed = lane("completed");
  lanes_.shed = lane("shed");
  lanes_.failed = lane("failed");
  lanes_.latency_us = lane("latency_us");
  lanes_.exec_stalls = lane("exec_stalls");
  lanes_.steals_out = lane("steals_out");
  lanes_.steals_in = lane("steals_in");
  lanes_.breaker_prefix = lane("breaker_state.");

  MOCHA_CHECK(options_.workers >= 1, "serve engine needs >= 1 worker");
  MOCHA_CHECK(options_.retry.max_attempts >= 1,
              "retry.max_attempts must be >= 1");
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ServeEngine::~ServeEngine() { shutdown(/*drain=*/false); }

void ServeEngine::register_model(const std::string& name, nn::Network net,
                                 std::vector<nn::ValueTensor> weights,
                                 fabric::FabricConfig config,
                                 core::MorphOptions morph) {
  MOCHA_CHECK(!name.empty(), "model name must be non-empty");
  MOCHA_CHECK(!net.layers.empty(), "model " << name << " has no layers");
  MOCHA_CHECK(weights.size() == net.layers.size(),
              "model " << name << ": " << weights.size() << " weight tensors"
                       << " for " << net.layers.size() << " layers");
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    MOCHA_CHECK(weights[i].shape() == net.layers[i].weight_shape(),
                "model " << name << " layer " << net.layers[i].name
                         << ": weight shape mismatch");
  }
  config.validate();

  auto model = std::make_unique<Model>();
  model->name = name;
  model->net = std::move(net);
  model->weights = std::move(weights);
  model->base_config = config;
  model->morph = std::move(morph);
  // Plan against the assumed sparsity profile: serving has no profiling
  // pass to measure real stream statistics.
  model->stats = core::assumed_stats(model->net, nn::SparsityProfile{});
  model->breaker = std::make_unique<CircuitBreaker>(options_.breaker);

  std::lock_guard<std::mutex> lock(models_mu_);
  MOCHA_CHECK(models_.find(name) == models_.end(),
              "model " << name << " already registered");
  models_.emplace(name, std::move(model));
}

void ServeEngine::set_fault_scenario(const fault::FaultModel& faults) {
  {
    std::lock_guard<std::mutex> lock(models_mu_);
    for (const auto& [name, model] : models_) {
      faults.validate(model->base_config);
    }
  }
  std::lock_guard<std::mutex> lock(fault_mu_);
  faults_ = faults;
  have_faults_ = true;
}

void ServeEngine::clear_fault_scenario() {
  std::lock_guard<std::mutex> lock(fault_mu_);
  faults_ = fault::FaultModel{};
  have_faults_ = false;
}

ServeEngine::Model* ServeEngine::find_model(const std::string& name) {
  std::lock_guard<std::mutex> lock(models_mu_);
  auto it = models_.find(name);
  return it == models_.end() ? nullptr : it->second.get();
}

TicketPtr ServeEngine::submit(Request request) {
  auto ticket = std::make_shared<Ticket>();
  const std::uint64_t now = util::steady_now_ns();
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  submitted_.fetch_add(1, std::memory_order_relaxed);
  MOCHA_METRIC_ADD(lanes_.submitted, 1);

  auto refuse = [&](Outcome outcome, std::string message) {
    Response resp;
    resp.outcome = outcome;
    resp.message = std::move(message);
    QueuedRequest item;
    item.request = std::move(request);
    item.ticket = ticket;
    item.admitted_ns = now;
    item.id = id;
    finish(item, std::move(resp));
    return ticket;
  };

  if (!accepting_.load(std::memory_order_acquire)) {
    return refuse(Outcome::Rejected, "engine is shutting down");
  }

  Model* model = find_model(request.model);
  if (model == nullptr) {
    return refuse(Outcome::Rejected, "unknown model: " + request.model);
  }
  const nn::LayerSpec& head = model->net.layers.front();
  const bool shape_ok =
      request.input.shape() == head.input_shape() ||
      (head.kind == nn::LayerKind::FullyConnected &&
       request.input.size() == head.ifmap_elems());
  if (!shape_ok) {
    return refuse(Outcome::Rejected,
                  "input shape mismatch for model " + request.model);
  }

  if (options_.tenant_rate_per_sec > 0 && !request.tenant.empty()) {
    bool admitted = false;
    {
      std::lock_guard<std::mutex> lock(tenants_mu_);
      auto [it, inserted] = tenants_.try_emplace(
          request.tenant, options_.tenant_rate_per_sec, options_.tenant_burst);
      admitted = it->second.try_acquire(now);
    }
    if (!admitted) {
      MOCHA_METRIC_ADD(lanes_.rate_limited, 1);
      return refuse(Outcome::RateLimited,
                    "tenant " + request.tenant + " over rate");
    }
  }

  // Arm the deadline before queueing so time spent queued counts against it.
  std::uint64_t deadline = request.deadline_ns;
  if (deadline == 0 && options_.default_deadline_ms > 0) {
    deadline = now + options_.default_deadline_ms * 1'000'000ull;
  }
  if (deadline != 0) ticket->token().set_deadline_ns(deadline);

  QueuedRequest item;
  item.request = std::move(request);
  item.ticket = ticket;
  item.admitted_ns = now;
  item.id = id;

  QueuedRequest evicted;
  const AdmissionQueue::Admit admit = queue_.push(std::move(item), &evicted);
  switch (admit) {
    case AdmissionQueue::Admit::Queued:
      break;
    case AdmissionQueue::Admit::QueuedEvicted: {
      Response resp;
      resp.outcome = Outcome::Overloaded;
      resp.message = "displaced by higher-priority arrival";
      MOCHA_METRIC_ADD(lanes_.shed_overload, 1);
      finish(evicted, std::move(resp));
      break;
    }
    case AdmissionQueue::Admit::Rejected: {
      MOCHA_METRIC_ADD(lanes_.shed_overload, 1);
      Response resp;
      resp.outcome = Outcome::Overloaded;
      resp.message = "admission queue full";
      // push() moved nothing on rejection only because it never touched the
      // multiset; the item we built still owns the ticket.
      QueuedRequest rejected;
      rejected.ticket = ticket;
      rejected.admitted_ns = now;
      rejected.id = id;
      finish(rejected, std::move(resp));
      break;
    }
  }
  return ticket;
}

std::shared_ptr<const dataflow::NetworkPlan> ServeEngine::plan_for(
    Model& model, bool primary) {
  std::string scenario;
  fault::FaultModel faults;
  bool have_faults = false;
  {
    std::lock_guard<std::mutex> lock(fault_mu_);
    have_faults = have_faults_;
    if (have_faults_) {
      faults = faults_;
      scenario = faults_.summary(model.base_config);
    } else {
      scenario = "healthy";
    }
  }
  const std::string key =
      model.name + "|" + scenario + (primary ? "|primary" : "|fallback");

  std::lock_guard<std::mutex> lock(plans_mu_);
  auto it = plans_.find(key);
  if (it != plans_.end()) {
    MOCHA_METRIC_ADD(lanes_.plan_cache_hits, 1);
    return it->second;
  }

  // Cold plan: search under the *surviving* fabric. Holding plans_mu_
  // serializes concurrent cold lookups of the same key (the search itself
  // fans out on the global pool); warm lookups only block for the map probe.
  MOCHA_TRACE_SCOPE("serve.plan", "serve");
  MOCHA_METRIC_ADD(lanes_.plans_built, 1);
  const fabric::FabricConfig config =
      have_faults ? fault::degraded_config(model.base_config, faults)
                  : model.base_config;
  core::MorphOptions morph = model.morph;
  morph.force_fallback = morph.force_fallback || !primary;
  const core::MorphController controller(options_.tech, morph);
  core::PlanResult result =
      controller.plan_result(model.net, config, model.stats, 1);
  auto plan =
      std::make_shared<const dataflow::NetworkPlan>(std::move(result.plan));
  plans_.emplace(key, plan);
  return plan;
}

bool ServeEngine::has_plan(const std::string& model) {
  Model* m = find_model(model);
  MOCHA_CHECK(m != nullptr, "unknown model: " << model);
  std::string scenario;
  {
    std::lock_guard<std::mutex> lock(fault_mu_);
    scenario = have_faults_ ? faults_.summary(m->base_config) : "healthy";
  }
  std::lock_guard<std::mutex> lock(plans_mu_);
  return plans_.count(model + "|" + scenario + "|primary") != 0;
}

void ServeEngine::publish_breaker_gauge(Model& model) {
  [[maybe_unused]] const BreakerState state =
      model.breaker->state(util::steady_now_ns());
  MOCHA_METRIC_GAUGE(lanes_.breaker_prefix + model.name,
                     static_cast<std::int64_t>(state));
}

void ServeEngine::worker_loop() {
  for (;;) {
    std::optional<QueuedRequest> item = queue_.pop();
    if (!item) return;  // closed and drained
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      inflight_.insert(item->ticket.get());
    }
    process(std::move(*item));
  }
}

void ServeEngine::process(QueuedRequest item) {
  MOCHA_TRACE_SCOPE("serve.request", "serve");
  Ticket& ticket = *item.ticket;
  util::CancelToken& token = ticket.token();

  Response resp;
  resp.queue_ns = util::steady_now_ns() - item.admitted_ns;
  MOCHA_METRIC_HIST(lanes_.queue_wait_us,
                    static_cast<std::int64_t>(resp.queue_ns / 1000));

  auto expire = [&](std::string where) {
    resp.outcome = token.cancel_requested() ? Outcome::Cancelled
                                            : Outcome::DeadlineExceeded;
    resp.message = std::move(where);
    finish(item, std::move(resp));
  };

  if (token.cancelled()) {
    expire("expired while queued");
    return;
  }

  Model* model = find_model(item.request.model);
  if (model == nullptr) {  // unregistered between submit and dequeue
    resp.outcome = Outcome::Rejected;
    resp.message = "unknown model: " + item.request.model;
    finish(item, std::move(resp));
    return;
  }

  util::Rng jitter(mix_seed(options_.retry.jitter_seed, item.id));

  for (;;) {
    ++resp.attempts;
    const std::uint64_t attempt_start = util::steady_now_ns();
    const bool primary = model->breaker->allow_primary(attempt_start);

    try {
      std::shared_ptr<const dataflow::NetworkPlan> plan =
          plan_for(*model, primary);

      dataflow::FunctionalOptions exec;
      exec.quant = options_.quant;
      exec.cancel = &token;
      exec.codec_retry_budget = options_.codec_retry_budget;
      std::int64_t stall_ms = 0;
      {
        std::lock_guard<std::mutex> lock(fault_mu_);
        exec.codec_flip_rate = have_faults_ ? faults_.codec_bit_flip_rate : 0;
        stall_ms = have_faults_ ? faults_.exec_stall_ms : 0;
      }
      exec.codec_fault_seed =
          mix_seed(item.id, static_cast<std::uint64_t>(resp.attempts));
      // Serving computes outputs; it does not need coded-size measurement.
      // Codecs are exercised only when flips are being injected (the framed
      // integrity path is what detects them).
      exec.exercise_codecs = exec.codec_flip_rate > 0;
      exec.verify_codecs = false;

      if (stall_ms > 0) {
        // Injected latency degradation (fault::FaultModel::exec_stall_ms):
        // the attempt slows down but stays deadline-aware — the stall is
        // interruptible, and a fired token takes the same Cancelled path as
        // any mid-execution expiry.
        MOCHA_METRIC_ADD(lanes_.exec_stalls, 1);
        if (ticket.sleep_until(attempt_start +
                               static_cast<std::uint64_t>(stall_ms) *
                                   1'000'000ull)) {
          throw util::Cancelled("injected execution stall interrupted");
        }
      }

      dataflow::FunctionalResult result;
      {
        MOCHA_TRACE_SCOPE("serve.execute", "serve");
        result = dataflow::run_functional(model->net, *plan,
                                          item.request.input, model->weights,
                                          exec);
      }

      const std::uint64_t attempt_end = util::steady_now_ns();
      if (primary) {
        model->breaker->record_primary_success(attempt_end,
                                               attempt_end - attempt_start);
        publish_breaker_gauge(*model);
      }
      resp.outcome = Outcome::Completed;
      resp.output = std::move(result.outputs.back());
      resp.codec_retries += result.codec_retries;
      resp.fallback_plan = !primary;
      if (!primary) {
        fallback_completions_.fetch_add(1, std::memory_order_relaxed);
        MOCHA_METRIC_ADD(lanes_.fallback_completions, 1);
      }
      MOCHA_METRIC_HIST(
          lanes_.exec_latency_us,
          static_cast<std::int64_t>((attempt_end - attempt_start) / 1000));
      finish(item, std::move(resp));
      return;
    } catch (const util::Cancelled&) {
      if (primary) {
        model->breaker->abandon_primary();
        publish_breaker_gauge(*model);
      }
      expire(resp.attempts > 1 ? "cancelled during retry"
                               : "cancelled mid-execution");
      return;
    } catch (const compress::DecodeError& e) {
      // Retryable: persistent data damage past the executor's own re-fetch
      // budget. Report to the breaker, then back off and re-execute with a
      // fresh fault seed — unless attempts or the deadline run out.
      if (primary) {
        model->breaker->record_primary_failure(util::steady_now_ns());
        publish_breaker_gauge(*model);
      }
      MOCHA_METRIC_ADD(lanes_.retryable_failures, 1);
      if (resp.attempts >= options_.retry.max_attempts) {
        resp.outcome = Outcome::Failed;
        resp.message = std::string("retry budget exhausted: ") + e.what();
        finish(item, std::move(resp));
        return;
      }
      const std::uint64_t wait =
          retry_backoff_ns(options_.retry, resp.attempts, jitter);
      const std::uint64_t now = util::steady_now_ns();
      const std::uint64_t deadline = token.deadline_ns();
      if (deadline != 0 && now + wait >= deadline) {
        resp.outcome = Outcome::DeadlineExceeded;
        resp.message = "no deadline budget left for retry backoff";
        finish(item, std::move(resp));
        return;
      }
      retries_.fetch_add(1, std::memory_order_relaxed);
      MOCHA_METRIC_ADD(lanes_.retries, 1);
      if (ticket.sleep_until(now + wait)) {
        expire("cancelled during retry backoff");
        return;
      }
      continue;
    } catch (const util::CheckFailure& e) {
      // Non-retryable: a bug (or an infeasible plan). The breaker still
      // counts it — flipping to the minimal fallback plan is exactly the
      // right response to a plan that cannot execute.
      if (primary) {
        model->breaker->record_primary_failure(util::steady_now_ns());
        publish_breaker_gauge(*model);
      }
      resp.outcome = Outcome::Failed;
      resp.message = std::string("non-retryable: ") + e.what();
      finish(item, std::move(resp));
      return;
    } catch (const std::exception& e) {
      if (primary) {
        model->breaker->record_primary_failure(util::steady_now_ns());
        publish_breaker_gauge(*model);
      }
      resp.outcome = Outcome::Failed;
      resp.message = std::string("unexpected: ") + e.what();
      finish(item, std::move(resp));
      return;
    }
  }
}

std::size_t ServeEngine::transfer_to(ServeEngine& dst, std::size_t max) {
  MOCHA_CHECK(&dst != this, "transfer_to: source and destination identical");
  std::vector<QueuedRequest> taken = queue_.steal_back(max);
  std::size_t moved = 0;
  for (QueuedRequest& item : taken) {
    // Count the arrival before the handoff: once try_append succeeds a dst
    // worker may finish the request instantly, and stolen_in must already
    // cover it or dst's conservation identity would transiently fail.
    dst.stolen_in_.fetch_add(1, std::memory_order_relaxed);
    MOCHA_METRIC_ADD(dst.lanes_.steals_in, 1);
    if (dst.queue_.try_append(item)) {
      stolen_out_.fetch_add(1, std::memory_order_relaxed);
      MOCHA_METRIC_ADD(lanes_.steals_out, 1);
      ++moved;
      continue;
    }
    // Bounced: dst filled up (or closed) mid-transfer. Book the bounce as a
    // dst departure — both counters stay monotone and net to zero — and put
    // the entry back home.
    dst.stolen_out_.fetch_add(1, std::memory_order_relaxed);
    MOCHA_METRIC_ADD(dst.lanes_.steals_out, 1);
    if (queue_.try_append(item)) continue;
    // Home refilled (or closed) too: shed. The ticket still reaches exactly
    // one terminal outcome, booked here where it was submitted.
    Response resp;
    resp.outcome = Outcome::Overloaded;
    resp.message = "displaced during work stealing";
    MOCHA_METRIC_ADD(lanes_.shed_overload, 1);
    finish(item, std::move(resp));
  }
  return moved;
}

void ServeEngine::finish(const QueuedRequest& item, Response&& response) {
  const Outcome outcome = response.outcome;
  MOCHA_CHECK(outcome != Outcome::Pending, "finish with Pending outcome");
  response.latency_ns = util::steady_now_ns() - item.admitted_ns;
  [[maybe_unused]] const std::uint64_t latency_ns = response.latency_ns;

  const bool resolved = item.ticket->resolve(std::move(response));
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_.erase(item.ticket.get());
  }
  if (!resolved) return;  // lost the race to another resolver; don't count

  by_outcome_[static_cast<int>(outcome)].fetch_add(1,
                                                   std::memory_order_relaxed);
  if (outcome == Outcome::Completed) {
    MOCHA_METRIC_ADD(lanes_.completed, 1);
    MOCHA_METRIC_HIST(lanes_.latency_us,
                      static_cast<std::int64_t>(latency_ns / 1000));
  } else if (outcome_is_shed(outcome)) {
    MOCHA_METRIC_ADD(lanes_.shed, 1);
  } else {
    MOCHA_METRIC_ADD(lanes_.failed, 1);
  }
}

void ServeEngine::shutdown(bool drain) {
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  if (shut_down_.load(std::memory_order_acquire)) return;
  accepting_.store(false, std::memory_order_release);

  if (!drain) {
    // Refuse everything still queued and interrupt what is executing.
    for (QueuedRequest& item : queue_.drain()) {
      item.ticket->token().cancel();
      Response resp;
      resp.outcome = Outcome::Cancelled;
      resp.message = "engine shutdown";
      finish(item, std::move(resp));
    }
    std::lock_guard<std::mutex> inflight_lock(inflight_mu_);
    for (Ticket* ticket : inflight_) ticket->token().cancel();
  }

  // close() wakes the workers; with drain they finish the queue first
  // (pop() keeps returning queued work after close until empty).
  queue_.close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  shut_down_.store(true, std::memory_order_release);
}

ServeStats ServeEngine::stats() const {
  ServeStats out;
  out.submitted = submitted_.load(std::memory_order_relaxed);
  const std::int64_t terminal = snapshot_outcomes(by_outcome_, &out);
  out.stolen_in = stolen_in_.load(std::memory_order_relaxed);
  out.stolen_out = stolen_out_.load(std::memory_order_relaxed);
  out.in_flight = out.submitted + out.stolen_in - out.stolen_out - terminal;
  out.retries = retries_.load(std::memory_order_relaxed);
  out.fallback_completions =
      fallback_completions_.load(std::memory_order_relaxed);
  return out;
}

BreakerState ServeEngine::breaker_state(const std::string& model) {
  Model* m = find_model(model);
  MOCHA_CHECK(m != nullptr, "unknown model: " << model);
  return m->breaker->state(util::steady_now_ns());
}

std::int64_t ServeEngine::breaker_trips(const std::string& model) {
  Model* m = find_model(model);
  MOCHA_CHECK(m != nullptr, "unknown model: " << model);
  return m->breaker->trips();
}

std::int64_t ServeEngine::breaker_recoveries(const std::string& model) {
  Model* m = find_model(model);
  MOCHA_CHECK(m != nullptr, "unknown model: " << model);
  return m->breaker->recoveries();
}

}  // namespace mocha::serve
