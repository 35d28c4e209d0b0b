// serve: mocha_serve's open loop. One generator thread sends requests on an
// absolute Poisson due-time schedule into a ShardRouter (2 shards x 1
// worker, R = 2, router defaults, pool width 1) serving LeNet-5 under two
// model names, for 2 tenants at 3 priority levels, codecs off (the serving
// default). A fixed-rate phase measures latency from each request's due
// time to its resolution; a fixed bisection then finds the highest rate
// the fleet sustains within the p99 limit.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>

#include "bench.hpp"
#include "nn/generate.hpp"
#include "nn/reference.hpp"
#include "serve/router.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/timing.hpp"

namespace perfbench {

using namespace mocha;

namespace {

/// Offered rate of the measured phase: about a third of the rate at which
/// the fleet starts shedding on a 4-core host (about 3,000 req/s), so that
/// host scheduling stalls do not overflow the 64-deep admission queues and
/// every request completes.
constexpr double kRps = 1000;
/// A run whose generator is later than this at p99 (over twice the fleet's
/// median latency) measured the generator, not the fleet, and is refused.
constexpr double kMaxLagP99Ms = 1.0;

constexpr int kModels = 2;
constexpr int kTenants = 2;
constexpr int kPriorities = 3;
constexpr int kInputs = 16;

struct Fleet {
  std::unique_ptr<serve::ShardRouter> router;
  std::vector<std::string> models;
  std::vector<std::vector<nn::ValueTensor>> weights;  // [model]
  std::vector<nn::ValueTensor> inputs;
  std::vector<std::vector<nn::ValueTensor>> expected;  // [model][input]
};

/// Fleet start, seeded weights and inputs, reference outputs, and a warm
/// plan cache: one checked request per (shard, model) straight to the
/// shard engine, so no timed request pays for planning.
Fleet start_fleet(const nn::Network& net, std::uint64_t seed,
                  Result& result) {
  serve::RouterOptions options;
  options.shards = 2;
  options.engine.workers = 1;
  // Deeper than the default 16: on a virtualized host, 20-30 ms stalls of
  // both workers overflowed two 16-deep queues at 1,000 req/s and shed a
  // few requests in about one run in fifteen.
  options.engine.queue_capacity = 64;
  options.default_replicas = 2;
  Fleet fleet;
  fleet.router = std::make_unique<serve::ShardRouter>(options);
  util::Rng rng(seed);
  for (int m = 0; m < kModels; ++m) {
    fleet.models.push_back(net.name + "-" + std::to_string(m));
    fleet.weights.push_back(nn::random_weights(net, 0.2, rng));
    fleet.router->register_model(fleet.models.back(), net,
                                 fleet.weights.back(),
                                 fabric::mocha_default_config());
  }
  for (int i = 0; i < kInputs; ++i) {
    fleet.inputs.push_back(
        nn::random_tensor(net.layers.front().input_shape(), 0.05, rng));
  }
  fleet.expected.resize(kModels);
  for (int m = 0; m < kModels; ++m) {
    for (const nn::ValueTensor& input : fleet.inputs) {
      fleet.expected[m].push_back(
          nn::run_network_ref(net, input, fleet.weights[m],
                              options.engine.quant)
              .back());
    }
  }
  for (int s = 0; s < options.shards; ++s) {
    for (int m = 0; m < kModels; ++m) {
      serve::Request request;
      request.model = fleet.models[static_cast<std::size_t>(m)];
      request.input = fleet.inputs.front();
      const serve::TicketPtr ticket =
          fleet.router->shard_engine(s).submit(std::move(request));
      const serve::Response& response = ticket->wait();
      if (response.outcome != serve::Outcome::Completed ||
          !(response.output == fleet.expected[m].front())) {
        result.failures.push_back("warm-up request on shard " +
                                  std::to_string(s) + " failed");
      }
    }
  }
  return fleet;
}

/// One request of a phase. The resolve hook stamps `resolved_ns` on the
/// resolver's thread; everything else is written by the generator.
struct Slot {
  std::uint64_t due_ns = 0;
  std::uint64_t submit_ns = 0;
  std::uint64_t submitted_ns = 0;
  std::atomic<std::uint64_t> resolved_ns{0};
  int model = 0;
  int input = 0;
  serve::TicketPtr ticket;
};

/// Shared with the resolve hooks, so it outlives any late resolution.
struct PhaseState {
  explicit PhaseState(std::size_t n) : slots(n) {}
  std::vector<Slot> slots;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t resolved = 0;  // guarded by mu
};

struct Phase {
  std::int64_t requests = 0;
  std::int64_t completed = 0;
  std::int64_t wrong = 0;
  std::vector<double> latency_ms, lag_ms, submit_us, queue_ms, service_ms;
  double unattributed_ms = 0;  // summed over completed requests
  double latency_sum_ms = 0;

  double p(std::vector<double> Phase::*samples, double pct) const {
    return percentile(this->*samples, pct);
  }
};

void wait_until(std::uint64_t due_ns) {
  // Spin rather than sleep: on a virtualized host a sleeping thread's
  // wake-up can be milliseconds late, which would show up as generator lag.
  while (util::steady_now_ns() < due_ns) {
  }
}

/// Sends `rps` x `seconds` requests on an absolute Poisson schedule drawn
/// from `rng`, waits for every resolution, and checks every output. With
/// `spans`, records each request's spans.
Phase run_phase(Fleet& fleet, double rps, double seconds, util::Rng& rng,
                Spans* spans) {
  const auto n =
      static_cast<std::size_t>(std::max(1.0, std::round(rps * seconds)));
  auto state = std::make_shared<PhaseState>(n);
  std::vector<serve::Request> requests(n);
  std::uint64_t offset = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Slot& slot = state->slots[i];
    offset += util::poisson_gap_ns(rng, rps);
    slot.due_ns = offset;
    slot.model = static_cast<int>(rng.uniform_int(0, kModels - 1));
    slot.input = static_cast<int>(rng.uniform_int(0, kInputs - 1));
    serve::Request& request = requests[i];
    request.model = fleet.models[static_cast<std::size_t>(slot.model)];
    request.tenant =
        "tenant-" + std::to_string(rng.uniform_int(0, kTenants - 1));
    request.priority = static_cast<int>(rng.uniform_int(0, kPriorities - 1));
    request.input = fleet.inputs[static_cast<std::size_t>(slot.input)];
  }

  const std::uint64_t t0 = util::steady_now_ns() + 1'000'000;
  for (std::size_t i = 0; i < n; ++i) {
    Slot& slot = state->slots[i];
    slot.due_ns += t0;
    wait_until(slot.due_ns);
    slot.submit_ns = util::steady_now_ns();
    slot.ticket = fleet.router->submit(std::move(requests[i]));
    slot.submitted_ns = util::steady_now_ns();
    slot.ticket->on_resolve([state, i](const serve::Response&) {
      state->slots[i].resolved_ns.store(util::steady_now_ns(),
                                        std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(state->mu);
        ++state->resolved;
      }
      state->cv.notify_all();
    });
  }

  Phase phase;
  phase.requests = static_cast<std::int64_t>(n);
  {
    // Every ticket resolves by its deadline (the 1 s engine default).
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&] { return state->resolved == n; });
  }

  for (std::size_t i = 0; i < n; ++i) {
    const Slot& slot = state->slots[i];
    const serve::Response& response = slot.ticket->response();
    const std::uint64_t resolved =
        slot.resolved_ns.load(std::memory_order_relaxed);
    const double lag_ms =
        static_cast<double>(slot.submit_ns - slot.due_ns) / 1e6;
    phase.lag_ms.push_back(lag_ms);
    phase.submit_us.push_back(
        static_cast<double>(slot.submitted_ns - slot.submit_ns) / 1e3);
    if (response.outcome != serve::Outcome::Completed) continue;
    ++phase.completed;
    if (!(response.output ==
          fleet.expected[static_cast<std::size_t>(slot.model)]
                        [static_cast<std::size_t>(slot.input)])) {
      ++phase.wrong;
    }
    const double latency_ms = static_cast<double>(resolved - slot.due_ns) / 1e6;
    const double queue_ms = static_cast<double>(response.queue_ns) / 1e6;
    const double service_ms =
        static_cast<double>(response.latency_ns - response.queue_ns) / 1e6;
    phase.latency_ms.push_back(latency_ms);
    phase.queue_ms.push_back(queue_ms);
    phase.service_ms.push_back(service_ms);
    const double submit_ms = phase.submit_us.back() / 1e3;
    phase.latency_sum_ms += latency_ms;
    phase.unattributed_ms +=
        latency_ms - (lag_ms + submit_ms + queue_ms + service_ms);

    if (spans != nullptr) {
      const auto s = [](std::uint64_t ns) {
        return static_cast<double>(ns) * 1e-9;
      };
      const auto op = static_cast<std::int64_t>(i);
      const int root =
          spans->add("request", op, -1, s(slot.due_ns), s(resolved));
      spans->add("generator.lag", op, root, s(slot.due_ns), s(slot.submit_ns));
      spans->add("serve.ShardRouter.submit", op, root, s(slot.submit_ns),
                 s(slot.submitted_ns));
      const std::uint64_t admitted =
          std::max(slot.submitted_ns, resolved - response.latency_ns);
      const std::uint64_t dequeued =
          std::min(resolved, admitted + response.queue_ns);
      spans->add("serve.queue", op, root, s(admitted), s(dequeued));
      spans->add("serve.service", op, root, s(dequeued), s(resolved));
    }
  }
  return phase;
}

/// Books every request of a phase as an operation: it must complete with
/// the reference output.
void book(const Phase& phase, Result& result) {
  const std::int64_t bad = phase.requests - phase.completed + phase.wrong;
  for (std::int64_t i = 0; i < phase.requests; ++i) {
    result.operation(i < bad ? "request did not complete with the reference "
                               "output"
                             : "");
  }
}

}  // namespace

void run_serve(const Args& args, Result& result) {
  util::ThreadPool::set_global_threads(1);
  result.pool_width = 1;
  // Generator + router maintenance thread + one worker per shard.
  result.thread_budget = 4;

  const nn::Network net = nn::make_lenet5();
  const core::Accelerator acc = core::make_mocha_accelerator();
  // The statistics the serving engine plans with.
  const auto stats = core::assumed_stats(net, nn::SparsityProfile{});

  // Set-up, repeated so setup_s is a median: fleet start, reference
  // outputs and plan-cache warm-up. It takes tens of milliseconds, much of
  // it waiting for freshly started workers to wake, so it gets more
  // repetitions than the other workloads' set-ups.
  Fleet fleet;
  std::vector<double> setup_s;
  const int reps = args.smoke || args.trace ? 1 : 9;
  for (int r = 0; r < reps; ++r) {
    if (fleet.router) fleet.router->shutdown();
    const double t0 = now_s();
    fleet = start_fleet(net, args.seed, result);
    setup_s.push_back(now_s() - t0);
  }
  const std::vector<DesignPoint> points = {{&net, stats}};
  util::Rng arrivals(args.seed ^ 0x9e3779b97f4a7c15ull);
  const double phase_s = args.smoke ? 0.3 : args.seconds;
  util::JsonWriter info;
  info.begin_object();
  info.key("rps").value(kRps);
  std::int64_t submitted = 0;
  // Runs one measured phase and books its requests.
  const auto measure = [&](Spans* spans) {
    const Phase phase = run_phase(fleet, kRps, phase_s, arrivals, spans);
    book(phase, result);
    submitted += phase.requests;
    return phase;
  };
  // Refuses the run when the generator, not the fleet, set the timing. A
  // smoke phase has too few requests for its p99 to say anything.
  const auto refuse_if_late = [&](const Phase& phase) {
    const double lag_p99 = phase.p(&Phase::lag_ms, 99);
    if (!args.smoke && lag_p99 > kMaxLagP99Ms) {
      throw std::runtime_error("generator lag p99 " + std::to_string(lag_p99) +
                               " ms: the run measured the generator");
    }
  };

  // The plan the engines' caches hold (the same MOCHA planner call) and
  // its simulated cost.
  const PlanSimPass planned = plan_and_simulate(acc, points);
  if (args.trace) {
    const dataflow::NetworkPlan& plan = planned.plans.front();
    const Phase untraced = measure(nullptr);
    Spans spans;
    const serve::RouterStats before = fleet.router->stats();
    const Phase traced = measure(&spans);
    const serve::RouterStats after = fleet.router->stats();
    refuse_if_late(traced);
    // The per-module measurements below resize the global pool, which the
    // fleet's workers share: stop the fleet first.
    fleet.router->shutdown();

    trace_plan_and_simulate(acc, points, planned.reports, spans, result);
    dataflow::FunctionalOptions serving;  // as ServeEngine executes
    serving.quant = serve::ServeOptions{}.quant;
    serving.exercise_codecs = false;
    serving.verify_codecs = false;
    serving.codec_retry_budget = 0;
    const std::vector<nn::ValueTensor> reference = nn::run_network_ref(
        net, fleet.inputs.front(), fleet.weights.front(), serving.quant);
    trace_functional(net, plan, fleet.inputs.front(), fleet.weights.front(),
                     reference, serving, /*codecs=*/false, spans, result);
    add_zero_metrics(result, codec_layer_metrics());

    // Direct execution floor, at the serving pool width and at 4.
    const auto floor_ms = [&] {
      std::vector<double> ms;
      for (int k = 0; k < (args.smoke ? 20 : 200); ++k) {
        const double t0 = now_s();
        const auto run = dataflow::run_functional(
            net, plan, fleet.inputs.front(), fleet.weights.front(), serving);
        ms.push_back((now_s() - t0) * 1e3);
        result.operation(run.outputs.back() == reference.back()
                             ? ""
                             : "direct LeNet-5 run differs");
      }
      return median(ms);
    };
    const double floor_1 = floor_ms();
    util::ThreadPool::set_global_threads(pool_width_for(4));
    const double floor_4 = floor_ms();
    util::ThreadPool::set_global_threads(1);

    const auto count = [](std::int64_t delta) {
      return static_cast<double>(delta);
    };
    result.metric("serve.queue_ms.p50", "ms", traced.p(&Phase::queue_ms, 50));
    result.metric("serve.queue_ms.p99", "ms", traced.p(&Phase::queue_ms, 99));
    result.metric("serve.service_ms.p50", "ms",
                  traced.p(&Phase::service_ms, 50));
    result.metric("serve.service_ms.p99", "ms",
                  traced.p(&Phase::service_ms, 99));
    result.metric("serve.submit_us.p50", "us", traced.p(&Phase::submit_us, 50));
    result.metric("serve.submit_us.p99", "us", traced.p(&Phase::submit_us, 99));
    result.metric("serve.exec_floor_ms", "ms", floor_1);
    result.metric("serve.hedges", "count",
                  count(after.hedges_issued - before.hedges_issued));
    result.metric("serve.hedge_wins", "count",
                  count(after.hedge_wins - before.hedge_wins));
    result.metric("serve.steals", "count", count(after.steals - before.steals));
    result.metric("serve.canaries", "count",
                  count(after.canaries - before.canaries));
    result.metric("serve.gen_lag_ms.p99", "ms", traced.p(&Phase::lag_ms, 99));
    result.metric("serve.gen_lag_ms.max", "ms", traced.p(&Phase::lag_ms, 100));
    result.metric("serve.latency_ms.p99", "ms",
                  traced.p(&Phase::latency_ms, 99));
    result.metric("util.pool.speedup", "ratio", floor_1 / floor_4);
    result.metric("trace.unattributed_frac", "ratio",
                  traced.unattributed_ms / traced.latency_sum_ms);
    const double untraced_p50 = untraced.p(&Phase::latency_ms, 50);
    result.metric("trace.overhead_frac", "ratio",
                  (traced.p(&Phase::latency_ms, 50) - untraced_p50) /
                      untraced_p50);
    info.key("untraced_p50_ms").value(untraced_p50);
    info.key("exec_floor_ms_width4").value(floor_4);
    result.extras.emplace_back("spans", spans.summary_json());
    if (!args.spans_path.empty()) spans.write(args.spans_path);
  } else {
    const Phase phase = measure(nullptr);
    refuse_if_late(phase);
    add_sim_metrics(result, planned.reports);
    result.metric("setup_s", "s", median(setup_s));
    result.metric("peak_rss_mib", "MiB", peak_rss_mib());
    result.metric("op_p50_ms", "ms", phase.p(&Phase::latency_ms, 50));
    info.key("requests").value(phase.requests);
    info.key("completed").value(phase.completed);
    info.key("serve_p50_ms").value(phase.p(&Phase::latency_ms, 50));
    info.key("serve_p99_ms").value(phase.p(&Phase::latency_ms, 99));
    info.key("gen_lag_ms_p99").value(phase.p(&Phase::lag_ms, 99));
    info.key("setup_reps").value(reps);
  }

  // Fleet conservation over every client request of the run.
  fleet.router->shutdown();
  const serve::RouterStats stats_end = fleet.router->stats();
  if (stats_end.submitted != submitted ||
      stats_end.submitted !=
          stats_end.completed + stats_end.shed + stats_end.failed ||
      stats_end.in_flight != 0) {
    result.failures.push_back(
        "fleet conservation violated: submitted " +
        std::to_string(stats_end.submitted) + " completed " +
        std::to_string(stats_end.completed) + " shed " +
        std::to_string(stats_end.shed) + " failed " +
        std::to_string(stats_end.failed));
  }
  info.key("router").begin_object();
  info.key("submitted").value(stats_end.submitted);
  info.key("completed").value(stats_end.completed);
  info.key("shed").value(stats_end.shed);
  info.key("failed").value(stats_end.failed);
  info.key("hedges").value(stats_end.hedges_issued);
  info.key("steals").value(stats_end.steals);
  info.key("canaries").value(stats_end.canaries);
  info.end_object();
  info.end_object();
  result.extras.emplace_back("info", info.str());
}

}  // namespace perfbench
