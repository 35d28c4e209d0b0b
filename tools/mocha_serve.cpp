// mocha_serve — open-loop load generator + SLO report for the sharded
// serving fleet (src/serve/).
//
// Replays a synthetic Poisson request trace against a ShardRouter fronting
// N shared-nothing ServeEngine shards hosting one or more models replicated
// across R-shard replica sets, optionally under an injected fault scenario
// (resource kills, codec bit flips, execution stalls), and prints what the
// fleet did about it: per-outcome counts, exact nearest-rank latency
// percentiles of the completed requests, hedging / failover / stealing /
// canary activity, per-shard health, and retry/fallback/breaker detail —
// then checks the fleet conservation law (submitted == completed + shed +
// failed, one terminal outcome per client request), the p99 of completed
// requests against --slo-ms, and completed/submitted against
// --availability-min.
//
// Fault schedule — one scenario, one place, one window:
//   what:  --faults FILE or --fault-kill FRAC, plus --codec-flip RATE and
//          --stall-ms N; with --kill-shard alone, a random 50 % kill;
//   where: shard --kill-shard K, or every shard without it;
//   when:  from the moment the --kill-after fraction of requests has been
//          submitted (default 0: before the first), cleared from the same
//          shards at --heal-after (default: never).
//
// Fleet experiments:
//   mocha_serve --shards 4 --requests 400 --rate 200
//   mocha_serve --shards 3 --replicas 2 --kill-shard 1 --kill-after 0.25
//               --codec-flip 1.0 --availability-min 0.999
//   mocha_serve --shards 4 --fault-kill 0.3 --heal-after 0.5
//   mocha_serve --shards 2 --kill-shard 1 --stall-ms 80 --hedge-ms 10
//               --hedge-compare
//
// Exit codes: 0 ok, 1 SLO missed, 2 usage, 3 internal error,
// 4 conservation violated, 6 hedge-compare showed no p99 improvement,
// 7 availability below --availability-min.
//
// SIGINT/SIGTERM stop admission, drain what is in flight, and still print
// the report: the runtime's graceful-shutdown path is the tool's.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cli.hpp"
#include "fault/model.hpp"
#include "nn/generate.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"
#include "serve/router.hpp"
#include "serve/signal.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/timing.hpp"

namespace {

struct Args {
  std::string network = "lenet5";
  int requests = 100;
  double rate = 50;  // arrivals per second (open loop)
  int shards = 1;
  int workers = 2;
  int queue_cap = 16;
  std::int64_t deadline_ms = 1000;
  int priority_levels = 3;
  int tenants = 2;
  double tenant_rate = 0;  // 0 = unmetered
  double tenant_burst = 4;
  int retries = 3;
  int breaker_failures = 3;
  std::int64_t breaker_cooldown_ms = 250;
  std::int64_t slo_ms = 0;  // 0 = report only, no SLO gate

  // Fleet behaviour.
  bool no_hedge = false;
  std::int64_t hedge_ms = 0;  // 0 = adaptive p99-derived delay
  bool no_steal = false;
  std::int64_t canary_period_ms = 25;
  bool hedge_compare = false;
  // Replication: 0 = router default (2, clamped to the fleet size).
  int replicas = 0;
  // Multi-model mix: the network is registered under this many names and
  // requests cycle across them.
  int models = 1;
  // Availability gate: completed/submitted below this fails with exit 7.
  // Negative = report only.
  double availability_min = -1.0;

  // Fault schedule (see the header): the scenario, the shard it strikes
  // (-1: every shard) and the fractions of the run it starts and ends at.
  mocha::cli::FaultFlags faults;
  double codec_flip = 0.0;
  std::int64_t stall_ms = 0;
  int kill_shard = -1;
  std::optional<double> kill_after;
  std::optional<double> heal_after;

  std::uint64_t seed = 1;
  bool json = false;
  bool metrics = false;
  std::string out_file;
  std::string trace_file;
};

Args parse(int argc, char** argv) {
  Args args;
  mocha::cli::Parser cli(
      argc, argv,
      " [--network alexnet|vgg16|lenet5|nin|mobilenet] [--requests N] "
      "[--rate RPS]\n"
      "       [--shards N] [--workers N] [--queue-cap N] [--deadline-ms N]\n"
      "       [--priority-levels N] [--tenants N] [--tenant-rate RPS] "
      "[--tenant-burst N]\n"
      "       [--retries N] [--breaker-failures N] "
      "[--breaker-cooldown-ms N] [--slo-ms N]\n"
      "       [--no-hedge] [--hedge-ms N] [--no-steal] "
      "[--canary-period-ms N] [--hedge-compare]\n"
      "       [--replicas R] [--models N] [--availability-min FRAC]\n"
      "       [--faults FILE] [--fault-kill FRAC] [--codec-flip RATE] "
      "[--fault-seed N]\n"
      "       [--stall-ms N] [--kill-shard K] [--kill-after FRAC] "
      "[--heal-after FRAC]\n"
      "       [--seed N] [--json] [--metrics] [--out FILE] [--trace FILE]\n"
      "       [--isa scalar|avx2|neon]\n");
  while (cli.next()) {
    const std::string& flag = cli.flag();
    if (flag == "--network") {
      args.network = cli.network();
    } else if (flag == "--requests") {
      args.requests = static_cast<int>(cli.int_value(1, 1 << 20));
    } else if (flag == "--rate") {
      args.rate = cli.double_value(1e-3, 1e6);
    } else if (flag == "--shards") {
      args.shards = static_cast<int>(cli.int_value(1, 64));
    } else if (flag == "--workers") {
      args.workers = static_cast<int>(cli.int_value(1, 256));
    } else if (flag == "--queue-cap") {
      args.queue_cap = static_cast<int>(cli.int_value(1, 1 << 20));
    } else if (flag == "--deadline-ms") {
      args.deadline_ms = cli.int_value(0, 1 << 30);
    } else if (flag == "--priority-levels") {
      args.priority_levels = static_cast<int>(cli.int_value(1, 100));
    } else if (flag == "--tenants") {
      args.tenants = static_cast<int>(cli.int_value(1, 1000));
    } else if (flag == "--tenant-rate") {
      args.tenant_rate = cli.double_value(0, 1e9);
    } else if (flag == "--tenant-burst") {
      args.tenant_burst = cli.double_value(1, 1e9);
    } else if (flag == "--retries") {
      args.retries = static_cast<int>(cli.int_value(1, 100));
    } else if (flag == "--breaker-failures") {
      args.breaker_failures = static_cast<int>(cli.int_value(1, 1000));
    } else if (flag == "--breaker-cooldown-ms") {
      args.breaker_cooldown_ms = cli.int_value(1, 1 << 30);
    } else if (flag == "--slo-ms") {
      args.slo_ms = cli.int_value(0, 1 << 30);
    } else if (flag == "--no-hedge") {
      args.no_hedge = true;
    } else if (flag == "--hedge-ms") {
      args.hedge_ms = cli.int_value(1, 60'000);
    } else if (flag == "--no-steal") {
      args.no_steal = true;
    } else if (flag == "--canary-period-ms") {
      args.canary_period_ms = cli.int_value(1, 60'000);
    } else if (flag == "--hedge-compare") {
      args.hedge_compare = true;
    } else if (flag == "--replicas") {
      args.replicas = static_cast<int>(cli.int_value(1, 64));
    } else if (flag == "--models") {
      args.models = static_cast<int>(cli.int_value(1, 64));
    } else if (flag == "--availability-min") {
      args.availability_min = cli.double_value(0.0, 1.0);
    } else if (flag == "--codec-flip") {
      args.codec_flip = cli.double_value(0.0, 1.0);
    } else if (flag == "--stall-ms") {
      args.stall_ms = cli.int_value(1, 60'000);
    } else if (flag == "--kill-shard") {
      args.kill_shard = static_cast<int>(cli.int_value(0, 63));
    } else if (flag == "--kill-after") {
      args.kill_after = cli.double_value(0.0, 1.0);
    } else if (flag == "--heal-after") {
      args.heal_after = cli.double_value(0.0, 1.0);
    } else if (flag == "--seed") {
      args.seed = static_cast<std::uint64_t>(
          cli.int_value(0, std::numeric_limits<std::int64_t>::max()));
    } else if (flag == "--json") {
      args.json = true;
    } else if (flag == "--metrics") {
      args.metrics = true;
    } else if (flag == "--out") {
      args.out_file = cli.value();
    } else if (flag == "--trace") {
      args.trace_file = cli.value();
    } else if (!args.faults.parse(cli)) {
      cli.common_flag();
    }
  }
  if (args.kill_shard >= args.shards) {
    cli.bad_arg("--kill-shard=" + std::to_string(args.kill_shard) +
                " out of range for --shards=" + std::to_string(args.shards));
  }
  const bool has_fault = args.faults.any() || args.codec_flip > 0.0 ||
                         args.stall_ms > 0 || args.kill_shard >= 0;
  if ((args.kill_after || args.heal_after) && !has_fault) {
    cli.bad_arg(std::string(args.kill_after ? "--kill-after" : "--heal-after") +
                " needs a fault to apply: --faults, --fault-kill, "
                "--codec-flip, --stall-ms or --kill-shard");
  }
  if (args.heal_after && *args.heal_after <= args.kill_after.value_or(0.0)) {
    cli.bad_arg("--heal-after must be > --kill-after");
  }
  if (args.hedge_compare && args.shards < 2) {
    cli.bad_arg("--hedge-compare needs --shards >= 2");
  }
  if (args.hedge_compare && args.no_hedge) {
    cli.bad_arg("--hedge-compare and --no-hedge are contradictory");
  }
  if (args.replicas > args.shards) {
    cli.bad_arg("--replicas=" + std::to_string(args.replicas) +
                " exceeds --shards=" + std::to_string(args.shards));
  }
  args.faults.resolve(cli);
  return args;
}

struct RunResult {
  mocha::serve::RouterStats stats;
  std::uint64_t p50 = 0;  // latency of completed requests, microseconds
  std::uint64_t p90 = 0;
  std::uint64_t p99 = 0;
  double wall_s = 0;
  double throughput_rps = 0;
  /// Effective replica-set size and completed/submitted for the run.
  int replicas = 0;
  double availability = 0;
  std::int64_t exec_attempts = 0;
  std::int64_t codec_retries = 0;
  std::int64_t breaker_trips = 0;
  std::int64_t breaker_recoveries = 0;
  std::int64_t quarantines = 0;
  bool interrupted = false;
  bool conserved = false;
};

/// The fault schedule's scenario: the --faults / --fault-kill one with
/// --codec-flip and --stall-ms on top; a random 50 % kill when --kill-shard
/// names a shard and nothing else does; otherwise no fault.
mocha::fault::FaultModel scheduled_fault(
    const Args& args, const mocha::fabric::FabricConfig& config) {
  using namespace mocha;
  fault::FaultModel faults = args.faults.scenario(config);
  if (args.codec_flip > 0.0) faults.codec_bit_flip_rate = args.codec_flip;
  if (args.stall_ms > 0) faults.exec_stall_ms = args.stall_ms;
  if (args.kill_shard >= 0 && !faults.any()) {
    faults = fault::FaultModel::random_scenario(config, 0.5, args.faults.seed);
  }
  return faults;
}

/// Exact nearest-rank percentile `p` in (0, 100] of sorted samples.
std::uint64_t nearest_rank(const std::vector<std::uint64_t>& sorted,
                           double p) {
  if (sorted.empty()) return 0;
  const double rank =
      std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const auto index = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

/// Replays the trace once against a fresh fleet. Deterministic from
/// args.seed: two calls with the same args submit identical requests at
/// identically drawn arrival gaps (the basis of --hedge-compare).
RunResult run_trace(const Args& args, const mocha::nn::Network& net,
                    const mocha::fabric::FabricConfig& config, bool hedge) {
  using namespace mocha;

  const int shards = args.shards;
  serve::RouterOptions options;
  options.shards = shards;
  options.engine.workers = args.workers;
  options.engine.queue_capacity = static_cast<std::size_t>(args.queue_cap);
  options.engine.default_deadline_ms =
      static_cast<std::uint64_t>(args.deadline_ms);
  options.engine.retry.max_attempts = args.retries;
  options.engine.breaker.failure_threshold = args.breaker_failures;
  options.engine.breaker.cooldown_ms =
      static_cast<std::uint64_t>(args.breaker_cooldown_ms);
  options.engine.breaker.latency_slo_ms =
      static_cast<std::uint64_t>(args.slo_ms);
  options.engine.tenant_rate_per_sec = args.tenant_rate;
  options.engine.tenant_burst = args.tenant_burst;
  options.hedge = hedge;
  if (args.hedge_ms > 0) {
    // Fixed hedge delay: pin the adaptive clamp to one value.
    options.hedge_floor_ms = static_cast<std::uint64_t>(args.hedge_ms);
    options.hedge_cap_ms = static_cast<std::uint64_t>(args.hedge_ms);
  }
  options.steal = !args.no_steal;
  options.canary_period_ms = static_cast<std::uint64_t>(args.canary_period_ms);
  if (args.replicas > 0) options.default_replicas = args.replicas;

  serve::ShardRouter router(options);
  util::Rng rng(args.seed);
  // Multi-model mix: the same network registered under `models` names, each
  // with its own weights and replica set; requests cycle across them.
  std::vector<std::string> model_names;
  for (int m = 0; m < args.models; ++m) {
    model_names.push_back(args.models == 1
                              ? args.network
                              : args.network + "-" + std::to_string(m));
    router.register_model(model_names.back(), net,
                          nn::random_weights(net, 0.2, rng), config);
  }

  // Fault schedule: the scenario strikes its shards when request kill_at
  // is about to be submitted and clears from them at request heal_at.
  const fault::FaultModel scenario = scheduled_fault(args, config);
  std::vector<int> struck;
  for (int i = 0; i < shards; ++i) {
    if (args.kill_shard < 0 || i == args.kill_shard) struck.push_back(i);
  }
  const std::string where = args.kill_shard >= 0
                                ? "shard " + std::to_string(args.kill_shard)
                                : "all " + std::to_string(shards) + " shards";
  const auto request_at = [&](std::optional<double> fraction) {
    return fraction && scenario.any()
               ? static_cast<int>(*fraction * args.requests)
               : -1;
  };
  const int kill_at = request_at(args.kill_after.value_or(0.0));
  const int heal_at = request_at(args.heal_after);

  // A handful of pre-generated inputs cycled across requests: arrival
  // timing, not input diversity, is what this tool exercises.
  std::vector<nn::ValueTensor> inputs;
  for (int i = 0; i < 8; ++i) {
    inputs.push_back(
        random_tensor(net.layers.front().input_shape(), 0.05, rng));
  }

  RunResult out;
  std::vector<serve::TicketPtr> tickets;
  tickets.reserve(static_cast<std::size_t>(args.requests));
  util::Rng arrivals(args.seed ^ 0x9e3779b97f4a7c15ull);
  const auto wall_start = std::chrono::steady_clock::now();
  for (int i = 0; i < args.requests; ++i) {
    if (serve::SignalDrain::requested()) {
      out.interrupted = true;
      break;
    }
    if (i == kill_at) {
      for (int shard : struck) router.set_shard_fault(shard, scenario);
      std::cerr << where << " killed after " << i
                << " requests: " << scenario.summary(config) << "\n";
    }
    if (i == heal_at) {
      for (int shard : struck) router.clear_shard_fault(shard);
      std::cerr << where << " healed after " << i << " requests\n";
    }
    serve::Request request;
    request.model = model_names[static_cast<std::size_t>(i) %
                                model_names.size()];
    request.tenant = "tenant-" + std::to_string(i % args.tenants);
    request.priority =
        static_cast<int>(arrivals.uniform_int(0, args.priority_levels - 1));
    request.input = inputs[static_cast<std::size_t>(i) % inputs.size()];
    tickets.push_back(router.submit(std::move(request)));

    // Open-loop Poisson arrivals: exponential inter-arrival times.
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        util::poisson_gap_ns(arrivals, args.rate)));
  }

  router.shutdown(/*drain=*/true);
  out.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - wall_start)
                   .count();

  // Every client ticket is terminal after shutdown; the percentiles are
  // exact over the completed requests' latencies.
  std::vector<std::uint64_t> latency_us;
  for (const serve::TicketPtr& ticket : tickets) {
    const serve::Response& resp = ticket->wait();
    out.exec_attempts += resp.attempts;
    out.codec_retries += resp.codec_retries;
    if (resp.outcome == serve::Outcome::Completed) {
      latency_us.push_back(resp.latency_ns / 1000);
    }
  }
  std::sort(latency_us.begin(), latency_us.end());
  out.p50 = nearest_rank(latency_us, 50);
  out.p90 = nearest_rank(latency_us, 90);
  out.p99 = nearest_rank(latency_us, 99);

  out.stats = router.stats();
  out.throughput_rps =
      out.wall_s > 0 ? static_cast<double>(out.stats.completed) / out.wall_s
                     : 0.0;
  for (int i = 0; i < shards; ++i) {
    for (const std::string& name : model_names) {
      out.breaker_trips += router.shard_engine(i).breaker_trips(name);
      out.breaker_recoveries += router.shard_engine(i).breaker_recoveries(name);
    }
  }
  for (const serve::ShardSnapshot& snap : out.stats.shards) {
    out.quarantines += snap.quarantines;
  }
  out.conserved = out.stats.submitted == out.stats.completed +
                                             out.stats.shed +
                                             out.stats.failed &&
                  out.stats.in_flight == 0;
  out.replicas = std::min(options.default_replicas, shards);
  out.availability =
      out.stats.submitted > 0
          ? static_cast<double>(out.stats.completed) /
                static_cast<double>(out.stats.submitted)
          : 1.0;
  return out;
}

/// --hedge-compare's verdict: the unhedged replay's p99 and whether the
/// hedged run beat it.
struct HedgeCompare {
  std::uint64_t unhedged_p99 = 0;
  bool improved = false;
};

/// The mocha.serve.v5 report.
std::string fleet_json(const Args& args, const RunResult& r, bool slo_ok,
                       const std::optional<HedgeCompare>& compare) {
  using namespace mocha;
  util::JsonWriter json;
  json.begin_object();
  json.key("schema").value("mocha.serve.v5");
  json.key("network").value(args.network);
  json.key("shards").value(args.shards);
  json.key("replicas").value(r.replicas);
  json.key("models").value(args.models);
  json.key("requests").value(args.requests);
  json.key("rate_rps").value(args.rate);
  json.key("interrupted").value(r.interrupted);
  json.key("submitted").value(r.stats.submitted);
  json.key("completed").value(r.stats.completed);
  json.key("shed").value(r.stats.shed);
  json.key("failed").value(r.stats.failed);
  json.key("outcomes").begin_object();
  for (int i = 1; i < 8; ++i) {
    const auto outcome = static_cast<serve::Outcome>(i);
    json.key(serve::outcome_name(outcome))
        .value(r.stats.outcome_count(outcome));
  }
  json.end_object();
  json.key("hedging").begin_object();
  json.key("issued").value(r.stats.hedges_issued);
  json.key("wins").value(r.stats.hedge_wins);
  json.key("failovers").value(r.stats.failovers);
  json.key("delay_us").value(r.stats.hedge_delay_ns / 1000);
  json.end_object();
  json.key("steals").value(r.stats.steals);
  json.key("canaries").value(r.stats.canaries);
  json.key("probes").value(r.stats.probes);
  json.key("retries").value(r.exec_attempts);
  json.key("codec_retries").value(r.codec_retries);
  json.key("breaker_trips").value(r.breaker_trips);
  json.key("breaker_recoveries").value(r.breaker_recoveries);
  json.key("latency_us").begin_object();
  json.key("p50").value(r.p50);
  json.key("p90").value(r.p90);
  json.key("p99").value(r.p99);
  json.end_object();
  json.key("throughput_rps").value(r.throughput_rps);
  json.key("slo_ms").value(args.slo_ms);
  json.key("availability").value(r.availability);
  json.key("availability_min").value(args.availability_min);
  json.key("conserved").value(r.conserved);
  json.key("slo_ok").value(slo_ok);
  json.key("shard_detail").begin_array();
  for (const serve::ShardSnapshot& shard : r.stats.shards) {
    json.begin_object();
    json.key("shard").value(shard.shard);
    json.key("state").value(serve::health_state_name(shard.state));
    json.key("submitted").value(shard.stats.submitted);
    json.key("completed").value(shard.stats.completed);
    json.key("shed").value(shard.stats.shed);
    json.key("failed").value(shard.stats.failed);
    json.key("stolen_in").value(shard.stats.stolen_in);
    json.key("stolen_out").value(shard.stats.stolen_out);
    json.key("quarantines").value(shard.quarantines);
    json.key("probes_started").value(shard.probes_started);
    json.key("probes_abandoned").value(shard.probes_abandoned);
    json.end_object();
  }
  json.end_array();
  if (compare) {
    json.key("hedge_compare").begin_object();
    json.key("hedged_p99_us").value(r.p99);
    json.key("unhedged_p99_us").value(compare->unhedged_p99);
    json.key("improved").value(compare->improved);
    json.end_object();
  }
  json.end_object();
  return json.str();
}

void print_report(const Args& args, const RunResult& r, bool slo_ok) {
  using namespace mocha;
  std::cout << "serve fleet report: " << args.network << " x" << args.models
            << ", " << args.shards << " shard"
            << (args.shards == 1 ? "" : "s")
            << ", R=" << r.replicas << ", " << r.stats.submitted
            << " submitted"
            << (r.interrupted ? " (interrupted, drained)" : "") << "\n"
            << "  completed " << r.stats.completed << "  shed "
            << r.stats.shed << "  failed " << r.stats.failed
            << "\n  outcomes:";
  for (int i = 1; i < 8; ++i) {
    const auto outcome = static_cast<serve::Outcome>(i);
    if (r.stats.outcome_count(outcome) == 0) continue;
    std::cout << " " << serve::outcome_name(outcome) << "="
              << r.stats.outcome_count(outcome);
  }
  std::cout << "\n  hedging: issued " << r.stats.hedges_issued << ", wins "
            << r.stats.hedge_wins << ", failovers " << r.stats.failovers
            << ", delay " << r.stats.hedge_delay_ns / 1000 << " us\n"
            << "  steals " << r.stats.steals << ", canaries "
            << r.stats.canaries << ", probes " << r.stats.probes
            << ", breaker trips " << r.breaker_trips << " (recoveries "
            << r.breaker_recoveries << ")\n";
  for (const serve::ShardSnapshot& s : r.stats.shards) {
    std::cout << "  shard " << s.shard << ": "
              << serve::health_state_name(s.state) << ", submitted "
              << s.stats.submitted << ", completed " << s.stats.completed
              << ", shed " << s.stats.shed << ", failed " << s.stats.failed
              << ", stolen " << s.stats.stolen_in << "/"
              << s.stats.stolen_out << " in/out, quarantines "
              << s.quarantines << "\n";
  }
  std::cout << "  latency (completed): p50 " << r.p50 << " us, p90 "
            << r.p90 << " us, p99 " << r.p99 << " us; throughput "
            << r.throughput_rps << " rps\n"
            << "  availability " << r.availability << "\n"
            << "  conservation: " << (r.conserved ? "ok" : "VIOLATED")
            << "\n";
  if (args.slo_ms > 0) {
    std::cout << "  SLO p99 <= " << args.slo_ms
              << " ms: " << (slo_ok ? "met" : "MISSED") << "\n";
  }
  if (args.availability_min >= 0) {
    std::cout << "  availability >= " << args.availability_min << ": "
              << (r.availability >= args.availability_min ? "met" : "MISSED")
              << "\n";
  }
}

int run(const Args& args) {
  using namespace mocha;

  const nn::Network net = *cli::make_network(args.network);

  if (args.metrics) obs::MetricsRegistry::global().set_enabled(true);
  std::unique_ptr<obs::TraceSession> trace;
  if (!args.trace_file.empty()) {
    trace = std::make_unique<obs::TraceSession>(args.trace_file);
  }

  const fabric::FabricConfig config = fabric::mocha_default_config();

  // Ctrl-C / SIGTERM: stop admitting, drain what's queued, still report.
  serve::SignalDrain drain;

  RunResult r = run_trace(args, net, config, !args.no_hedge);
  const bool slo_ok =
      args.slo_ms == 0 ||
      r.p99 <= static_cast<std::uint64_t>(args.slo_ms) * 1000;

  // --hedge-compare: replay the identical trace with hedging disabled and
  // demand that hedging improved the measured p99.
  std::optional<HedgeCompare> compare;
  if (args.hedge_compare) {
    std::cerr << "hedge-compare: replaying with hedging disabled...\n";
    const RunResult base = run_trace(args, net, config, false);
    compare = HedgeCompare{base.p99,
                           r.conserved && base.conserved && r.p99 < base.p99};
    std::cout << "hedge-compare: hedged p99 " << r.p99 << " us vs unhedged "
              << base.p99 << " us -> "
              << (compare->improved ? "improved" : "NO IMPROVEMENT") << "\n";
    if (!base.conserved) {
      std::cerr << "hedge-compare: unhedged run violated conservation\n";
      return 4;
    }
  }

  const std::string json = fleet_json(args, r, slo_ok, compare);

  if (!args.out_file.empty()) {
    if (!obs::write_file_atomic(args.out_file, json + "\n")) {
      std::cerr << "error: cannot write " << args.out_file << "\n";
      return 3;
    }
  }
  if (trace) trace.reset();  // flush before reporting

  if (args.json) {
    std::cout << json << "\n";
  } else {
    print_report(args, r, slo_ok);
  }
  if (args.metrics) {
    std::cout << "\nmetrics: "
              << obs::MetricsRegistry::global().snapshot().to_json() << "\n";
  }

  if (!r.conserved) return 4;
  if (args.availability_min >= 0 && r.availability < args.availability_min) {
    std::cerr << "availability gate: " << r.availability << " < "
              << args.availability_min << "\n";
    return 7;
  }
  if (compare && !compare->improved) return 6;
  return slo_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return run(args);
  } catch (const mocha::CheckFailure& e) {
    std::cerr << "mocha_serve: " << e.what() << "\n";
    return 3;
  }
}
