// mocha_sim — command-line front end for the simulator (--help lists every
// flag).
//
// Examples:
//   mocha_sim --network alexnet                         # MOCHA, defaults
//   mocha_sim --network vgg16 --accelerator nextbest    # best fixed baseline
//   mocha_sim --network alexnet --batch 8 --json        # machine-readable
//   mocha_sim --network alexnet --trace trace.json      # chrome://tracing
//   mocha_sim --network alexnet --fault-kill 0.25       # degraded fabric
//   mocha_sim --network vgg16 --critpath-out cp.json    # critical paths
//
// MOCHA and the single-strategy baselines (tiling, merge, parallel) run one
// path: build the accelerator, plan once, simulate the plan through
// run_with_plan. --plan, --dot and --critpath-out read that plan and run.
// nextbest instead compares the three baselines on their default
// substrates at batch 1, so the flags that change the substrate, the batch
// or that inspect a single plan are refused with it.
//
// --critpath-out analyzes every fusion group as it executes
// (obs/critpath.hpp) and writes a mocha.critpath.v1 report: critical
// chains, CPM bounds, per-resource slack, the --top-k bottleneck layers and
// task kinds, and each --what-if scenario (a default sweep without one)
// answered both analytically, as a [predicted, upper_bound] band, and by an
// engine replay.
//
// Exit codes: 0 ok, 1 scratchpad overflow (text mode), 2 bad arguments or
// an output file that cannot be written, 3 internal invariant failure, 5 a
// what-if replay left its analytic band (model and engine disagree; the
// documented tolerance admits no slack).
#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "baseline/baselines.hpp"
#include "cli.hpp"
#include "core/accelerator.hpp"
#include "core/morph.hpp"
#include "core/report_json.hpp"
#include "fault/model.hpp"
#include "obs/critpath.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"
#include "serve/signal.hpp"
#include "sim/dot.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

using mocha::sim::Cycle;

struct Args {
  std::string network = "alexnet";
  std::string accelerator = "mocha";
  std::string objective = "edp";
  mocha::nn::Index batch = 1;
  std::int64_t sram_kib = 0;  // 0 = default
  int pe = 0;                 // 0 = default
  double clock_mhz = 0;       // 0 = default
  bool no_compression = false;
  bool huffman = false;
  bool json = false;
  bool show_plan = false;
  bool metrics = false;   // collect and print a MetricsRegistry snapshot
  bool trace_flows = false;  // dependence-edge flow events in the trace
  std::string dot_file;   // export the first group's schedule as Graphviz
  std::string trace_file; // write a Chrome trace-event JSON of the run
  std::string faults_file;  // JSON fault scenario (fault/model.hpp)
  double fault_kill = 0.0;  // random scenario killing this fraction
  std::uint64_t fault_seed = 42;
  std::string critpath_out;           // mocha.critpath.v1 report destination
  std::vector<mocha::obs::WhatIf> what_ifs;  // empty = the default sweep
  int top_k = 5;                      // bottleneck list length
};

Args parse(int argc, char** argv) {
  Args args;
  mocha::cli::Parser cli(
      argc, argv,
      " [--network alexnet|vgg16|lenet5|nin|mobilenet] [--accelerator "
      "mocha|tiling|merge|parallel|nextbest]\n"
      "       [--objective edp|cycles|energy] [--batch N] [--sram-kib N] "
      "[--pe N] [--clock-mhz N]\n"
      "       [--no-compression] [--huffman] [--json] [--plan] "
      "[--dot FILE]\n"
      "       [--trace FILE] [--trace-flows] [--metrics] "
      "[--isa scalar|avx2|neon]\n"
      "       [--critpath-out FILE] [--top-k N]\n"
      "       [--what-if unbounded|RES+N|RES*K|KIND/F]...\n"
      "       [--faults FILE] [--fault-kill FRAC] [--fault-seed N]\n");
  std::string report_only_flag;  // a flag that needs --critpath-out
  std::string single_run_flag;   // shapes the one run nextbest does not make
  while (cli.next()) {
    const std::string& flag = cli.flag();
    if (flag == "--batch" || flag == "--sram-kib" || flag == "--pe" ||
        flag == "--clock-mhz" || flag == "--faults" || flag == "--fault-kill" ||
        flag == "--plan" || flag == "--dot" || flag == "--critpath-out") {
      single_run_flag = flag;
    }
    if (flag == "--network") {
      args.network = cli.network();
    } else if (flag == "--accelerator") {
      args.accelerator = cli.value();
      if (args.accelerator != "mocha" && args.accelerator != "tiling" &&
          args.accelerator != "merge" && args.accelerator != "parallel" &&
          args.accelerator != "nextbest") {
        cli.bad_arg("unknown accelerator: " + args.accelerator);
      }
    } else if (flag == "--objective") {
      args.objective = cli.value();
    } else if (flag == "--batch") {
      args.batch = cli.int_value(1, 1 << 20);
    } else if (flag == "--sram-kib") {
      args.sram_kib = cli.int_value(1, 1 << 24);
    } else if (flag == "--pe") {
      args.pe = static_cast<int>(cli.int_value(1, 4096));
    } else if (flag == "--clock-mhz") {
      args.clock_mhz = cli.double_value(1e-3, 1e6);
    } else if (flag == "--no-compression") {
      args.no_compression = true;
    } else if (flag == "--huffman") {
      args.huffman = true;
    } else if (flag == "--json") {
      args.json = true;
    } else if (flag == "--plan") {
      args.show_plan = true;
    } else if (flag == "--dot") {
      args.dot_file = cli.value();
    } else if (flag == "--trace") {
      args.trace_file = cli.value();
    } else if (flag == "--metrics") {
      args.metrics = true;
    } else if (flag == "--trace-flows") {
      args.trace_flows = true;
    } else if (flag == "--critpath-out") {
      args.critpath_out = cli.value();
    } else if (flag == "--what-if") {
      // Parse now so a typo is a CLI error, not a mid-run abort after
      // minutes of planning.
      try {
        args.what_ifs.push_back(mocha::obs::parse_what_if(cli.value()));
      } catch (const mocha::CheckFailure& e) {
        cli.bad_arg(e.what());
      }
      report_only_flag = flag;
    } else if (flag == "--top-k") {
      args.top_k = static_cast<int>(cli.int_value(1, 100));
      report_only_flag = flag;
    } else if (flag == "--faults") {
      args.faults_file = cli.value();
    } else if (flag == "--fault-kill") {
      args.fault_kill = cli.double_value(0.0, 0.95);
    } else if (flag == "--fault-seed") {
      args.fault_seed = static_cast<std::uint64_t>(
          cli.int_value(0, std::numeric_limits<std::int64_t>::max()));
    } else {
      cli.common_flag();
    }
  }
  if (!args.faults_file.empty() && args.fault_kill > 0.0) {
    cli.bad_arg("--faults and --fault-kill are mutually exclusive");
  }
  if (args.trace_flows && args.trace_file.empty()) {
    cli.bad_arg("--trace-flows requires --trace");
  }
  if (!single_run_flag.empty() && args.accelerator == "nextbest") {
    cli.bad_arg(single_run_flag + " does not apply to --accelerator nextbest");
  }
  if (!report_only_flag.empty() && args.critpath_out.empty()) {
    cli.bad_arg(report_only_flag + " requires --critpath-out");
  }
  return args;
}

/// What --critpath-out keeps of one executed fusion group.
struct CritGroup {
  /// One step of the schedule-critical chain and the layer it counts for.
  struct Step {
    mocha::sim::TaskKind kind;
    std::string label;
    std::size_t layer;
    Cycle start;
    Cycle finish;
  };

  std::int64_t reconfig_cycles = 0;
  mocha::obs::CritPathReport report;
  std::vector<Step> steps;
  std::vector<mocha::obs::WhatIfOutcome> outcomes;  // one per what-if
};

/// --critpath-out's view of the run, analyzed group by group from
/// run_with_plan's observer.
struct CritPath {
  std::vector<mocha::obs::WhatIf> what_ifs;
  std::vector<CritGroup> groups;
  std::vector<Cycle> layer_critical;  // critical-chain cycles per layer

  void add(const mocha::dataflow::BuiltSchedule& built,
           const mocha::sim::RunResult& run, std::int64_t reconfig_cycles) {
    CritGroup group;
    group.reconfig_cycles = reconfig_cycles;
    group.report = mocha::obs::analyze_critical_path(built.graph, run);
    for (const mocha::obs::CritStep& step : group.report.path) {
      const mocha::sim::Task& task = built.graph.task(step.task);
      const std::int32_t layer = task.tag.layer;
      MOCHA_CHECK(layer >= 0 &&
                      static_cast<std::size_t>(layer) < layer_critical.size(),
                  "critical task '" << mocha::sim::task_label(task)
                                    << "' has no layer");
      layer_critical[static_cast<std::size_t>(layer)] +=
          task.finish - task.start;
      group.steps.push_back({task.kind, mocha::sim::task_label(task),
                             static_cast<std::size_t>(layer), task.start,
                             task.finish});
    }
    for (const mocha::obs::WhatIf& spec : what_ifs) {
      group.outcomes.push_back(
          mocha::obs::evaluate_what_if(built.graph, run, spec));
    }
    groups.push_back(std::move(group));
  }
};

/// Indices with a nonzero `total`, stably sorted by `cycles` descending.
std::vector<std::size_t> ranked(const std::vector<Cycle>& cycles,
                                const std::vector<Cycle>& total) {
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    if (total[i] > 0) order.push_back(i);
  }
  std::stable_sort(
      order.begin(), order.end(),
      [&](std::size_t a, std::size_t b) { return cycles[a] > cycles[b]; });
  return order;
}

/// Writes the --critpath-out report (mocha.critpath.v1), summarized on
/// stderr. Returns the exit status: 2 when the file cannot be written, 5
/// when a what-if replay escaped its analytic band, else 0.
int write_critpath_report(const Args& args, const CritPath& crit,
                          const mocha::nn::Network& net,
                          const mocha::core::RunReport& run,
                          const mocha::obs::RunManifest& manifest) {
  using namespace mocha;
  const std::vector<Cycle>& layer_critical = crit.layer_critical;
  const auto top_k = static_cast<std::size_t>(args.top_k);
  bool diverged = false;

  // Each what-if summed over groups: group makespans add up (groups run
  // back to back) and the fixed per-group reconfig charge rides along —
  // scaled exactly for a reconfig speedup scenario, unchanged otherwise.
  std::vector<obs::WhatIfOutcome> totals;
  for (std::size_t s = 0; s < crit.what_ifs.size(); ++s) {
    const obs::WhatIf& spec = crit.what_ifs[s];
    obs::WhatIfOutcome total;
    total.name = spec.name;
    total.applicable = false;
    total.exact = total.within_bounds = true;
    for (std::size_t g = 0; g < crit.groups.size(); ++g) {
      const obs::WhatIfOutcome& o = crit.groups[g].outcomes[s];
      const std::int64_t reconfig = crit.groups[g].reconfig_cycles;
      const Cycle scaled =
          spec.kind == obs::WhatIf::Kind::Speed &&
                  spec.task_kind == sim::TaskKind::Reconfig && reconfig > 0
              ? static_cast<Cycle>(std::ceil(static_cast<double>(reconfig) /
                                             spec.speed_factor))
              : static_cast<Cycle>(reconfig);
      total.baseline += o.baseline + static_cast<Cycle>(reconfig);
      total.predicted += o.predicted + scaled;
      total.upper_bound += o.upper_bound + scaled;
      total.replayed += o.replayed + scaled;
      total.applicable = total.applicable || o.applicable ||
                         scaled != static_cast<Cycle>(reconfig);
      total.exact = total.exact && o.exact;
      total.within_bounds = total.within_bounds && o.within_bounds;
      if (!o.within_bounds) {
        std::cerr << "mocha_sim: what-if '" << o.name << "' on group " << g
                  << " (" << run.groups[g].label << "): replayed "
                  << o.replayed << " outside analytic band [" << o.predicted
                  << ", " << o.upper_bound << "]\n";
        diverged = true;
      }
    }
    totals.push_back(total);
  }

  std::int64_t total_reconfig = 0;
  constexpr std::size_t kKinds =
      static_cast<std::size_t>(sim::TaskKind::Barrier) + 1;
  std::vector<Cycle> kind_critical(kKinds, 0);
  std::vector<Cycle> kind_total(kKinds, 0);
  for (const CritGroup& group : crit.groups) {
    total_reconfig += group.reconfig_cycles;
    for (const obs::CritKind& kind : group.report.kinds) {
      kind_critical[static_cast<std::size_t>(kind.kind)] +=
          kind.critical_cycles;
      kind_total[static_cast<std::size_t>(kind.kind)] += kind.total_cycles;
    }
  }

  util::JsonWriter json;
  json.begin_object();
  json.key("schema").value("mocha.critpath.v1");
  json.key("manifest");
  manifest.write_json(json);
  json.key("total_cycles").value(run.total_cycles);
  json.key("reconfig_cycles").value(total_reconfig);
  json.key("groups").begin_array();
  for (std::size_t g = 0; g < crit.groups.size(); ++g) {
    const CritGroup& group = crit.groups[g];
    const obs::CritPathReport& cp = group.report;
    json.begin_object();
    json.key("group").value(static_cast<std::int64_t>(g));
    json.key("label").value(run.groups[g].label);
    json.key("first_layer")
        .value(static_cast<std::int64_t>(run.groups[g].first_layer));
    json.key("last_layer")
        .value(static_cast<std::int64_t>(run.groups[g].last_layer));
    json.key("makespan").value(cp.makespan);
    json.key("reconfig_cycles").value(group.reconfig_cycles);
    json.key("dep_critical_cycles").value(cp.dep_critical_cycles);
    json.key("contention_gap").value(cp.contention_gap);
    json.key("queue_entered_cycles").value(cp.queue_entered_cycles);
    json.key("path_complete").value(cp.path_complete);
    json.key("path").begin_array();
    for (std::size_t i = 0; i < cp.path.size(); ++i) {
      const CritGroup::Step& step = group.steps[i];
      json.begin_object();
      json.key("task").value(cp.path[i].task);
      json.key("entered_by")
          .value(obs::crit_edge_name(cp.path[i].entered_by));
      json.key("kind").value(sim::task_kind_name(step.kind));
      json.key("label").value(step.label);
      json.key("layer").value(static_cast<std::int64_t>(step.layer));
      json.key("start").value(step.start);
      json.key("finish").value(step.finish);
      json.end_object();
    }
    json.end_array();
    json.key("kinds").begin_array();
    for (const obs::CritKind& kind : cp.kinds) {
      json.begin_object();
      json.key("kind").value(sim::task_kind_name(kind.kind));
      json.key("critical_cycles").value(kind.critical_cycles);
      json.key("total_cycles").value(kind.total_cycles);
      json.end_object();
    }
    json.end_array();
    json.key("resources").begin_array();
    for (const obs::CritResource& res : cp.resources) {
      json.begin_object();
      json.key("name").value(res.name);
      json.key("capacity").value(res.capacity);
      json.key("busy_cycles").value(res.busy_cycles);
      json.key("critical_cycles").value(res.critical_cycles);
      json.key("queue_wait_cycles").value(res.queue_wait_cycles);
      json.key("min_slack").value(res.min_slack);
      json.key("mean_slack").value(res.mean_slack);
      json.key("utilization").value(res.utilization);
      json.key("bound_tasks").value(res.bound_tasks);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();

  // Top-k bottleneck layers by critical-chain cycles, then task kinds.
  Cycle critical_sum = 0;
  for (Cycle c : layer_critical) critical_sum += c;
  const std::vector<std::size_t> layers =
      ranked(layer_critical, layer_critical);
  json.key("bottleneck_layers").begin_array();
  for (std::size_t r = 0; r < layers.size() && r < top_k; ++r) {
    json.begin_object();
    json.key("layer").value(static_cast<std::int64_t>(layers[r]));
    json.key("name").value(net.layers[layers[r]].name);
    json.key("critical_cycles").value(layer_critical[layers[r]]);
    json.key("share").value(
        critical_sum == 0 ? 0.0
                          : static_cast<double>(layer_critical[layers[r]]) /
                                static_cast<double>(critical_sum));
    json.end_object();
  }
  json.end_array();
  const std::vector<std::size_t> kinds = ranked(kind_critical, kind_total);
  json.key("bottleneck_kinds").begin_array();
  for (std::size_t r = 0; r < kinds.size() && r < top_k; ++r) {
    json.begin_object();
    json.key("kind").value(
        sim::task_kind_name(static_cast<sim::TaskKind>(kinds[r])));
    json.key("critical_cycles").value(kind_critical[kinds[r]]);
    json.key("total_cycles").value(kind_total[kinds[r]]);
    json.end_object();
  }
  json.end_array();

  json.key("what_if").begin_array();
  for (std::size_t s = 0; s < totals.size(); ++s) {
    const obs::WhatIfOutcome& total = totals[s];
    const auto speedup = [&](Cycle cycles) {
      return cycles == 0 ? 1.0
                         : static_cast<double>(total.baseline) /
                               static_cast<double>(cycles);
    };
    json.begin_object();
    json.key("name").value(total.name);
    json.key("applicable").value(total.applicable);
    json.key("exact").value(total.exact);
    json.key("within_bounds").value(total.within_bounds);
    json.key("baseline_cycles").value(total.baseline);
    json.key("predicted_cycles").value(total.predicted);
    json.key("upper_bound_cycles").value(total.upper_bound);
    json.key("replayed_cycles").value(total.replayed);
    json.key("predicted_speedup").value(speedup(total.predicted));
    json.key("replayed_speedup").value(speedup(total.replayed));
    json.key("groups").begin_array();
    for (std::size_t g = 0; g < crit.groups.size(); ++g) {
      const obs::WhatIfOutcome& o = crit.groups[g].outcomes[s];
      json.begin_object();
      json.key("group").value(static_cast<std::int64_t>(g));
      json.key("applicable").value(o.applicable);
      json.key("exact").value(o.exact);
      json.key("within_bounds").value(o.within_bounds);
      json.key("baseline").value(o.baseline);
      json.key("predicted").value(o.predicted);
      json.key("upper_bound").value(o.upper_bound);
      json.key("replayed").value(o.replayed);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  if (!obs::write_file_atomic(args.critpath_out, json.str() + "\n")) {
    std::cerr << "error: cannot write " << args.critpath_out << "\n";
    return 2;
  }

  std::cerr << args.network << ": " << run.total_cycles << " cycles across "
            << crit.groups.size() << " groups";
  if (!layers.empty()) {
    std::cerr << "; top bottleneck layer " << net.layers[layers[0]].name
              << " (" << layer_critical[layers[0]] << " critical cycles)";
  }
  std::cerr << "\n";
  for (const obs::WhatIfOutcome& total : totals) {
    std::cerr << "  what-if " << total.name << ": predicted ["
              << total.predicted << ", " << total.upper_bound
              << "], replayed " << total.replayed
              << (total.exact ? " (exact)" : "")
              << (total.within_bounds ? "" : "  ** OUT OF BOUNDS **")
              << "\n";
  }
  std::cerr << "wrote " << args.critpath_out << "\n";

  if (diverged) {
    std::cerr << "mocha_sim: analytic prediction and engine replay "
                 "disagree (see above)\n";
    return 5;
  }
  return 0;
}

int run(const Args& args) {
  using namespace mocha;

  const nn::Network net = *cli::make_network(args.network);

  core::Objective objective = core::Objective::EnergyDelayProduct;
  if (args.objective == "cycles") {
    objective = core::Objective::Cycles;
  } else if (args.objective == "energy") {
    objective = core::Objective::Energy;
  } else if (args.objective != "edp") {
    std::cerr << "unknown objective: " << args.objective << "\n";
    return 2;
  }

  // Fault spec, if any — parsed once; the random scenario is drawn per
  // config inside customize() so it matches whichever base geometry the
  // selected accelerator uses.
  const bool inject = !args.faults_file.empty() || args.fault_kill > 0.0;
  const fault::FaultModel file_faults =
      args.faults_file.empty() ? fault::FaultModel{}
                               : cli::load_faults(args.faults_file);

  std::string fault_summary;  // for the manifest; set by customize()
  auto customize = [&](fabric::FabricConfig config) {
    if (args.sram_kib > 0) config.sram_bytes = args.sram_kib * 1024;
    if (args.pe > 0) config.pe_rows = config.pe_cols = args.pe;
    if (args.clock_mhz > 0) config.clock_ghz = args.clock_mhz / 1000.0;
    if (inject) {
      const fault::FaultModel faults =
          args.faults_file.empty()
              ? fault::FaultModel::random_scenario(config, args.fault_kill,
                                                   args.fault_seed)
              : file_faults;
      fault_summary = faults.summary(config);
      if (args.metrics) fault::record_metrics(config, faults);
      config = fault::degraded_config(config, faults);
    }
    return config;
  };
  // MOCHA or one fixed-strategy baseline, on its base fabric customized once.
  const auto make_accelerator = [&] {
    for (baseline::Strategy strategy : baseline::kAllStrategies) {
      if (args.accelerator == baseline::strategy_name(strategy)) {
        return baseline::make_baseline_accelerator(
            strategy, customize(fabric::baseline_config(args.accelerator)),
            model::default_tech(), objective);
      }
    }
    core::MorphOptions options;
    options.objective = objective;
    options.allow_compression = !args.no_compression;
    options.allow_huffman = args.huffman;
    return core::Accelerator(
        customize(fabric::mocha_default_config()), model::default_tech(),
        std::make_shared<core::MorphController>(model::default_tech(),
                                                options));
  };

  if (args.metrics) obs::MetricsRegistry::global().set_enabled(true);
  // The session flushes to disk when it goes out of scope, after the run.
  std::unique_ptr<obs::TraceSession> trace;
  if (!args.trace_file.empty()) {
    trace = std::make_unique<obs::TraceSession>(args.trace_file);
    // Dependence-edge flow events are opt-in: they roughly double the event
    // count and older trace consumers may not expect ph:"s"/"f" records.
    if (args.trace_flows) trace->set_sim_flows(true);
  }

  // Ctrl-C / SIGTERM mid-simulation: flush the trace collected so far (the
  // write is atomic tmp+rename, so an interrupted run still leaves a
  // parseable document) and exit cleanly. A second signal force-kills.
  // The mutex closes a shutdown race: a signal landing while the main
  // thread is already inside the end-of-run trace.reset() must not _Exit
  // until that final write has hit disk.
  std::mutex trace_mu;
  serve::SignalDrain drain([&trace, &trace_mu] {
    std::lock_guard<std::mutex> lock(trace_mu);
    if (trace) trace->flush();
    std::cerr << "mocha_sim: interrupted; partial trace flushed\n";
  });

  CritPath crit;
  core::RunReport report;
  fabric::FabricConfig used_config;  // what the run used, for the manifest
  if (args.accelerator == "nextbest") {
    baseline::NextBest best =
        baseline::next_best(net, model::default_tech(), objective);
    used_config =
        fabric::baseline_config(baseline::strategy_name(best.strategy));
    report = std::move(best.report);
  } else {
    // One run: the fabric customized once, one plan, one run_with_plan
    // whose observer feeds --dot and --critpath-out.
    const core::Accelerator acc = make_accelerator();
    const auto stats = core::assumed_stats(net, nn::SparsityProfile{});
    const dataflow::NetworkPlan plan = acc.plan(net, stats, args.batch);
    if (args.show_plan) {
      for (std::size_t i = 0; i < plan.layers.size(); ++i) {
        std::cerr << net.layers[i].name << ": " << plan.layers[i].summary()
                  << "\n";
      }
    }
    const bool critpath_mode = !args.critpath_out.empty();
    if (critpath_mode) {
      crit.layer_critical.assign(net.layers.size(), 0);
      crit.what_ifs = args.what_ifs;
      if (crit.what_ifs.empty()) {
        // The canonical questions: contention-free headroom, one more DMA
        // channel, doubled codec bandwidth, doubled compute parallelism,
        // and a 2x faster config bus.
        for (const char* spec : {"unbounded", "dram_channels+1",
                                 "codec_units*2", "pe_groups*2",
                                 "reconfig/2"}) {
          crit.what_ifs.push_back(obs::parse_what_if(spec));
        }
      }
    }
    const auto groups = plan.fusion_groups();
    std::string dot;  // the first group's executed task graph, for --dot
    std::size_t dot_tasks = 0;
    core::Accelerator::GroupObserver observer;
    if (critpath_mode || !args.dot_file.empty()) {
      observer = [&](std::size_t gi, const dataflow::BuiltSchedule& built,
                     const sim::RunResult& run) {
        if (gi == 0 && !args.dot_file.empty()) {
          dot = sim::to_dot(built.graph, built.layout.specs);
          dot_tasks = built.graph.size();
        }
        if (critpath_mode) {
          crit.add(built, run,
                   core::group_reconfig_cycles(acc.config(), plan,
                                               groups[gi].first));
        }
      };
    }
    report = acc.run_with_plan(net, plan, stats, args.batch, observer);
    used_config = acc.config();
    if (!args.dot_file.empty()) {
      if (!obs::write_file_atomic(args.dot_file, dot)) {
        std::cerr << "error: cannot write " << args.dot_file << "\n";
        return 2;
      }
      std::cerr << "wrote " << args.dot_file << " (" << dot_tasks
                << " tasks)\n";
    }
  }

  {
    // Flush the trace file before reporting, holding the drain mutex so a
    // signal arriving mid-write waits for the complete document.
    std::lock_guard<std::mutex> lock(trace_mu);
    trace.reset();
  }

  obs::RunManifest manifest = obs::RunManifest::current("mocha_sim");
  manifest.network = args.network;
  manifest.accelerator = report.accelerator;
  manifest.objective = args.objective;
  manifest.batch = args.batch;
  manifest.sram_bytes = used_config.sram_bytes;
  manifest.pe_rows = used_config.pe_rows;
  manifest.pe_cols = used_config.pe_cols;
  manifest.clock_ghz = used_config.clock_ghz;
  manifest.fault_scenario = fault_summary;

  const int status =
      args.critpath_out.empty()
          ? 0
          : write_critpath_report(args, crit, net, report, manifest);
  if (status == 2) return status;

  obs::MetricsSnapshot snapshot;
  if (args.metrics) snapshot = obs::MetricsRegistry::global().snapshot();

  if (args.json) {
    std::cout << core::report_to_json(report, &manifest,
                                      args.metrics ? &snapshot : nullptr)
              << "\n";
    return status;
  }

  util::Table table({"group", "plan", "cycles", "GOPS", "uJ", "peak KiB"});
  for (const core::GroupReport& group : report.groups) {
    table.row()
        .cell(group.label)
        .cell(group.plan_summary)
        .cell(static_cast<long long>(group.cycles))
        .cell(group.throughput_gops(report.clock_ghz))
        .cell(group.energy.total_pj() / 1e6)
        .cell(static_cast<double>(group.peak_sram_bytes) / 1024.0, 1);
  }
  table.print(std::cout,
              report.accelerator + " / " + report.network + " (batch " +
                  std::to_string(args.batch) + ")");
  std::cout << "\ntotal: " << report.total_cycles << " cycles, "
            << report.runtime_ms() << " ms, " << report.throughput_gops()
            << " GOPS, " << report.efficiency_gops_per_w() << " GOPS/W, "
            << report.total_energy_pj * 1e-9 << " mJ, peak scratchpad "
            << static_cast<double>(report.peak_sram_bytes) / 1024.0
            << " KiB, sram_ok=" << (report.sram_ok ? "yes" : "no") << "\n";
  if (args.metrics) {
    std::cout << "\nmetrics: " << snapshot.to_json() << "\n";
  }
  if (status != 0) return status;
  return report.sram_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return run(args);
  } catch (const mocha::CheckFailure& e) {
    // An invariant tripped past argument validation — report it like a tool,
    // not a crash dump, and exit non-zero.
    std::cerr << "mocha_sim: " << e.what() << "\n";
    return 3;
  }
}
