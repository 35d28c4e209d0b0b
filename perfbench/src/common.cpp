#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <map>
#include <span>
#include <sstream>

#include "bench.hpp"
#include "compress/codec.hpp"
#include "core/morph.hpp"
#include "dataflow/cost.hpp"
#include "dataflow/schedule.hpp"
#include "model/energy.hpp"
#include "nn/reference.hpp"
#include "obs/critpath.hpp"
#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace perfbench {

using namespace mocha;

void Result::operation(const std::string& problem) {
  ++attempted;
  if (problem.empty()) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(problem);
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> values) { return percentile(values, 50); }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double geomean(const std::vector<double>& values) {
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return values.empty()
             ? 0
             : std::exp(log_sum / static_cast<double>(values.size()));
}

int nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

int pool_width_for(int want) { return std::max(1, std::min(want, nproc())); }

// ---------------------------------------------------------------- spans --

Spans::Spans() : origin_(now_s()) {}

int Spans::open(const std::string& name, std::int64_t op, int parent) {
  const double t = now_s();
  return add(name, op, parent, t, t);
}

void Spans::close(int span) {
  spans_[static_cast<std::size_t>(span)].end = now_s();
}

int Spans::add(const std::string& name, std::int64_t op, int parent,
               double start, double end) {
  spans_.push_back({name, op, parent, start, end});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> Spans::self_times() const {
  // Children of one parent never overlap here (each parent's children are
  // either sequential calls or disjoint derived intervals), so the covered
  // part is the sum of the children's durations clipped to the parent.
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    const double covered =
        std::max(0.0, std::min(s.end, p.end) - std::max(s.start, p.start));
    self[static_cast<std::size_t>(s.parent)] -= covered;
  }
  return self;
}

std::string Spans::summary_json() const {
  struct Totals {
    std::int64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, Totals> by_name;
  const std::vector<double> self = self_times();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = by_name[spans_[i].name];
    ++t.count;
    t.total_ms += (spans_[i].end - spans_[i].start) * 1e3;
    t.self_ms += self[i] * 1e3;
  }
  util::JsonWriter json;
  json.begin_object();
  for (const auto& [name, t] : by_name) {
    json.key(name).begin_object();
    json.key("count").value(t.count);
    json.key("total_ms").value(t.total_ms);
    json.key("self_ms").value(t.self_ms);
    json.end_object();
  }
  json.end_object();
  return json.str();
}

void Spans::write(const std::string& path) const {
  const std::vector<double> self = self_times();
  util::JsonWriter json;
  json.begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    json.begin_object();
    json.key("name").value(s.name);
    json.key("op").value(s.op);
    json.key("parent").value(s.parent);
    json.key("start_us").value((s.start - origin_) * 1e6);
    json.key("end_us").value((s.end - origin_) * 1e6);
    json.key("self_us").value(self[i] * 1e6);
    json.end_object();
  }
  json.end_array();
  std::ofstream out(path);
  out << json.str() << "\n";
  MOCHA_CHECK(out.good(), "cannot write spans to " << path);
}

// --------------------------------------------------- plan and simulate --

PlanSimPass plan_and_simulate(const core::Accelerator& acc,
                              const std::vector<DesignPoint>& points) {
  PlanSimPass pass;
  for (const DesignPoint& point : points) {
    const double t0 = now_s();
    pass.plans.push_back(acc.plan(*point.net, point.stats));
    const double t1 = now_s();
    pass.reports.push_back(
        acc.run_with_plan(*point.net, pass.plans.back(), point.stats));
    const double t2 = now_s();
    pass.plan_s += t1 - t0;
    pass.simulate_s += t2 - t1;
  }
  return pass;
}

std::string fingerprint(const dataflow::NetworkPlan& plan,
                        const core::RunReport& report) {
  std::ostringstream out;
  out.precision(17);
  for (const dataflow::LayerPlan& layer : plan.layers) {
    out << layer.summary() << (layer.fuse_with_next ? "+" : "|");
  }
  out << " cycles=" << report.total_cycles
      << " energy_pj=" << report.total_energy_pj
      << " dram=" << report.total_dram_bytes
      << " peak_sram=" << report.peak_sram_bytes;
  return out.str();
}

void add_sim_metrics(Result& result,
                     const std::vector<core::RunReport>& reports) {
  std::vector<double> gops;
  std::vector<double> gops_per_w;
  for (const core::RunReport& report : reports) {
    gops.push_back(report.throughput_gops());
    gops_per_w.push_back(report.efficiency_gops_per_w());
  }
  result.metric("sim_gops", "GOPS", geomean(gops));
  result.metric("sim_gops_per_w", "GOPS/W", geomean(gops_per_w));
}

namespace {

double rel_err(double estimate, double simulated) {
  return simulated == 0 ? 0 : std::abs(estimate - simulated) / simulated;
}

double mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

/// Timed call inside a span; returns the call's result.
template <typename Fn>
auto timed(Spans& spans, const char* name, std::int64_t op, int parent,
           double& total_s, Fn&& fn) {
  Scope scope(spans, name, op, parent);
  const double t0 = now_s();
  auto out = fn();
  total_s += now_s() - t0;
  return out;
}

// estimate_group_cost takes microseconds; repeat it so the per-call time
// is not dominated by clock resolution.
constexpr int kCostRepeats = 20;

}  // namespace

TracedPlanSim trace_plan_and_simulate(
    const core::Accelerator& acc, const std::vector<DesignPoint>& points,
    const std::vector<core::RunReport>& reference, Spans& spans,
    Result& result) {
  // The planner make_mocha_accelerator installs, called through its traced
  // entry point so the decision counts come from the program's PlanTrace.
  core::MorphOptions morph;
  morph.objective = core::Objective::EnergyDelayProduct;
  const core::MorphController planner(acc.tech(), morph);
  const model::EnergyModel energy_model(acc.tech(), acc.config());

  std::int64_t candidates = 0;
  std::int64_t exact_sims = 0;
  double build_s = 0, engine_s = 0, fast_s = 0, critpath_s = 0, energy_s = 0;
  double cost_s = 0, plan_total_s = 0;
  std::int64_t cost_calls = 0;
  std::uint64_t tasks = 0;
  double makespan = 0, reconfig = 0, contention = 0, pe_busy = 0;
  std::int64_t dram_bytes = 0;
  std::vector<double> cycles_err, energy_err, dram_err;

  util::JsonWriter ledger;
  ledger.begin_array();
  for (std::size_t p = 0; p < points.size(); ++p) {
    const nn::Network& net = *points[p].net;
    const auto& stats = points[p].stats;
    const auto op = static_cast<std::int64_t>(p);
    const Scope point(spans, "design_point", op, -1);

    core::PlanTrace plan_trace;
    double plan_s = 0;
    const dataflow::NetworkPlan plan =
        timed(spans, "core.plan_traced", op, point.id(), plan_s, [&] {
          return planner.plan_traced(net, acc.config(), stats, 1, &plan_trace);
        });
    plan_total_s += plan_s;
    for (const core::GroupTrace& group : plan_trace) {
      candidates += static_cast<std::int64_t>(group.analytical_candidates);
      exact_sims += static_cast<std::int64_t>(group.finalists.size());
    }

    const core::RunReport& ref = reference[p];
    const auto groups = plan.fusion_groups();
    std::string problem;
    if (groups.size() != ref.groups.size()) {
      problem = net.name + ": traced plan has " +
                std::to_string(groups.size()) + " groups, run_with_plan " +
                std::to_string(ref.groups.size());
    }
    sim::Cycle total_cycles = 0;
    double total_energy = 0;
    for (std::size_t gi = 0; gi < groups.size() && problem.empty(); ++gi) {
      const auto& group = groups[gi];
      const Scope scope(spans, "group", op, point.id());
      double b = 0, e = 0, c = 0, en = 0;
      dataflow::BuiltSchedule built =
          timed(spans, "dataflow.build_group_schedule", op, scope.id(), b, [&] {
            return dataflow::build_group_schedule(net, plan, group,
                                                  acc.config(), stats, 1);
          });
      const sim::Engine engine(built.layout.specs);
      const sim::RunResult run =
          timed(spans, "sim.engine.run", op, scope.id(), e,
                [&] { return engine.run(built.graph, /*detailed=*/true); });
      const obs::CritPathReport critpath =
          timed(spans, "obs.analyze_critical_path", op, scope.id(), c,
                [&] { return obs::analyze_critical_path(built.graph, run); });
      const std::int64_t reconfig_cycles =
          core::group_reconfig_cycles(acc.config(), plan, group.first);
      const model::EnergyBreakdown energy =
          timed(spans, "model.energy", op, scope.id(), en, [&] {
            model::ActionCounts counts = run.totals;
            counts.reconfigs = 1;
            counts.cycles += reconfig_cycles;
            return energy_model.energy(counts);
          });
      build_s += b;
      engine_s += e;
      critpath_s += c;
      energy_s += en;

      // Not part of simulate: the planner's cost model and its fast engine
      // mode, on the same group.
      double cost_once = 0;
      const dataflow::CostEstimate est =
          timed(spans, "dataflow.estimate_group_cost", op, scope.id(),
                cost_once, [&] {
                  dataflow::CostEstimate last;
                  for (int r = 0; r < kCostRepeats; ++r) {
                    last = dataflow::estimate_group_cost(
                        net, plan, group, acc.config(), stats, acc.tech(), 1);
                  }
                  return last;
                });
      cost_s += cost_once;
      cost_calls += kCostRepeats;
      const sim::RunResult fast =
          timed(spans, "sim.engine.run_fast", op, scope.id(), fast_s,
                [&] { return engine.run(built.graph, /*detailed=*/false); });

      const auto sim_cycles = static_cast<double>(run.makespan);
      const double sim_energy = energy_model.energy(run.totals).total_pj();
      const auto sim_dram = static_cast<double>(run.totals.dram_read_bytes +
                                                run.totals.dram_write_bytes);
      cycles_err.push_back(rel_err(est.cycles, sim_cycles));
      energy_err.push_back(rel_err(est.energy_pj, sim_energy));
      dram_err.push_back(
          rel_err(static_cast<double>(est.dram_bytes), sim_dram));
      tasks += run.task_count;
      makespan += sim_cycles;
      reconfig += static_cast<double>(reconfig_cycles);
      contention += static_cast<double>(critpath.contention_gap);
      pe_busy += run.utilization(built.layout.pe) * sim_cycles;
      dram_bytes += run.totals.dram_read_bytes + run.totals.dram_write_bytes;
      total_cycles += run.makespan + static_cast<sim::Cycle>(reconfig_cycles);
      total_energy += energy.total_pj();

      const core::GroupReport& rg = ref.groups[gi];
      if (run.makespan + static_cast<sim::Cycle>(reconfig_cycles) !=
              rg.cycles ||
          plan.layers[group.first].summary() != rg.plan_summary ||
          fast.makespan != run.makespan) {
        problem = net.name + "/" + rg.label +
                  ": traced group differs from run_with_plan";
      }

      ledger.begin_object();
      ledger.key("network").value(net.name);
      ledger.key("group").value(rg.label);
      ledger.key("plan").value(rg.plan_summary);
      ledger.key("tasks").value(run.task_count);
      ledger.key("est_cycles").value(est.cycles);
      ledger.key("sim_cycles").value(sim_cycles);
      ledger.key("cycles_err").value(cycles_err.back());
      ledger.key("est_energy_pj").value(est.energy_pj);
      ledger.key("sim_energy_pj").value(sim_energy);
      ledger.key("energy_err").value(energy_err.back());
      ledger.key("est_dram_bytes").value(est.dram_bytes);
      ledger.key("sim_dram_bytes").value(sim_dram);
      ledger.key("dram_err").value(dram_err.back());
      ledger.key("build_ms").value(b * 1e3);
      ledger.key("engine_ms").value(e * 1e3);
      ledger.key("critpath_ms").value(c * 1e3);
      ledger.key("energy_ms").value(en * 1e3);
      ledger.end_object();
    }
    if (problem.empty() && (total_cycles != ref.total_cycles ||
                            total_energy != ref.total_energy_pj)) {
      problem = net.name + ": traced totals differ from run_with_plan";
    }
    result.operation(problem);
  }
  ledger.end_array();
  result.extras.emplace_back("simulate_ledger", ledger.str());

  result.metric("core.plan.ms", "ms", plan_total_s * 1e3);
  result.metric("core.plan.candidates", "count",
                static_cast<double>(candidates));
  result.metric("core.plan.exact_sims", "count",
                static_cast<double>(exact_sims));
  result.metric("dataflow.cost.us_per_call", "us",
                cost_s * 1e6 / static_cast<double>(std::max<std::int64_t>(
                                   1, cost_calls)));
  result.metric("dataflow.cost.cycles_err", "ratio", mean(cycles_err));
  result.metric("dataflow.cost.cycles_err_max", "ratio",
                cycles_err.empty() ? 0
                                   : *std::max_element(cycles_err.begin(),
                                                       cycles_err.end()));
  result.metric("dataflow.cost.energy_err", "ratio", mean(energy_err));
  result.metric("dataflow.cost.dram_err", "ratio", mean(dram_err));
  result.metric("dataflow.build.ms", "ms", build_s * 1e3);
  result.metric("sim.engine.ms", "ms", engine_s * 1e3);
  result.metric("sim.engine.mtasks_per_s", "Mtasks/s",
                engine_s > 0 ? static_cast<double>(tasks) / engine_s / 1e6 : 0);
  result.metric("sim.tasks", "count", static_cast<double>(tasks));
  result.metric("sim.engine.fast_ms", "ms", fast_s * 1e3);
  result.metric("sim.dram_mib", "MiB",
                static_cast<double>(dram_bytes) / (1024.0 * 1024.0));
  result.metric("sim.pe_util", "ratio", makespan > 0 ? pe_busy / makespan : 0);
  result.metric("sim.contention_frac", "ratio",
                makespan > 0 ? contention / makespan : 0);
  result.metric("sim.reconfig_frac", "ratio",
                makespan + reconfig > 0 ? reconfig / (makespan + reconfig) : 0);
  result.metric("obs.critpath.ms", "ms", critpath_s * 1e3);
  return {plan_total_s, build_s + engine_s + critpath_s + energy_s};
}

// ------------------------------------------------- functional execution --

namespace {

/// The sub-network of one fusion group, with its weights and plan slice.
struct GroupSlice {
  nn::Network net;
  dataflow::NetworkPlan plan;
  std::vector<nn::ValueTensor> weights;
};

GroupSlice slice(const nn::Network& net, const dataflow::NetworkPlan& plan,
                 const std::vector<nn::ValueTensor>& weights,
                 const dataflow::NetworkPlan::Group& group) {
  GroupSlice s;
  s.net.name = net.name + "/" + net.layers[group.first].name;
  for (std::size_t l = group.first; l <= group.last; ++l) {
    s.net.layers.push_back(net.layers[l]);
    s.plan.layers.push_back(plan.layers[l]);
    s.weights.push_back(weights[l]);
  }
  return s;
}

/// Encodes and decodes one stream with the real codec; returns false if
/// the round trip changed it.
bool codec_round_trip(compress::CodecKind kind, const nn::ValueTensor& tensor,
                      double& encode_s, double& decode_s,
                      std::int64_t& raw_bytes) {
  const auto codec = compress::make_codec(kind);
  const std::span<const nn::Value> values(
      tensor.data(), static_cast<std::size_t>(tensor.size()));
  const double t0 = now_s();
  const std::vector<std::uint8_t> coded = codec->encode(values);
  const double t1 = now_s();
  const std::vector<nn::Value> back = codec->decode(coded, values.size());
  const double t2 = now_s();
  encode_s += t1 - t0;
  decode_s += t2 - t1;
  raw_bytes += static_cast<std::int64_t>(values.size_bytes());
  return std::equal(back.begin(), back.end(), values.begin(), values.end());
}

}  // namespace

double trace_functional(const nn::Network& net,
                        const dataflow::NetworkPlan& plan,
                        const nn::ValueTensor& input,
                        const std::vector<nn::ValueTensor>& weights,
                        const std::vector<nn::ValueTensor>& reference,
                        const dataflow::FunctionalOptions& options,
                        bool codecs, Spans& spans, Result& result) {
  double exec_s = 0, kernel_s = 0, encode_s = 0, decode_s = 0;
  std::int64_t macs = 0, codec_bytes = 0;
  std::int64_t tiles = 0;

  util::JsonWriter ledger;
  ledger.begin_array();
  const auto groups = plan.fusion_groups();
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    const auto& group = groups[gi];
    const auto op = static_cast<std::int64_t>(gi);
    const GroupSlice s = slice(net, plan, weights, group);
    const nn::ValueTensor& group_input =
        group.first == 0 ? input : reference[group.first - 1];
    const Scope scope(spans, "group", op, -1);

    // The executor's own tile counter, read from the metrics registry and
    // enabled only around this call.
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    registry.reset();
    registry.set_enabled(true);
    double g_exec = 0;
    const dataflow::FunctionalResult run =
        timed(spans, "dataflow.run_functional", op, scope.id(), g_exec, [&] {
          return dataflow::run_functional(s.net, s.plan, group_input,
                                          s.weights, options);
        });
    registry.set_enabled(false);
    const auto snapshot = registry.snapshot();
    const auto found = snapshot.counters.find("executor.tiles_computed");
    if (found != snapshot.counters.end()) tiles += found->second;

    std::string problem;
    for (std::size_t k = 0; k < s.net.layers.size(); ++k) {
      if (!(run.outputs[k] == reference[group.first + k])) {
        problem = s.net.name + ": layer " + s.net.layers[k].name +
                  " differs from the reference";
      }
    }

    double g_kernel = 0;
    for (std::size_t l = group.first; l <= group.last; ++l) {
      const nn::ValueTensor& in = l == 0 ? input : reference[l - 1];
      timed(spans, "nn.run_layer_ref", op, scope.id(), g_kernel, [&] {
        return nn::run_layer_ref(in, weights[l], net.layers[l], options.quant);
      });
      macs += net.layers[l].macs();
    }

    double g_encode = 0, g_decode = 0;
    if (codecs) {
      const Scope codec_scope(spans, "compress.codec", op, scope.id());
      const dataflow::LayerPlan& head = plan.layers[group.first];
      const dataflow::LayerPlan& tail = plan.layers[group.last];
      // DRAM-side streams of the group: its input, every layer's kernels
      // and its output, each under the codec the plan assigned.
      std::vector<std::pair<compress::CodecKind, const nn::ValueTensor*>>
          streams = {{head.ifmap_codec, &group_input},
                     {tail.ofmap_codec, &reference[group.last]}};
      for (std::size_t l = group.first; l <= group.last; ++l) {
        if (net.layers[l].has_weights()) {
          streams.emplace_back(plan.layers[l].kernel_codec, &weights[l]);
        }
      }
      for (const auto& [kind, tensor] : streams) {
        if (kind == compress::CodecKind::None) continue;
        if (!codec_round_trip(kind, *tensor, g_encode, g_decode,
                              codec_bytes)) {
          problem = s.net.name + ": codec round trip changed a stream";
        }
      }
    }
    result.operation(problem);
    exec_s += g_exec;
    kernel_s += g_kernel;
    encode_s += g_encode;
    decode_s += g_decode;

    ledger.begin_object();
    ledger.key("group").value(s.net.name);
    ledger.key("plan").value(plan.layers[group.first].summary());
    ledger.key("run_functional_ms").value(g_exec * 1e3);
    ledger.key("reference_ms").value(g_kernel * 1e3);
    ledger.key("codec_encode_ms").value(g_encode * 1e3);
    ledger.key("codec_decode_ms").value(g_decode * 1e3);
    ledger.end_object();
  }
  ledger.end_array();
  result.extras.emplace_back("exec_ledger", ledger.str());

  const double codec_s = encode_s + decode_s;
  result.metric("dataflow.exec.ms", "ms", exec_s * 1e3);
  result.metric("dataflow.exec.overhead", "ratio",
                kernel_s + codec_s > 0 ? exec_s / (kernel_s + codec_s) : 0);
  result.metric("dataflow.exec.tiles", "count", static_cast<double>(tiles));
  result.metric("nn.kernels.ms", "ms", kernel_s * 1e3);
  result.metric("nn.kernels.gmac_per_s", "GMAC/s",
                kernel_s > 0 ? static_cast<double>(macs) / kernel_s / 1e9 : 0);
  if (codecs) {
    const auto mb = static_cast<double>(codec_bytes) / 1e6;
    result.metric("compress.encode_mb_per_s", "MB/s",
                  encode_s > 0 ? mb / encode_s : 0);
    result.metric("compress.decode_mb_per_s", "MB/s",
                  decode_s > 0 ? mb / decode_s : 0);
  }
  return exec_s;
}

// ------------------------------------------------------- zero families --

void add_zero_metrics(Result& result, const std::vector<Metric>& names) {
  for (const Metric& m : names) result.metric(m.name, m.unit, 0);
}

std::vector<Metric> exec_layer_metrics() {
  return {{"dataflow.exec.ms", "ms", 0},
          {"dataflow.exec.overhead", "ratio", 0},
          {"dataflow.exec.tiles", "count", 0},
          {"nn.kernels.ms", "ms", 0},
          {"nn.kernels.gmac_per_s", "GMAC/s", 0}};
}

std::vector<Metric> codec_layer_metrics() {
  return {{"compress.encode_mb_per_s", "MB/s", 0},
          {"compress.decode_mb_per_s", "MB/s", 0}};
}

std::vector<Metric> serve_layer_metrics() {
  return {{"serve.queue_ms.p50", "ms", 0},   {"serve.queue_ms.p99", "ms", 0},
          {"serve.service_ms.p50", "ms", 0}, {"serve.service_ms.p99", "ms", 0},
          {"serve.submit_us.p50", "us", 0},  {"serve.submit_us.p99", "us", 0},
          {"serve.exec_floor_ms", "ms", 0},  {"serve.hedges", "count", 0},
          {"serve.hedge_wins", "count", 0},  {"serve.steals", "count", 0},
          {"serve.canaries", "count", 0},    {"serve.gen_lag_ms.p99", "ms", 0},
          {"serve.gen_lag_ms.max", "ms", 0}, {"serve.latency_ms.p99", "ms", 0}};
}

}  // namespace perfbench
