// Shared plumbing for the mocha_perfbench workloads (dse, exec, serve).
//
// Every workload drives the library only through its public entry points,
// times those calls from the outside, checks the outputs, and fills one
// Result. main.cpp turns the Result into the JSON report run.py reads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/accelerator.hpp"
#include "dataflow/executor.hpp"
#include "dataflow/plan.hpp"
#include "dataflow/streams.hpp"
#include "nn/network.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny inputs and short phases: the self-check, not a measurement.
  bool smoke = false;
  /// Where the traced run writes its spans (empty = not written).
  std::string spans_path;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// Everything one run reports. Operations are design points (dse),
/// inferences (exec) or requests (serve); an operation fails when any of
/// its output checks fails or, for a request, when it does not complete.
struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  // first few failure descriptions
  std::vector<Metric> metrics;
  /// Pool width and total busy threads the workload allows itself.
  int pool_width = 1;
  int thread_budget = 1;
  /// Pre-rendered JSON values appended to the report under these keys
  /// (per-group ledger, counts, sample sizes, span summary).
  std::vector<std::pair<std::string, std::string>> extras;

  void metric(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
  /// Books one operation; `problem` empty means every check passed.
  void operation(const std::string& problem);
};

/// Seconds on the steady clock.
double now_s();

/// Peak resident set of this process, MiB.
double peak_rss_mib();

double median(std::vector<double> values);
/// Exact nearest-rank percentile of the samples (p in [0, 100]).
double percentile(std::vector<double> values, double p);
double geomean(const std::vector<double>& values);

/// Pool width for a workload that wants `want` threads, clamped to nproc.
int pool_width_for(int want);
int nproc();

/// In-memory span recorder for the traced run. A span has a name, the id
/// of the operation it belongs to (design point, inference or request), a
/// parent span and start/end times; spans are written out when the run
/// ends. Single-threaded: concurrent work is stamped into per-operation
/// slots and turned into spans afterwards.
class Spans {
 public:
  Spans();
  int open(const std::string& name, std::int64_t op, int parent);
  void close(int span);
  /// Adds an already-measured interval (seconds on the steady clock).
  int add(const std::string& name, std::int64_t op, int parent, double start,
          double end);

  /// Per-name totals: count, summed duration and summed self time (a
  /// span's duration minus the part its children cover), as a JSON object.
  std::string summary_json() const;
  /// Every span as a JSON array, times in microseconds since construction.
  void write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::int64_t op = 0;
    int parent = -1;
    double start = 0;
    double end = 0;
  };
  std::vector<double> self_times() const;
  std::vector<Span> spans_;
  double origin_;
};

/// RAII span around one public call.
class Scope {
 public:
  Scope(Spans& spans, const std::string& name, std::int64_t op, int parent)
      : spans_(spans), id_(spans.open(name, op, parent)) {}
  ~Scope() { spans_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Spans& spans_;
  int id_;
};

/// One network planned and simulated by MOCHA's accelerator.
struct DesignPoint {
  const mocha::nn::Network* net = nullptr;
  std::vector<mocha::dataflow::LayerStreamStats> stats;
};

/// Outcome of planning + simulating a set of design points once.
struct PlanSimPass {
  double plan_s = 0;
  double simulate_s = 0;
  std::vector<mocha::dataflow::NetworkPlan> plans;
  std::vector<mocha::core::RunReport> reports;
};

PlanSimPass plan_and_simulate(const mocha::core::Accelerator& acc,
                              const std::vector<DesignPoint>& points);

/// Stable fingerprint of a plan and its simulated totals; two passes over
/// the same inputs must produce identical fingerprints.
std::string fingerprint(const mocha::dataflow::NetworkPlan& plan,
                        const mocha::core::RunReport& report);

/// The simulated-design metrics every workload reports for the plans it
/// runs: sim_gops and sim_gops_per_w, geomeans over `reports`.
void add_sim_metrics(Result& result,
                     const std::vector<mocha::core::RunReport>& reports);

/// Traced plan + simulate from the outside, per design point: plan_traced
/// for the planner counts, then each committed fusion group rebuilt as
/// build_group_schedule -> Engine::run(detailed) -> analyze_critical_path
/// -> EnergyModel::energy, plus estimate_group_cost and a detailed=false
/// engine run on the same graph. Adds the core / dataflow cost+build /
/// sim / obs per-layer metrics and the per-group ledger to `result`, and
/// checks the rebuilt totals against `reference` (run_with_plan's reports).
/// Returns the traced planning time and the attributed simulate time
/// (build + engine + critpath + energy), so the caller can report the
/// unattributed remainder and the tracing overhead.
struct TracedPlanSim {
  double plan_s = 0;
  double simulate_s = 0;
};
TracedPlanSim trace_plan_and_simulate(
    const mocha::core::Accelerator& acc,
    const std::vector<DesignPoint>& points,
    const std::vector<mocha::core::RunReport>& reference, Spans& spans,
    Result& result);

/// Traced functional execution from the outside: every fusion group of
/// `plan` runs as its own chained sub-network (run_functional under
/// `options`, output checked against `reference`), next to the reference
/// kernels (run_layer_ref) on the same tensors and, when `codecs`, the
/// plan's real codecs on the group's streams. Adds the dataflow.exec.*,
/// nn.kernels.* and (with `codecs`) compress.* per-layer metrics and the
/// per-group ledger. Returns the summed sub-network run time, seconds.
double trace_functional(const mocha::nn::Network& net,
                        const mocha::dataflow::NetworkPlan& plan,
                        const mocha::nn::ValueTensor& input,
                        const std::vector<mocha::nn::ValueTensor>& weights,
                        const std::vector<mocha::nn::ValueTensor>& reference,
                        const mocha::dataflow::FunctionalOptions& options,
                        bool codecs, Spans& spans, Result& result);

/// Reports every per-layer metric in `names` as 0: the workload never
/// calls the module that metric measures.
void add_zero_metrics(Result& result, const std::vector<Metric>& names);

/// Names and units of the per-layer metric families, for workloads that
/// report a family as 0.
std::vector<Metric> exec_layer_metrics();
std::vector<Metric> codec_layer_metrics();
std::vector<Metric> serve_layer_metrics();

void run_dse(const Args& args, Result& result);
void run_exec(const Args& args, Result& result);
void run_serve(const Args& args, Result& result);

}  // namespace perfbench
