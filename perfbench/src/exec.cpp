// exec: the functional-verification path the tests use. AlexNet runs under
// the plan MOCHA chose during set-up, with default FunctionalOptions, so
// every coded stream is round-tripped through the real codecs and
// verified. The executor, packed kernels, codecs and thread pool do all
// the timed work; the planner runs in set-up and the simulator after the
// timed phase, for the plan's simulated metrics.
#include "bench.hpp"
#include "nn/generate.hpp"
#include "nn/reference.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace mocha;

namespace {

struct Inputs {
  std::vector<nn::ValueTensor> weights;
  nn::ValueTensor input;
  std::vector<nn::ValueTensor> reference;
  std::vector<dataflow::LayerStreamStats> stats;
};

/// Tensors from the seed: a 5 %-sparse input, and per-layer weights whose
/// sparsity the seed draws in 18-22 % (a narrow band, so the kernels'
/// zero-skipping work stays comparable across seeds while every value and
/// zero position changes). The planner sees the drawn kernel sparsities.
Inputs make_inputs(const nn::Network& net, std::uint64_t seed,
                   const nn::Quant& quant) {
  util::Rng rng(seed);
  Inputs in;
  in.stats = core::assumed_stats(net, nn::SparsityProfile{});
  for (std::size_t l = 0; l < net.layers.size(); ++l) {
    const nn::LayerSpec& layer = net.layers[l];
    if (!layer.has_weights()) {
      in.weights.emplace_back();
      continue;
    }
    const double sparsity = 0.18 + 0.04 * rng.uniform();
    in.stats[l].kernel_sparsity = sparsity;
    // The magnitudes nn::random_weights uses, which keep requantized
    // activations in range across deep stacks.
    in.weights.push_back(
        nn::random_tensor(layer.weight_shape(), sparsity, rng, -8, 8));
  }
  in.input = nn::random_tensor(net.layers.front().input_shape(), 0.05, rng);
  in.stats.front().ifmap_sparsity = 0.05;
  in.reference = nn::run_network_ref(net, in.input, in.weights, quant);
  return in;
}

std::string check_outputs(const dataflow::FunctionalResult& run,
                          const std::vector<nn::ValueTensor>& reference,
                          const nn::Network& net) {
  for (std::size_t l = 0; l < reference.size(); ++l) {
    if (!(run.outputs[l] == reference[l])) {
      return net.name + ": layer " + net.layers[l].name +
             " differs from run_network_ref";
    }
  }
  return "";
}

}  // namespace

void run_exec(const Args& args, Result& result) {
  const int width = pool_width_for(4);
  util::ThreadPool::set_global_threads(width);
  result.pool_width = width;
  result.thread_budget = width;

  const nn::Network net = args.smoke ? nn::make_lenet5() : nn::make_alexnet();
  const core::Accelerator acc = core::make_mocha_accelerator();
  const nn::Quant quant;

  // Set-up, repeated so setup_s is a median: tensors, reference outputs
  // and MOCHA's plan.
  Inputs in;
  dataflow::NetworkPlan plan;
  std::vector<double> setup_s;
  const int reps = args.smoke || args.trace ? 1 : 3;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    in = make_inputs(net, args.seed, quant);
    plan = acc.plan(net, in.stats);
    setup_s.push_back(now_s() - t0);
  }
  dataflow::FunctionalOptions options;
  options.quant = quant;

  const auto infer = [&] {
    return dataflow::run_functional(net, plan, in.input, in.weights, options);
  };
  const double dense_macs = static_cast<double>(net.total_macs());
  util::JsonWriter info;
  info.begin_object();
  info.key("network").value(net.name);
  info.key("dense_macs").value(dense_macs);

  if (args.trace) {
    const double t0 = now_s();
    result.operation(check_outputs(infer(), in.reference, net));
    const double untraced_s = now_s() - t0;

    Spans spans;
    const std::vector<DesignPoint> points = {{&net, in.stats}};
    trace_plan_and_simulate(acc, points, plan_and_simulate(acc, points).reports,
                            spans, result);
    const double grouped_s = trace_functional(net, plan, in.input, in.weights,
                                              in.reference, options,
                                              /*codecs=*/true, spans, result);
    double traced_s = 0;
    {
      const Scope scope(spans, "dataflow.run_functional", -1, -1);
      const double t1 = now_s();
      result.operation(check_outputs(infer(), in.reference, net));
      traced_s = now_s() - t1;
    }
    util::ThreadPool::set_global_threads(1);
    const double t2 = now_s();
    result.operation(check_outputs(infer(), in.reference, net));
    const double serial_s = now_s() - t2;
    util::ThreadPool::set_global_threads(width);

    add_zero_metrics(result, serve_layer_metrics());
    result.metric("util.pool.speedup", "ratio", serial_s / untraced_s);
    result.metric("trace.unattributed_frac", "ratio",
                  (untraced_s - grouped_s) / untraced_s);
    result.metric("trace.overhead_frac", "ratio",
                  (traced_s - untraced_s) / untraced_s);
    info.key("untraced_inference_s").value(untraced_s);
    info.key("traced_inference_s").value(traced_s);
    info.key("grouped_inference_s").value(grouped_s);
    info.key("serial_inference_s").value(serial_s);
    info.end_object();
    result.extras.emplace_back("info", info.str());
    result.extras.emplace_back("spans", spans.summary_json());
    if (!args.spans_path.empty()) spans.write(args.spans_path);
    return;
  }

  std::vector<double> infer_s;
  const double start = now_s();
  while (infer_s.size() < 3 || now_s() - start < args.seconds) {
    const double t0 = now_s();
    const dataflow::FunctionalResult run = infer();
    infer_s.push_back(now_s() - t0);
    result.operation(check_outputs(run, in.reference, net));
  }

  add_sim_metrics(result, {acc.run_with_plan(net, plan, in.stats)});
  result.metric("setup_s", "s", median(setup_s));
  result.metric("peak_rss_mib", "MiB", peak_rss_mib());
  result.metric("op_p50_ms", "ms", median(infer_s) * 1e3);
  info.key("inference_ms").begin_array();
  for (double t : infer_s) info.value(t * 1e3);
  info.end_array();
  info.key("exec_gmac_per_s").value(dense_macs / median(infer_s) / 1e9);
  info.key("setup_reps").value(reps);
  info.end_object();
  result.extras.emplace_back("info", info.str());
}

}  // namespace perfbench
