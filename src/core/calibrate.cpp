#include "core/calibrate.hpp"

namespace mocha::core {

CalibrationResult calibrate(const nn::Network& net,
                            const nn::ValueTensor& input,
                            const std::vector<nn::ValueTensor>& weights,
                            const nn::SparsityProfile& fallback,
                            const nn::Quant& quant) {
  net.validate();

  // Whole-layer plans: one group per layer, no codecs — the pass only
  // measures data statistics.
  dataflow::NetworkPlan plan;
  for (const nn::LayerSpec& layer : net.layers) {
    plan.layers.push_back(dataflow::whole_layer_plan(layer));
  }

  CalibrationResult result;
  result.functional = dataflow::run_functional(
      net, plan, input, weights, {quant, /*exercise_codecs=*/false});

  result.stats = assumed_stats(net, fallback);
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    const auto& measured = result.functional.measured_stats[i];
    const auto& streams = result.functional.streams[i];
    if (streams.ifmap_raw > 0) {
      result.stats[i].ifmap_sparsity = measured.ifmap_sparsity;
    }
    if (streams.kernel_raw > 0) {
      result.stats[i].kernel_sparsity = measured.kernel_sparsity;
    }
    if (streams.ofmap_raw > 0) {
      result.stats[i].ofmap_sparsity = measured.ofmap_sparsity;
    }
  }
  // Propagate measured output sparsities to the next layer's input: in a
  // chain, layer i+1's ifmap IS layer i's ofmap.
  for (std::size_t i = 0; i + 1 < net.layers.size(); ++i) {
    if (result.functional.streams[i].ofmap_raw > 0) {
      result.stats[i + 1].ifmap_sparsity = result.stats[i].ofmap_sparsity;
    }
  }
  return result;
}

}  // namespace mocha::core
