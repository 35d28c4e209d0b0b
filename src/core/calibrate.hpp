// Measurement-driven planning: close the loop between functional execution
// and performance simulation.
//
// Assumed sparsity profiles are fine for sweeps, but when real tensors are
// available the honest workflow is: run the network functionally once,
// measure each layer's actual stream sparsities, and plan/simulate with
// those. This is what the paper's controller would observe at runtime from
// its codec engines' statistics counters.
#pragma once

#include "core/morph.hpp"
#include "dataflow/executor.hpp"

namespace mocha::core {

struct CalibrationResult {
  /// Per-layer measured statistics (entries the functional pass could not
  /// observe fall back to the profile's assumption).
  std::vector<dataflow::LayerStreamStats> stats;
  /// The functional outputs (reusable as reference data).
  dataflow::FunctionalResult functional;
};

/// Runs `net` functionally on real data (full-tile plan, codecs off — the
/// measurement pass needs statistics, not timing) and returns per-layer
/// stream statistics, with `fallback` filling anything unmeasured.
CalibrationResult calibrate(const nn::Network& net,
                            const nn::ValueTensor& input,
                            const std::vector<nn::ValueTensor>& weights,
                            const nn::SparsityProfile& fallback = {},
                            const nn::Quant& quant = {});

}  // namespace mocha::core
