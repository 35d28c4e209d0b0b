#include "baseline/baselines.hpp"

#include <limits>

namespace mocha::baseline {

const char* strategy_name(Strategy strategy) {
  switch (strategy) {
    case Strategy::TilingOnly:
      return "tiling";
    case Strategy::MergeOnly:
      return "merge";
    case Strategy::ParallelOnly:
      return "parallel";
  }
  MOCHA_UNREACHABLE("bad Strategy");
}

namespace {

core::MorphOptions strategy_options(Strategy strategy,
                                    core::Objective objective) {
  core::MorphOptions options;
  options.objective = objective;
  options.allow_compression = false;  // substrate has no codec engines
  // Every baseline keeps basic tile-size/loop-order fitting — any real
  // accelerator sizes its buffers. What each one LACKS is the ability to
  // interleave the other optimization classes, which is exactly the
  // limitation the abstract ascribes to the state of the art.
  switch (strategy) {
    case Strategy::TilingOnly:
      // Pure tiled accelerator: no fusion, one monolithic PE group.
      options.allow_fusion = false;
      options.parallelism_options = {{1, 1}};
      break;
    case Strategy::MergeOnly:
      // Fused-layer accelerator (Alwani-style): fusion searched, but one
      // monolithic PE group.
      options.allow_fusion = true;
      options.parallelism_options = {{1, 1}};
      break;
    case Strategy::ParallelOnly:
      // Feature-map-parallel accelerator: PE-group splits searched (it
      // must split to exist), no fusion.
      options.allow_fusion = false;
      options.parallelism_options = {{2, 2}, {4, 1}, {1, 4},
                                     {4, 2}, {2, 4}, {4, 4}};
      break;
  }
  return options;
}

}  // namespace

core::Accelerator make_baseline_accelerator(Strategy strategy,
                                            model::TechParams tech,
                                            core::Objective objective) {
  return make_baseline_accelerator(
      strategy, fabric::baseline_config(strategy_name(strategy)), tech,
      objective);
}

core::Accelerator make_baseline_accelerator(Strategy strategy,
                                            fabric::FabricConfig config,
                                            model::TechParams tech,
                                            core::Objective objective) {
  config.name = strategy_name(strategy);
  config.has_compression = false;
  config.codec_units = 0;
  config.has_morph_controller = false;
  return core::Accelerator(std::move(config), tech,
                           strategy_options(strategy, objective));
}

NextBest next_best(const nn::Network& net, model::TechParams tech,
                   core::Objective objective) {
  NextBest best{Strategy::TilingOnly, {}};
  double best_score = std::numeric_limits<double>::infinity();
  for (Strategy strategy : kAllStrategies) {
    const core::Accelerator acc =
        make_baseline_accelerator(strategy, tech, objective);
    core::RunReport report = acc.run(net);
    const double score = core::objective_score(
        objective, static_cast<double>(report.total_cycles),
        report.total_energy_pj);
    if (score < best_score) {
      best_score = score;
      best.strategy = strategy;
      best.report = std::move(report);
    }
  }
  return best;
}

}  // namespace mocha::baseline
