// Accelerator top level: plan a network, simulate it, report.
//
// The public entry point downstream users interact with:
//
//   auto acc = mocha::core::make_mocha_accelerator();
//   mocha::core::RunReport report = acc.run(mocha::nn::make_alexnet());
//
// The same runner and the same morph controller drive the baselines — only
// the MorphOptions differ — so every comparison in the experiment harness
// is apples-to-apples.
#pragma once

#include <functional>

#include "core/morph.hpp"
#include "core/report.hpp"
#include "dataflow/schedule.hpp"
#include "fabric/config.hpp"
#include "model/tech.hpp"
#include "nn/generate.hpp"

namespace mocha::core {

class Accelerator {
 public:
  /// An accelerator on `config` whose morph controller searches under
  /// `options`.
  Accelerator(fabric::FabricConfig config, model::TechParams tech,
              MorphOptions options);

  /// Plans and simulates `net` with sparsity statistics from `profile`.
  /// `batch` inputs are processed together (weights amortize across them).
  RunReport run(const nn::Network& net,
                const nn::SparsityProfile& profile = {},
                nn::Index batch = 1) const;

  /// Plans with the accelerator's morph controller; exposed so experiments
  /// can inspect or reuse decisions.
  dataflow::NetworkPlan plan(
      const nn::Network& net,
      const std::vector<dataflow::LayerStreamStats>& stats,
      nn::Index batch = 1) const;

  /// Called once per fusion group, in order, with the group's index, its
  /// executed schedule and the detailed engine result.
  using GroupObserver =
      std::function<void(std::size_t group, const dataflow::BuiltSchedule& built,
                         const sim::RunResult& run)>;

  /// Simulates a caller-supplied plan (ablations, replays of functional
  /// measurements). `observer`, when set, sees every group as it runs
  /// without changing the report: offline analyses such as the critical
  /// path (obs/critpath.hpp), which run_with_plan itself computes only for
  /// the flow events of a trace session, and schedule export.
  RunReport run_with_plan(
      const nn::Network& net, const dataflow::NetworkPlan& plan,
      const std::vector<dataflow::LayerStreamStats>& stats,
      nn::Index batch = 1, const GroupObserver& observer = {}) const;

  const fabric::FabricConfig& config() const { return config_; }
  const model::TechParams& tech() const { return tech_; }

 private:
  fabric::FabricConfig config_;
  model::TechParams tech_;
  MorphController planner_;
};

/// MOCHA with all three differentiators enabled.
Accelerator make_mocha_accelerator(
    fabric::FabricConfig config = fabric::mocha_default_config(),
    model::TechParams tech = model::default_tech(),
    Objective objective = Objective::EnergyDelayProduct);

/// Fabric context-switch cost charged when entering the fusion group whose
/// head layer is `group_first` — the same number run_with_plan folds into
/// each GroupReport, factored out so offline analyzers (mocha_sim
/// --critpath-out) reconstruct identical totals.
std::int64_t group_reconfig_cycles(const fabric::FabricConfig& config,
                                   const dataflow::NetworkPlan& plan,
                                   std::size_t group_first);

}  // namespace mocha::core
