// Cross-module integration: the controller's chosen plans execute correctly
// on real data, and the performance simulation of those same plans is
// internally consistent.
#include <gtest/gtest.h>

#include "baseline/baselines.hpp"
#include "core/accelerator.hpp"
#include "core/morph.hpp"
#include "dataflow/executor.hpp"
#include "nn/generate.hpp"

namespace mocha {
namespace {

/// MOCHA's own plan for a network, executed functionally, must match the
/// reference bit-exactly — for MOCHA and for every baseline planner.
class PlannedExecutionMatchesReference
    : public ::testing::TestWithParam<int> {};

TEST_P(PlannedExecutionMatchesReference, OnLenet) {
  const int which = GetParam();
  const core::Accelerator acc =
      which == 0 ? core::make_mocha_accelerator()
                 : baseline::make_baseline_accelerator(
                       static_cast<baseline::Strategy>(which - 1));
  const nn::Network net = nn::make_lenet5();
  const auto stats = core::assumed_stats(net, nn::SparsityProfile{});
  const dataflow::NetworkPlan plan = acc.plan(net, stats);

  util::Rng rng(2024);
  const nn::ValueTensor input =
      nn::random_tensor(net.layers.front().input_shape(), 0.2, rng);
  const auto weights = nn::random_weights(net, 0.3, rng);
  const nn::Quant quant;
  const auto functional =
      dataflow::run_functional(net, plan, input, weights, {quant, true});
  const auto reference = nn::run_network_ref(net, input, weights, quant);
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    EXPECT_TRUE(functional.outputs[i] == reference[i])
        << acc.config().name << " layer " << net.layers[i].name;
  }
}

std::string planner_name(const ::testing::TestParamInfo<int>& info) {
  static const char* const names[] = {"mocha", "tiling", "merge", "parallel"};
  return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllPlanners, PlannedExecutionMatchesReference,
                         ::testing::Range(0, 4), planner_name);

TEST(Integration, MeasuredStatsFeedBackIntoSimulation) {
  // Close the loop: measure real sparsities functionally, re-simulate with
  // them, and check the run stays consistent (fits, produces energy).
  const core::Accelerator acc = core::make_mocha_accelerator();
  const nn::Network net = nn::make_lenet5();
  auto stats = core::assumed_stats(net, nn::SparsityProfile{});
  const auto plan = acc.plan(net, stats);

  util::Rng rng(7);
  const nn::ValueTensor input =
      nn::random_tensor(net.layers.front().input_shape(), 0.3, rng);
  const auto weights = nn::random_weights(net, 0.3, rng);
  const auto functional =
      dataflow::run_functional(net, plan, input, weights, {});

  // Substitute measured sparsities where the executor observed them.
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    if (functional.streams[i].ifmap_raw > 0) {
      stats[i].ifmap_sparsity = functional.measured_stats[i].ifmap_sparsity;
    }
    if (functional.streams[i].kernel_raw > 0) {
      stats[i].kernel_sparsity = functional.measured_stats[i].kernel_sparsity;
    }
  }
  const core::RunReport report = acc.run_with_plan(net, plan, stats);
  EXPECT_TRUE(report.sram_ok);
  EXPECT_GT(report.total_energy_pj, 0.0);
}

TEST(Integration, MochaBeatsEveryBaselineOnAlexnetEdp) {
  // The headline direction: on the shared substrate, MOCHA's flexibility
  // must strictly win the energy-delay product on AlexNet.
  const core::RunReport mocha =
      core::make_mocha_accelerator().run(nn::make_alexnet());
  const double mocha_edp =
      mocha.total_energy_pj * static_cast<double>(mocha.total_cycles);
  for (baseline::Strategy strategy : baseline::kAllStrategies) {
    const core::RunReport base =
        baseline::make_baseline_accelerator(strategy).run(nn::make_alexnet());
    const double base_edp =
        base.total_energy_pj * static_cast<double>(base.total_cycles);
    EXPECT_LT(mocha_edp, base_edp) << baseline::strategy_name(strategy);
  }
}

TEST(Integration, CompressionAblationHelpsOnSparseWorkload) {
  // MOCHA with codecs disabled (same hardware) must not beat full MOCHA on
  // EDP for a sparse workload — compression is a pure win there.
  const nn::Network net = nn::make_alexnet();
  const core::RunReport full = core::make_mocha_accelerator().run(net);

  core::MorphOptions no_comp;
  no_comp.allow_compression = false;
  const core::Accelerator crippled(fabric::mocha_default_config(),
                                   model::default_tech(), no_comp);
  const core::RunReport stripped = crippled.run(net);
  const double full_edp =
      full.total_energy_pj * static_cast<double>(full.total_cycles);
  const double stripped_edp =
      stripped.total_energy_pj * static_cast<double>(stripped.total_cycles);
  EXPECT_LT(full_edp, stripped_edp);
}

TEST(Integration, VggRunsEndToEndOnAllAccelerators) {
  const nn::Network net = nn::make_vgg16();
  const core::RunReport mocha = core::make_mocha_accelerator().run(net);
  EXPECT_TRUE(mocha.sram_ok);
  EXPECT_GT(mocha.throughput_gops(), 0.0);
  for (baseline::Strategy strategy : baseline::kAllStrategies) {
    const core::RunReport report =
        baseline::make_baseline_accelerator(strategy).run(net);
    EXPECT_TRUE(report.sram_ok) << baseline::strategy_name(strategy);
  }
}

}  // namespace
}  // namespace mocha
