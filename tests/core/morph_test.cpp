#include "core/morph.hpp"

#include <gtest/gtest.h>

#include "dataflow/cost.hpp"

namespace mocha::core {
namespace {

using dataflow::LayerStreamStats;
using dataflow::NetworkPlan;

std::vector<LayerStreamStats> stats_for(const nn::Network& net) {
  return assumed_stats(net, nn::SparsityProfile{});
}

MorphController make_controller(MorphOptions options = {}) {
  return MorphController(model::default_tech(), std::move(options));
}

TEST(Morph, PlansValidateOnBenchmarks) {
  const MorphController controller = make_controller();
  const auto config = fabric::mocha_default_config();
  for (const nn::Network& net :
       {nn::make_lenet5(), nn::make_alexnet()}) {
    const NetworkPlan plan = controller.plan(net, config, stats_for(net));
    EXPECT_NO_THROW(plan.validate(net)) << net.name;
  }
}

TEST(Morph, PlansFitScratchpad) {
  const MorphController controller = make_controller();
  const auto config = fabric::mocha_default_config();
  const nn::Network net = nn::make_alexnet();
  const auto stats = stats_for(net);
  const NetworkPlan plan = controller.plan(net, config, stats);
  for (const auto& group : plan.fusion_groups()) {
    const auto est = dataflow::estimate_group_cost(
        net, plan, group, config, stats, model::default_tech());
    EXPECT_LE(est.footprint_bytes, config.sram_bytes)
        << net.layers[group.first].name;
  }
}

TEST(Morph, UsesCompressionWhenAvailable) {
  const MorphController controller = make_controller();
  const nn::Network net = nn::make_alexnet();
  const NetworkPlan plan = controller.plan(
      net, fabric::mocha_default_config(), stats_for(net));
  int coded_streams = 0;
  for (const auto& lp : plan.layers) {
    coded_streams += (lp.ifmap_codec != compress::CodecKind::None) +
                     (lp.kernel_codec != compress::CodecKind::None) +
                     (lp.ofmap_codec != compress::CodecKind::None);
  }
  EXPECT_GT(coded_streams, 0) << "controller never chose a codec";
}

TEST(Morph, CompressionDisabledLeavesStreamsRaw) {
  MorphOptions options;
  options.allow_compression = false;
  const MorphController controller = make_controller(options);
  const nn::Network net = nn::make_lenet5();
  const NetworkPlan plan = controller.plan(
      net, fabric::mocha_default_config(), stats_for(net));
  for (const auto& lp : plan.layers) {
    EXPECT_EQ(lp.ifmap_codec, compress::CodecKind::None);
    EXPECT_EQ(lp.kernel_codec, compress::CodecKind::None);
    EXPECT_EQ(lp.ofmap_codec, compress::CodecKind::None);
  }
}

TEST(Morph, FusionDisabledYieldsSingletonGroups) {
  MorphOptions options;
  options.allow_fusion = false;
  const MorphController controller = make_controller(options);
  const nn::Network net = nn::make_lenet5();
  const NetworkPlan plan = controller.plan(
      net, fabric::mocha_default_config(), stats_for(net));
  for (const auto& group : plan.fusion_groups()) {
    EXPECT_EQ(group.size(), 1u);
  }
}

TEST(Morph, FusionRespectsMaxLength) {
  MorphOptions options;
  options.max_fusion_len = 2;
  const MorphController controller = make_controller(options);
  const nn::Network net = nn::make_vgg16();
  const NetworkPlan plan = controller.plan(
      net, fabric::mocha_default_config(), stats_for(net));
  for (const auto& group : plan.fusion_groups()) {
    EXPECT_LE(group.size(), 2u);
  }
}

TEST(Morph, NeverFusesThroughFc) {
  const MorphController controller = make_controller();
  const nn::Network net = nn::make_alexnet();
  const NetworkPlan plan = controller.plan(
      net, fabric::mocha_default_config(), stats_for(net));
  for (const auto& group : plan.fusion_groups()) {
    if (group.size() == 1) continue;
    for (std::size_t l = group.first; l <= group.last; ++l) {
      EXPECT_NE(net.layers[l].kind, nn::LayerKind::FullyConnected);
    }
  }
}

TEST(Morph, ParallelismStaysWithinOptions) {
  MorphOptions options;
  options.parallelism_options = {{1, 1}, {2, 2}};
  const MorphController controller = make_controller(options);
  const nn::Network net = nn::make_lenet5();
  const NetworkPlan plan = controller.plan(
      net, fabric::mocha_default_config(), stats_for(net));
  for (const auto& lp : plan.layers) {
    const bool allowed = (lp.inter_groups == 1 && lp.intra_groups == 1) ||
                         (lp.inter_groups == 2 && lp.intra_groups == 2);
    EXPECT_TRUE(allowed) << lp.summary();
  }
}

TEST(Morph, AdaptsToScratchpadSize) {
  // A tighter scratchpad must force smaller working sets.
  const MorphController controller = make_controller();
  const nn::Network net = nn::make_single_conv(64, 32, 32, 64, 3, 1, 1);
  const auto stats = stats_for(net);
  auto big = fabric::mocha_default_config();
  big.sram_bytes = 512 * 1024;
  auto small = fabric::mocha_default_config();
  small.sram_bytes = 16 * 1024;
  small.sram_banks = 8;
  const NetworkPlan big_plan = controller.plan(net, big, stats);
  const NetworkPlan small_plan = controller.plan(net, small, stats);
  const auto big_est = dataflow::estimate_group_cost(
      net, big_plan, {0, 0}, big, stats, model::default_tech());
  const auto small_est = dataflow::estimate_group_cost(
      net, small_plan, {0, 0}, small, stats, model::default_tech());
  EXPECT_LE(small_est.footprint_bytes, small.sram_bytes);
  EXPECT_GT(big_est.footprint_bytes, small_est.footprint_bytes);
}

TEST(Morph, ObjectiveChangesSelection) {
  // Planning for cycles vs energy may pick different plans; at minimum the
  // cycle-optimal plan must not be slower than the energy-optimal one.
  const nn::Network net = nn::make_alexnet();
  const auto config = fabric::mocha_default_config();
  const auto stats = stats_for(net);
  MorphOptions cycles_opt;
  cycles_opt.objective = Objective::Cycles;
  MorphOptions energy_opt;
  energy_opt.objective = Objective::Energy;
  const auto cycles_plan =
      make_controller(cycles_opt).plan(net, config, stats);
  const auto energy_plan =
      make_controller(energy_opt).plan(net, config, stats);

  auto total = [&](const NetworkPlan& plan, bool want_cycles) {
    double sum = 0;
    for (const auto& group : plan.fusion_groups()) {
      const auto est = dataflow::estimate_group_cost(
          net, plan, group, config, stats, model::default_tech());
      sum += want_cycles ? est.cycles : est.energy_pj;
    }
    return sum;
  };
  EXPECT_LE(total(cycles_plan, true), total(energy_plan, true) * 1.10);
  EXPECT_LE(total(energy_plan, false), total(cycles_plan, false) * 1.10);
}

TEST(Morph, DeterministicPlanning) {
  const MorphController controller = make_controller();
  const nn::Network net = nn::make_lenet5();
  const auto config = fabric::mocha_default_config();
  const auto stats = stats_for(net);
  const NetworkPlan a = controller.plan(net, config, stats);
  const NetworkPlan b = controller.plan(net, config, stats);
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    EXPECT_EQ(a.layers[i].summary(), b.layers[i].summary());
  }
}

TEST(Morph, AssumedStatsCoverAllLayers) {
  const nn::Network net = nn::make_alexnet();
  const auto stats = assumed_stats(net, nn::SparsityProfile{});
  ASSERT_EQ(stats.size(), net.layers.size());
  for (const auto& s : stats) {
    EXPECT_GE(s.ifmap_sparsity, 0.0);
    EXPECT_LE(s.ifmap_sparsity, 1.0);
    EXPECT_GE(s.ofmap_sparsity, 0.0);
    EXPECT_LE(s.ofmap_sparsity, 1.0);
  }
}

TEST(Morph, TraceCoversEveryGroup) {
  const MorphController controller = make_controller();
  const nn::Network net = nn::make_lenet5();
  const auto stats = stats_for(net);
  PlanTrace trace;
  const NetworkPlan plan = controller.plan_traced(
      net, fabric::mocha_default_config(), stats, 1, &trace);
  const auto groups = plan.fusion_groups();
  ASSERT_EQ(trace.size(), groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    EXPECT_EQ(trace[g].first_layer, groups[g].first);
    EXPECT_EQ(trace[g].last_layer, groups[g].last);
    EXPECT_GT(trace[g].analytical_candidates, 0u);
    ASSERT_FALSE(trace[g].finalists.empty());
    int chosen = 0;
    for (const auto& finalist : trace[g].finalists) {
      chosen += finalist.chosen ? 1 : 0;
      EXPECT_GT(finalist.cycles, 0.0);
      EXPECT_GT(finalist.energy_pj, 0.0);
    }
    EXPECT_EQ(chosen, 1);
  }
}

TEST(Morph, TracedPlanMatchesUntraced) {
  const MorphController controller = make_controller();
  const nn::Network net = nn::make_lenet5();
  const auto config = fabric::mocha_default_config();
  const auto stats = stats_for(net);
  PlanTrace trace;
  const NetworkPlan traced =
      controller.plan_traced(net, config, stats, 1, &trace);
  const NetworkPlan plain = controller.plan(net, config, stats);
  ASSERT_EQ(traced.layers.size(), plain.layers.size());
  for (std::size_t i = 0; i < traced.layers.size(); ++i) {
    EXPECT_EQ(traced.layers[i].summary(), plain.layers[i].summary());
  }
}

TEST(Morph, ChosenFinalistMatchesPlanSummary) {
  const MorphController controller = make_controller();
  const nn::Network net = nn::make_lenet5();
  const auto stats = stats_for(net);
  PlanTrace trace;
  const NetworkPlan plan = controller.plan_traced(
      net, fabric::mocha_default_config(), stats, 1, &trace);
  for (const GroupTrace& group : trace) {
    for (const auto& finalist : group.finalists) {
      if (!finalist.chosen) continue;
      // The chosen finalist's summary must describe the group head's plan
      // (modulo the fuse flag, which plan assembly sets afterwards).
      std::string expect = plan.layers[group.first_layer].summary();
      const std::string fuse_suffix = " +fuse";
      if (expect.size() > fuse_suffix.size() &&
          expect.compare(expect.size() - fuse_suffix.size(),
                         fuse_suffix.size(), fuse_suffix) == 0) {
        expect.resize(expect.size() - fuse_suffix.size());
      }
      EXPECT_EQ(finalist.plan_summary, expect);
    }
  }
}

TEST(Morph, ObjectiveNames) {
  EXPECT_STREQ(objective_name(Objective::Cycles), "cycles");
  EXPECT_STREQ(objective_name(Objective::Energy), "energy");
  EXPECT_STREQ(objective_name(Objective::EnergyDelayProduct), "edp");
}

}  // namespace
}  // namespace mocha::core
