#include "core/accelerator.hpp"

#include <gtest/gtest.h>

#include "core/morph.hpp"
#include "core/report_json.hpp"

namespace mocha::core {
namespace {

TEST(Accelerator, RunsLenetAndReports) {
  const Accelerator acc = make_mocha_accelerator();
  const RunReport report = acc.run(nn::make_lenet5());
  EXPECT_EQ(report.network, "lenet5");
  EXPECT_EQ(report.accelerator, "mocha");
  EXPECT_GT(report.total_cycles, 0u);
  EXPECT_GT(report.total_energy_pj, 0.0);
  EXPECT_EQ(report.total_dense_macs, nn::make_lenet5().total_macs());
  EXPECT_TRUE(report.sram_ok);
}

TEST(Accelerator, GroupReportsCoverAllLayers) {
  const Accelerator acc = make_mocha_accelerator();
  const nn::Network net = nn::make_alexnet();
  const RunReport report = acc.run(net);
  std::vector<bool> covered(net.layers.size(), false);
  for (const GroupReport& group : report.groups) {
    for (std::size_t l = group.first_layer; l <= group.last_layer; ++l) {
      EXPECT_FALSE(covered[l]) << "layer " << l << " in two groups";
      covered[l] = true;
    }
  }
  for (std::size_t l = 0; l < covered.size(); ++l) {
    EXPECT_TRUE(covered[l]) << "layer " << l << " unscheduled";
  }
}

TEST(Accelerator, TotalsSumGroups) {
  const Accelerator acc = make_mocha_accelerator();
  const RunReport report = acc.run(nn::make_lenet5());
  sim::Cycle cycles = 0;
  double energy = 0;
  std::int64_t dram = 0;
  for (const GroupReport& group : report.groups) {
    cycles += group.cycles;
    energy += group.energy.total_pj();
    dram += group.dram_bytes;
  }
  EXPECT_EQ(report.total_cycles, cycles);
  EXPECT_NEAR(report.total_energy_pj, energy, 1e-6);
  EXPECT_EQ(report.total_dram_bytes, dram);
}

TEST(Accelerator, ThroughputUsesDenseMacs) {
  const Accelerator acc = make_mocha_accelerator();
  const RunReport report = acc.run(nn::make_lenet5());
  const double expected =
      2.0 * static_cast<double>(report.total_dense_macs) /
      (static_cast<double>(report.total_cycles) / report.clock_ghz);
  EXPECT_DOUBLE_EQ(report.throughput_gops(), expected);
  // Cannot beat the peak arithmetic rate.
  EXPECT_LE(report.throughput_gops(), acc.config().peak_gops() * 1.0001);
}

TEST(Accelerator, EfficiencyUnits) {
  RunReport report;
  report.clock_ghz = 1.0;
  report.total_dense_macs = 500;  // 1000 ops
  report.total_energy_pj = 1000.0;  // 1 nJ
  // 1000 ops per nJ == 1000 GOPS/W.
  EXPECT_DOUBLE_EQ(report.efficiency_gops_per_w(), 1000.0);
}

TEST(Accelerator, RuntimeMsUnits) {
  RunReport report;
  report.clock_ghz = 0.2;
  report.total_cycles = 200'000;  // 1 ms at 200 MHz
  EXPECT_DOUBLE_EQ(report.runtime_ms(), 1.0);
}

TEST(Accelerator, ReconfigChargedPerGroup) {
  const Accelerator acc = make_mocha_accelerator();
  const RunReport report = acc.run(nn::make_lenet5());
  for (const GroupReport& group : report.groups) {
    EXPECT_EQ(group.counts.reconfigs, 1);
    EXPECT_GE(group.cycles,
              static_cast<sim::Cycle>(acc.config().reconfig_cycles));
  }
}

TEST(Accelerator, GroupForLayerLookup) {
  const Accelerator acc = make_mocha_accelerator();
  const nn::Network net = nn::make_lenet5();
  const RunReport report = acc.run(net);
  for (std::size_t l = 0; l < net.layers.size(); ++l) {
    const GroupReport* group = report.group_for_layer(l);
    ASSERT_NE(group, nullptr);
    EXPECT_GE(l, group->first_layer);
    EXPECT_LE(l, group->last_layer);
  }
  EXPECT_EQ(report.group_for_layer(99), nullptr);
}

TEST(Accelerator, RunWithExplicitPlanMatchesRun) {
  const Accelerator acc = make_mocha_accelerator();
  const nn::Network net = nn::make_lenet5();
  const auto stats = assumed_stats(net, nn::SparsityProfile{});
  const auto plan = acc.plan(net, stats);
  const RunReport via_plan = acc.run_with_plan(net, plan, stats);
  const RunReport direct = acc.run(net);
  EXPECT_EQ(via_plan.total_cycles, direct.total_cycles);
  EXPECT_NEAR(via_plan.total_energy_pj, direct.total_energy_pj, 1e-6);
}

TEST(Accelerator, ObserverSeesEveryGroupOnceInOrder) {
  const Accelerator acc = make_mocha_accelerator();
  const nn::Network net = nn::make_lenet5();
  const auto stats = assumed_stats(net, nn::SparsityProfile{});
  const auto plan = acc.plan(net, stats);
  const RunReport plain = acc.run_with_plan(net, plan, stats);

  std::vector<std::size_t> seen;
  std::vector<sim::Cycle> makespans;
  const RunReport observed = acc.run_with_plan(
      net, plan, stats, 1,
      [&](std::size_t group, const dataflow::BuiltSchedule& built,
          const sim::RunResult& run) {
        seen.push_back(group);
        makespans.push_back(run.makespan);
        EXPECT_EQ(run.task_count, built.graph.size());
      });

  ASSERT_EQ(seen.size(), plain.groups.size());
  for (std::size_t g = 0; g < seen.size(); ++g) {
    EXPECT_EQ(seen[g], g);
    // The observed run is the one the report's group describes.
    EXPECT_EQ(plain.groups[g].cycles,
              makespans[g] + static_cast<sim::Cycle>(group_reconfig_cycles(
                                 acc.config(), plan,
                                 plain.groups[g].first_layer)));
  }
  // Observing changes nothing the report carries.
  EXPECT_EQ(report_to_json(observed), report_to_json(plain));
}

TEST(Accelerator, PeakSramWithinConfig) {
  const Accelerator acc = make_mocha_accelerator();
  for (const nn::Network& net : {nn::make_lenet5(), nn::make_alexnet()}) {
    const RunReport report = acc.run(net);
    EXPECT_TRUE(report.sram_ok) << net.name;
    EXPECT_LE(report.peak_sram_bytes, acc.config().sram_bytes) << net.name;
  }
}

TEST(Accelerator, NullPlannerRejected) {
  EXPECT_THROW(Accelerator(fabric::mocha_default_config(),
                           model::default_tech(), nullptr),
               util::CheckFailure);
}

TEST(Accelerator, EnergyBreakdownHasDramComponent) {
  const Accelerator acc = make_mocha_accelerator();
  const RunReport report = acc.run(nn::make_lenet5());
  double dram_pj = 0;
  for (const GroupReport& group : report.groups) {
    dram_pj += group.energy.dram_pj;
  }
  EXPECT_GT(dram_pj, 0.0);
}

}  // namespace
}  // namespace mocha::core
