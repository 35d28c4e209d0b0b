// Cross-layer invariant sweep: build and simulate every conv/fc layer of
// the benchmark networks under a range of plan shapes, asserting the
// invariants that must hold for ANY (layer, plan) pair:
//   * the engine's measured peak never exceeds the builder's bound,
//   * scratchpad allocation balances to zero,
//   * dense MAC accounting is conserved (no codec => layer.macs() exactly),
//   * DRAM reads are at least one full pass of each operand stream,
//   * the analytical cost model's DRAM prediction tracks the simulation.
#include <gtest/gtest.h>

#include <cstdint>

#include "dataflow/cost.hpp"
#include "dataflow/schedule.hpp"
#include "dataflow/tiling.hpp"

namespace mocha {
namespace {

using dataflow::LayerPlan;
using dataflow::LayerStreamStats;
using dataflow::LoopOrder;
using dataflow::NetworkPlan;
using nn::Index;

// gtest names each case after the raw bytes of its parameter, so the struct
// must have no padding: uninitialized padding would put stack garbage into
// the test names and change them from build to build. `zero` and `zero2`
// fill the slots the compiler would otherwise pad.
struct SweepCase {
  SweepCase(int n, std::size_t l, int s) : net_id(n), layer(l), shape(s) {}
  int net_id;           // 0 = alexnet, 1 = nin
  std::int32_t zero = 0;
  std::size_t layer;    // layer index within the network
  int shape;            // plan-shape variant
  std::int32_t zero2 = 0;
};
static_assert(sizeof(SweepCase) ==
              2 * sizeof(int) + 2 * sizeof(std::int32_t) + sizeof(std::size_t));

nn::Network sweep_network(int net_id) {
  return net_id == 0 ? nn::make_alexnet() : nn::make_nin();
}

LayerPlan shaped_plan(const nn::LayerSpec& layer, int shape) {
  LayerPlan plan;
  const Index oh = layer.out_h();
  const Index ow = layer.out_w();
  switch (shape) {
    case 0:  // full tile, weight-stationary
      plan.tile = {oh, ow, layer.in_c, layer.out_channels()};
      break;
    case 1:  // quarter tiles, half maps, WS
      plan.tile = {std::max<Index>(1, oh / 2), std::max<Index>(1, ow / 2),
                   layer.in_c, std::max<Index>(1, layer.out_channels() / 2)};
      break;
    case 2:  // small tiles, input-stationary with channel passes, 2x2 groups
      plan.tile = {std::max<Index>(1, oh / 4), std::max<Index>(1, ow / 4),
                   std::max<Index>(1, layer.in_c / 4),
                   std::max<Index>(1, layer.out_channels() / 4)};
      plan.order = LoopOrder::InputStationary;
      plan.inter_groups = 2;
      plan.intra_groups = 2;
      break;
    case 3:  // compressed streams, ragged tiles
      plan.tile = {std::max<Index>(1, oh / 3), std::max<Index>(1, ow / 3),
                   layer.in_c, std::max<Index>(1, layer.out_channels() / 3)};
      plan.ifmap_codec = compress::CodecKind::Zrle;
      plan.kernel_codec = compress::CodecKind::Bitmask;
      plan.ofmap_codec = compress::CodecKind::Zrle;
      plan.intra_groups = 4;
      break;
    default:
      MOCHA_UNREACHABLE("bad shape");
  }
  return plan;
}

class LayerPlanSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(LayerPlanSweep, InvariantsHold) {
  const auto& param = GetParam();
  const nn::Network net = sweep_network(param.net_id);
  const nn::LayerSpec& layer = net.layers[param.layer];
  const auto config = fabric::mocha_default_config();

  NetworkPlan plan;
  for (const nn::LayerSpec& l : net.layers) {
    LayerPlan lp;
    lp.tile = {l.out_h(), l.out_w(), l.in_c, l.out_channels()};
    plan.layers.push_back(lp);
  }
  plan.layers[param.layer] = shaped_plan(layer, param.shape);

  const std::vector<LayerStreamStats> stats(net.layers.size(),
                                            {0.5, 0.25, 0.5});
  const NetworkPlan::Group group{param.layer, param.layer};
  dataflow::BuiltSchedule built =
      dataflow::build_group_schedule(net, plan, group, config, stats);
  const sim::Engine engine(built.layout.specs);
  const sim::RunResult run = engine.run(built.graph);

  // Peak within the builder's bound.
  EXPECT_LE(run.peak_sram_bytes, built.footprint_bytes);

  // Allocation balance.
  std::int64_t balance = 0;
  for (const sim::Task& t : built.graph.tasks()) {
    balance += t.sram_alloc_bytes - t.sram_free_bytes;
  }
  EXPECT_EQ(balance, 0);

  // Dense MAC conservation (zero-skip active only when the ifmap stream
  // is coded; its floor bounds the reduction).
  const auto& lp = plan.layers[param.layer];
  if (lp.ifmap_codec == compress::CodecKind::None) {
    EXPECT_EQ(run.totals.macs, layer.macs());
  } else {
    // Per-chunk integer truncation loses at most one MAC per chunk.
    EXPECT_GE(run.totals.macs,
              static_cast<std::int64_t>(static_cast<double>(layer.macs()) *
                                        config.zero_skip_floor * 0.999));
    EXPECT_LE(run.totals.macs, layer.macs());
  }

  // DRAM reads cover at least one pass of each operand stream.
  std::int64_t min_reads = dataflow::coded_stream_bytes(
      config, lp.ifmap_codec,
      (layer.kind == nn::LayerKind::Pool ? layer.in_c : layer.in_c) *
          layer.in_h * layer.in_w,
      stats[param.layer].ifmap_sparsity);
  if (layer.has_weights()) {
    min_reads += dataflow::coded_stream_bytes(config, lp.kernel_codec,
                                              layer.weight_elems(),
                                              stats[param.layer].kernel_sparsity);
  }
  // Per-tile coding overheads can undercut the whole-tensor estimate by a
  // few percent; allow that slack, not more.
  EXPECT_GE(run.totals.dram_read_bytes,
            static_cast<std::int64_t>(0.9 * static_cast<double>(min_reads)));

  // Cost model tracks the simulated DRAM traffic.
  const auto est = dataflow::estimate_group_cost(net, plan, group, config,
                                                 stats, model::default_tech());
  const auto sim_bytes = static_cast<double>(run.totals.dram_read_bytes +
                                             run.totals.dram_write_bytes);
  EXPECT_NEAR(static_cast<double>(est.dram_bytes) / sim_bytes, 1.0, 0.15)
      << "est " << est.dram_bytes << " sim " << sim_bytes;
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  for (int net_id : {0, 1}) {
    const nn::Network net = sweep_network(net_id);
    for (std::size_t l = 0; l < net.layers.size(); ++l) {
      // Pool layers only support the WS-shaped variants.
      const int max_shape = net.layers[l].kind == nn::LayerKind::Pool ? 1 : 3;
      for (int shape = 0; shape <= max_shape; ++shape) {
        cases.push_back({net_id, l, shape});
      }
    }
  }
  return cases;
}

std::string sweep_name(const ::testing::TestParamInfo<SweepCase>& info) {
  const nn::Network net = sweep_network(info.param.net_id);
  return net.name + "_" + net.layers[info.param.layer].name + "_s" +
         std::to_string(info.param.shape);
}

INSTANTIATE_TEST_SUITE_P(BenchmarkLayers, LayerPlanSweep,
                         ::testing::ValuesIn(sweep_cases()), sweep_name);

}  // namespace
}  // namespace mocha
