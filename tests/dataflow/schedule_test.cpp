#include "dataflow/schedule.hpp"

#include <gtest/gtest.h>

#include "core/planner.hpp"
#include "dataflow/tiling.hpp"
#include "sim/dram.hpp"

namespace mocha::dataflow {
namespace {

using compress::CodecKind;

struct Harness {
  nn::Network net;
  NetworkPlan plan;
  fabric::FabricConfig config = fabric::mocha_default_config();
  std::vector<LayerStreamStats> stats;

  explicit Harness(nn::Network n) : net(std::move(n)) {
    for (const nn::LayerSpec& layer : net.layers) {
      LayerPlan lp;
      lp.tile = {layer.out_h(), layer.out_w(), layer.in_c,
                 layer.out_channels()};
      plan.layers.push_back(lp);
    }
    stats.assign(net.layers.size(), {0.5, 0.3, 0.5});
  }

  BuiltSchedule build(std::size_t first, std::size_t last) {
    return build_group_schedule(net, plan, {first, last}, config, stats);
  }

  sim::RunResult run(std::size_t first, std::size_t last) {
    BuiltSchedule built = build(first, last);
    return sim::Engine(built.layout.specs).run(built.graph);
  }
};

Harness small_conv_setup() {
  Harness s(nn::make_single_conv(4, 16, 16, 8, 3, 1, 1));
  s.plan.layers[0].tile = {8, 8, 4, 4};
  return s;
}

TEST(Schedule, GraphIsValidDag) {
  Harness s = small_conv_setup();
  BuiltSchedule built = s.build(0, 0);
  EXPECT_NO_THROW(built.graph.validate());
  EXPECT_GT(built.graph.size(), 0u);
}

TEST(Schedule, DramTrafficMatchesTilingWeightStationary) {
  Harness s = small_conv_setup();
  s.plan.layers[0].order = LoopOrder::WeightStationary;
  const sim::RunResult result = s.run(0, 0);
  // WS: ifmap re-streamed once per map pass (2 passes of tm=4 over 8 maps),
  // weights loaded once, ofmap stored once. No compression (codecs None).
  const nn::LayerSpec& layer = s.net.layers[0];
  const std::int64_t if_bytes_per_pass =
      pass_input_positions(layer, 8, 8) * layer.in_c * 2;
  const std::int64_t expected_reads =
      2 * if_bytes_per_pass + layer.weight_bytes();
  EXPECT_EQ(result.totals.dram_read_bytes, expected_reads);
  EXPECT_EQ(result.totals.dram_write_bytes, layer.ofmap_bytes());
}

TEST(Schedule, DramTrafficMatchesTilingInputStationary) {
  Harness s = small_conv_setup();
  s.plan.layers[0].order = LoopOrder::InputStationary;
  const sim::RunResult result = s.run(0, 0);
  const nn::LayerSpec& layer = s.net.layers[0];
  // IS: ifmap tiles once; weights re-streamed per spatial tile (4 tiles).
  const std::int64_t if_bytes =
      pass_input_positions(layer, 8, 8) * layer.in_c * 2;
  EXPECT_EQ(result.totals.dram_read_bytes,
            if_bytes + 4 * layer.weight_bytes());
}

TEST(Schedule, CompressionShrinksDramTraffic) {
  Harness plain = small_conv_setup();
  Harness coded = small_conv_setup();
  coded.plan.layers[0].ifmap_codec = CodecKind::Zrle;
  coded.plan.layers[0].kernel_codec = CodecKind::Bitmask;
  coded.plan.layers[0].ofmap_codec = CodecKind::Zrle;
  const auto plain_run = plain.run(0, 0);
  const auto coded_run = coded.run(0, 0);
  EXPECT_LT(coded_run.totals.dram_read_bytes,
            plain_run.totals.dram_read_bytes);
  EXPECT_LT(coded_run.totals.dram_write_bytes,
            plain_run.totals.dram_write_bytes);
  EXPECT_GT(coded_run.totals.codec_bytes, 0);
}

TEST(Schedule, CompressionIgnoredWithoutHardware) {
  Harness s = small_conv_setup();
  s.config = fabric::baseline_config("nocodec");
  s.plan.layers[0].ifmap_codec = CodecKind::Zrle;
  const auto run = s.run(0, 0);
  const nn::LayerSpec& layer = s.net.layers[0];
  const std::int64_t if_bytes =
      pass_input_positions(layer, 8, 8) * layer.in_c * 2;
  // Codec collapses to raw on a fabric without engines.
  EXPECT_EQ(run.totals.dram_read_bytes, 2 * if_bytes + layer.weight_bytes());
  EXPECT_EQ(run.totals.codec_bytes, 0);
}

TEST(Schedule, ZeroSkipReducesExecutedMacs) {
  Harness dense = small_conv_setup();
  dense.stats.assign(1, {0.0, 0.0, 0.0});
  dense.plan.layers[0].ifmap_codec = CodecKind::Zrle;
  Harness sparse = small_conv_setup();
  sparse.stats.assign(1, {0.6, 0.0, 0.0});
  sparse.plan.layers[0].ifmap_codec = CodecKind::Zrle;
  const auto dense_run = dense.run(0, 0);
  const auto sparse_run = sparse.run(0, 0);
  EXPECT_LT(sparse_run.totals.macs, dense_run.totals.macs);
  // Skipped MACs shorten the compute tasks themselves.
  const auto compute_cycles = [](Harness& h) {
    sim::Cycle total = 0;
    for (const sim::Task& t : h.build(0, 0).graph.tasks()) {
      if (t.kind == sim::TaskKind::Compute) total += t.duration;
    }
    return total;
  };
  EXPECT_LT(compute_cycles(sparse), compute_cycles(dense));
}

TEST(Schedule, NoZeroSkipWithoutCodedStream) {
  Harness sparse = small_conv_setup();
  sparse.stats.assign(1, {0.6, 0.0, 0.0});
  // No ifmap codec: PEs cannot skip; full dense MACs execute.
  const auto run = sparse.run(0, 0);
  EXPECT_EQ(run.totals.macs, sparse.net.layers[0].macs());
}

TEST(Schedule, MacsConserveDenseWorkAcrossTilings) {
  // Whatever the tiling, the dense MAC count charged must equal the
  // layer's nominal MACs (no codec => no skipping).
  for (Index th : {16, 8, 4, 2}) {
    for (Index tm : {8, 4, 1}) {
      Harness s(nn::make_single_conv(4, 16, 16, 8, 3, 1, 1));
      s.plan.layers[0].tile = {th, th, 4, tm};
      const auto run = s.run(0, 0);
      EXPECT_EQ(run.totals.macs, s.net.layers[0].macs())
          << "th=" << th << " tm=" << tm;
    }
  }
}

TEST(Schedule, FusedGroupSkipsIntermediateDram) {
  Harness s(nn::make_synthetic("pair", 16, 16, {8, 8}, 3, false));
  s.plan.layers[0].fuse_with_next = true;
  s.plan.layers[0].tile.tm = s.net.layers[0].out_channels();
  const auto fused = s.run(0, 1);
  // Only the head ifmap is read (plus weights); only the tail ofmap is
  // written.
  EXPECT_EQ(fused.totals.dram_write_bytes, s.net.layers[1].ofmap_bytes());

  Harness unfused(nn::make_synthetic("pair", 16, 16, {8, 8}, 3, false));
  const auto run0 = unfused.run(0, 0);
  const auto run1 = unfused.run(1, 1);
  EXPECT_LT(fused.totals.dram_write_bytes,
            run0.totals.dram_write_bytes + run1.totals.dram_write_bytes);
}

TEST(Schedule, FusedRecomputeChargesExtraMacs) {
  // With tiles smaller than the full map, the fused producer recomputes
  // halo regions: charged MACs exceed the nominal sum.
  Harness s(nn::make_synthetic("pair", 16, 16, {8, 8}, 3, false));
  s.plan.layers[0].fuse_with_next = true;
  s.plan.layers[1].tile.th = 4;
  s.plan.layers[1].tile.tw = 4;
  const auto run = s.run(0, 1);
  const std::int64_t nominal =
      s.net.layers[0].macs() + s.net.layers[1].macs();
  EXPECT_GT(run.totals.macs, nominal);
}

TEST(Schedule, PeakSramWithinBuilderBound) {
  for (Index th : {16, 4}) {
    Harness s = small_conv_setup();
    s.plan.layers[0].tile.th = th;
    BuiltSchedule built = s.build(0, 0);
    const auto run = sim::Engine(built.layout.specs).run(built.graph);
    EXPECT_LE(run.peak_sram_bytes, built.footprint_bytes) << "th=" << th;
  }
}

TEST(Schedule, SramBalancesToZero) {
  // Every alloc is matched by a free: engine would throw on negative, and
  // a graph ending with residual allocation means a leak. Rebuild and sum.
  Harness s = small_conv_setup();
  BuiltSchedule built = s.build(0, 0);
  std::int64_t balance = 0;
  for (const sim::Task& t : built.graph.tasks()) {
    balance += t.sram_alloc_bytes - t.sram_free_bytes;
  }
  EXPECT_EQ(balance, 0);
}

TEST(Schedule, SramBalancesToZeroFused) {
  Harness s(nn::make_synthetic("trio", 16, 16, {8, 8, 8}, 3, false));
  s.plan.layers[0].fuse_with_next = true;
  s.plan.layers[1].fuse_with_next = true;
  BuiltSchedule built = s.build(0, 2);
  std::int64_t balance = 0;
  for (const sim::Task& t : built.graph.tasks()) {
    balance += t.sram_alloc_bytes - t.sram_free_bytes;
  }
  EXPECT_EQ(balance, 0);
}

TEST(Schedule, DoubleBufferingOverlapsLoadAndCompute) {
  // With multiple tiles, some DMA time must hide under compute: makespan
  // strictly less than the serial sum of all task durations.
  Harness s = small_conv_setup();
  s.plan.layers[0].tile = {4, 4, 4, 8};
  BuiltSchedule built = s.build(0, 0);
  const auto run = sim::Engine(built.layout.specs).run(built.graph);
  sim::Cycle serial = 0;
  for (const sim::Task& t : built.graph.tasks()) serial += t.duration;
  EXPECT_LT(run.makespan, serial);
}

TEST(Schedule, ParallelGroupsReduceComputeSpan) {
  Harness one = small_conv_setup();
  Harness four = small_conv_setup();
  four.plan.layers[0].inter_groups = 2;
  four.plan.layers[0].intra_groups = 2;
  const auto run1 = one.run(0, 0);
  const auto run4 = four.run(0, 0);
  // Same dense MACs, same DRAM traffic; the split only changes concurrency.
  EXPECT_EQ(run1.totals.macs, run4.totals.macs);
  EXPECT_EQ(run1.totals.dram_read_bytes, run4.totals.dram_read_bytes);
}

TEST(Schedule, PoolLayerHasNoWeightTraffic) {
  Harness s(nn::Network{});
  s.net = nn::make_lenet5();
  s.plan.layers.clear();
  for (const nn::LayerSpec& layer : s.net.layers) {
    LayerPlan lp;
    lp.tile = {layer.out_h(), layer.out_w(), layer.in_c,
               layer.out_channels()};
    s.plan.layers.push_back(lp);
  }
  s.stats.assign(s.net.layers.size(), {0.5, 0.3, 0.5});
  const auto run = s.run(1, 1);  // s2 pool
  const nn::LayerSpec& pool = s.net.layers[1];
  EXPECT_EQ(run.totals.dram_read_bytes, pool.ifmap_bytes());
  EXPECT_EQ(run.totals.dram_write_bytes, pool.ofmap_bytes());
}

TEST(Schedule, FcLayerStreamsWeightsOnce) {
  nn::Network net;
  net.name = "fc";
  net.layers = {nn::fc_layer("f", 256, 64, false)};
  Harness s(std::move(net));
  s.plan.layers[0].order = LoopOrder::InputStationary;
  s.plan.layers[0].tile = {1, 1, 64, 16};
  const auto run = s.run(0, 0);
  EXPECT_EQ(run.totals.dram_read_bytes,
            s.net.layers[0].weight_bytes() + s.net.layers[0].ifmap_bytes());
}

TEST(Schedule, RejectsMismatchedStats) {
  Harness s = small_conv_setup();
  s.stats.clear();
  EXPECT_THROW(s.build(0, 0), util::CheckFailure);
}

TEST(Schedule, RejectsBadGroupRange) {
  Harness s = small_conv_setup();
  EXPECT_THROW(
      build_group_schedule(s.net, s.plan, {0, 5}, s.config, s.stats),
      util::CheckFailure);
}

TEST(Schedule, FusedMembersMustShareParallelism) {
  Harness s(nn::make_synthetic("pair", 16, 16, {8, 8}, 3, false));
  s.plan.layers[0].fuse_with_next = true;
  s.plan.layers[0].inter_groups = 2;  // head 2 groups, member 1 group
  EXPECT_THROW(s.build(0, 1), util::CheckFailure);
}

}  // namespace
}  // namespace mocha::dataflow
