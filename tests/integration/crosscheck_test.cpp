// Functional <-> performance cross-validation.
//
// The functional executor measures *real* coded stream sizes (actual data
// through the actual codecs, tile by tile); the performance schedule charges
// *modelled* sizes (the analytical estimator on assumed sparsity). Running
// both on the SAME plan and the SAME measured sparsity closes the loop: the
// bytes the simulator bills for must match the bytes the real machine would
// move, within the estimator's documented tolerance.
#include <gtest/gtest.h>

#include <cstdint>

#include "dataflow/executor.hpp"
#include "dataflow/schedule.hpp"
#include "nn/generate.hpp"

namespace mocha {
namespace {

using dataflow::LayerPlan;
using dataflow::LayerStreamStats;
using dataflow::NetworkPlan;
using nn::Index;

// No padding, so the case's ctest name (built from its raw bytes) holds no
// stack garbage; `zero` fills the slot between `codec` and `th`.
struct CrossCase {
  CrossCase(double s, compress::CodecKind c, Index t)
      : sparsity(s), codec(c), th(t) {}
  double sparsity;
  compress::CodecKind codec;
  std::int32_t zero = 0;
  Index th;
};
static_assert(sizeof(CrossCase) == sizeof(double) +
                                       sizeof(compress::CodecKind) +
                                       sizeof(std::int32_t) + sizeof(Index));

class StreamCrossCheck : public ::testing::TestWithParam<CrossCase> {};

TEST_P(StreamCrossCheck, BilledBytesMatchRealCodedStreams) {
  const auto& param = GetParam();
  const nn::Network net = nn::make_single_conv(8, 24, 24, 8, 3, 1, 1);
  const nn::LayerSpec& layer = net.layers[0];

  NetworkPlan plan;
  LayerPlan lp;
  lp.tile = {param.th, param.th, layer.in_c, layer.out_channels()};
  lp.ifmap_codec = param.codec;
  lp.kernel_codec = param.codec;
  plan.layers = {lp};

  // Real data at the requested sparsity.
  util::Rng rng(911 + static_cast<std::uint64_t>(param.th));
  const nn::ValueTensor input =
      nn::random_tensor(layer.input_shape(), param.sparsity, rng);
  const auto weights = nn::random_weights(net, param.sparsity, rng);

  // Functional pass: measured coded bytes per stream.
  const auto functional =
      dataflow::run_functional(net, plan, input, weights, {});

  // Performance pass with the *measured* sparsities.
  std::vector<LayerStreamStats> stats(1);
  stats[0].ifmap_sparsity = functional.measured_stats[0].ifmap_sparsity;
  stats[0].kernel_sparsity = functional.measured_stats[0].kernel_sparsity;
  stats[0].ofmap_sparsity = functional.measured_stats[0].ofmap_sparsity;
  const auto config = fabric::mocha_default_config();
  dataflow::BuiltSchedule built =
      dataflow::build_group_schedule(net, plan, {0, 0}, config, stats);
  const auto run = sim::Engine(built.layout.specs).run(built.graph);

  // WS full-maps plan: the ifmap is streamed exactly once, weights once.
  const std::int64_t billed_reads = run.totals.dram_read_bytes;
  const std::int64_t real_reads =
      functional.streams[0].ifmap_coded + functional.streams[0].kernel_coded;
  EXPECT_NEAR(static_cast<double>(billed_reads) /
                  static_cast<double>(real_reads),
              1.0, 0.12)
      << "billed " << billed_reads << " real " << real_reads << " ("
      << compress::codec_name(param.codec) << ", s=" << param.sparsity
      << ", th=" << param.th << ")";
}

INSTANTIATE_TEST_SUITE_P(
    CodecsAndSparsities, StreamCrossCheck,
    ::testing::Values(CrossCase{0.1, compress::CodecKind::Zrle, 24},
                      CrossCase{0.5, compress::CodecKind::Zrle, 24},
                      CrossCase{0.8, compress::CodecKind::Zrle, 24},
                      CrossCase{0.5, compress::CodecKind::Zrle, 6},
                      CrossCase{0.8, compress::CodecKind::Zrle, 6},
                      CrossCase{0.1, compress::CodecKind::Bitmask, 24},
                      CrossCase{0.5, compress::CodecKind::Bitmask, 24},
                      CrossCase{0.5, compress::CodecKind::Bitmask, 6},
                      CrossCase{0.0, compress::CodecKind::None, 24},
                      CrossCase{0.5, compress::CodecKind::None, 8}),
    [](const ::testing::TestParamInfo<CrossCase>& info) {
      return std::string(compress::codec_name(info.param.codec)) + "_s" +
             std::to_string(static_cast<int>(info.param.sparsity * 100)) +
             "_th" + std::to_string(info.param.th);
    });

TEST(StreamCrossCheck, OfmapStoreBytesMatchMeasured) {
  // Output path: the simulator's billed store bytes vs the real coded size
  // of the actual computed output at the measured output sparsity.
  const nn::Network net = nn::make_single_conv(6, 20, 20, 6, 3, 1, 1);
  NetworkPlan plan;
  LayerPlan lp;
  lp.tile = {20, 20, 6, 6};
  lp.ofmap_codec = compress::CodecKind::Zrle;
  plan.layers = {lp};

  util::Rng rng(4242);
  const nn::ValueTensor input =
      nn::random_tensor(net.layers[0].input_shape(), 0.3, rng);
  const auto weights = nn::random_weights(net, 0.3, rng);
  const auto functional =
      dataflow::run_functional(net, plan, input, weights, {});

  std::vector<LayerStreamStats> stats(1);
  stats[0].ofmap_sparsity = functional.measured_stats[0].ofmap_sparsity;
  const auto config = fabric::mocha_default_config();
  dataflow::BuiltSchedule built =
      dataflow::build_group_schedule(net, plan, {0, 0}, config, stats);
  const auto run = sim::Engine(built.layout.specs).run(built.graph);

  EXPECT_NEAR(static_cast<double>(run.totals.dram_write_bytes) /
                  static_cast<double>(functional.streams[0].ofmap_coded),
              1.0, 0.12);
}

TEST(StreamCrossCheck, FusedGroupHeadStreamMatches) {
  nn::Network net = nn::make_synthetic("pair", 20, 20, {6, 6}, 3, false);
  NetworkPlan plan;
  for (const nn::LayerSpec& l : net.layers) {
    LayerPlan lp;
    lp.tile = {l.out_h(), l.out_w(), l.in_c, l.out_channels()};
    plan.layers.push_back(lp);
  }
  plan.layers[0].fuse_with_next = true;
  plan.layers[0].ifmap_codec = compress::CodecKind::Zrle;
  plan.layers[1].tile.th = 5;
  plan.layers[1].tile.tw = 5;

  util::Rng rng(515);
  const nn::ValueTensor input =
      nn::random_tensor(net.layers[0].input_shape(), 0.5, rng);
  const auto weights = nn::random_weights(net, 0.2, rng);
  const auto functional =
      dataflow::run_functional(net, plan, input, weights, {});

  std::vector<LayerStreamStats> stats(2);
  stats[0].ifmap_sparsity = functional.measured_stats[0].ifmap_sparsity;
  const auto config = fabric::mocha_default_config();
  dataflow::BuiltSchedule built =
      dataflow::build_group_schedule(net, plan, {0, 1}, config, stats);
  const auto run = sim::Engine(built.layout.specs).run(built.graph);

  // Billed head-ifmap reads = total DRAM reads minus the (uncoded) weights.
  std::int64_t w_bytes = 0;
  for (const auto& l : net.layers) w_bytes += l.weight_bytes();
  const std::int64_t billed_ifmap = run.totals.dram_read_bytes - w_bytes;
  EXPECT_NEAR(static_cast<double>(billed_ifmap) /
                  static_cast<double>(functional.streams[0].ifmap_coded),
              1.0, 0.12);
}

}  // namespace
}  // namespace mocha
