// Functional verification: tiled/fused/channel-passed execution must match
// the naive reference kernels element-exact, for every plan shape.
#include "dataflow/executor.hpp"

#include <gtest/gtest.h>

#include "dataflow/tiling.hpp"
#include "nn/generate.hpp"

namespace mocha::dataflow {
namespace {

using compress::CodecKind;

struct Fixture {
  nn::Network net;
  nn::ValueTensor input;
  std::vector<nn::ValueTensor> weights;
  std::vector<nn::ValueTensor> reference;
  nn::Quant quant;

  explicit Fixture(nn::Network n, double input_sparsity = 0.2,
                   double kernel_sparsity = 0.3, std::uint64_t seed = 7)
      : net(std::move(n)) {
    util::Rng rng(seed);
    input = nn::random_tensor(net.layers.front().input_shape(),
                              input_sparsity, rng);
    weights = nn::random_weights(net, kernel_sparsity, rng);
    reference = nn::run_network_ref(net, input, weights, quant);
  }

  NetworkPlan neutral_plan() const {
    NetworkPlan plan;
    for (const nn::LayerSpec& layer : net.layers) {
      LayerPlan lp;
      lp.tile = {layer.out_h(), layer.out_w(), layer.in_c,
                 layer.out_channels()};
      plan.layers.push_back(lp);
    }
    return plan;
  }

  void expect_matches(const NetworkPlan& plan) const {
    const FunctionalResult result =
        run_functional(net, plan, input, weights, {quant, true});
    ASSERT_EQ(result.outputs.size(), net.layers.size());
    for (std::size_t i = 0; i < net.layers.size(); ++i) {
      EXPECT_TRUE(result.outputs[i] == reference[i])
          << net.name << " layer " << net.layers[i].name;
    }
  }
};

TEST(Executor, FullTilesMatchReference) {
  Fixture f(nn::make_lenet5());
  f.expect_matches(f.neutral_plan());
}

TEST(Executor, SpatialTilingMatchesReference) {
  Fixture f(nn::make_single_conv(4, 17, 19, 8, 3, 1, 1));
  NetworkPlan plan = f.neutral_plan();
  plan.layers[0].tile.th = 5;  // ragged against 17
  plan.layers[0].tile.tw = 4;  // ragged against 19
  f.expect_matches(plan);
}

TEST(Executor, ChannelPassesMatchReference) {
  Fixture f(nn::make_single_conv(24, 8, 8, 4, 3, 1, 1));
  NetworkPlan plan = f.neutral_plan();
  plan.layers[0].tile.tc = 7;  // ragged channel chunks
  f.expect_matches(plan);
}

TEST(Executor, StridedConvTiled) {
  Fixture f(nn::make_single_conv(3, 23, 23, 6, 5, 2, 0));
  NetworkPlan plan = f.neutral_plan();
  plan.layers[0].tile.th = 3;
  plan.layers[0].tile.tw = 4;
  f.expect_matches(plan);
}

TEST(Executor, AlexNetConv1GeometryTiled) {
  // Large kernel + stride 4, no padding — the halo math worst case.
  Fixture f(nn::make_single_conv(3, 64, 64, 4, 11, 4, 0), 0.1, 0.2, 11);
  NetworkPlan plan = f.neutral_plan();
  plan.layers[0].tile.th = 5;
  plan.layers[0].tile.tw = 6;
  f.expect_matches(plan);
}

TEST(Executor, FusedConvPoolMatchesReference) {
  nn::Network net;
  net.name = "cp";
  net.layers = {nn::conv_layer("c", 3, 16, 16, 8, 3, 1, 1),
                nn::pool_layer("p", 8, 16, 16, 2, 2)};
  net.validate();
  Fixture f(std::move(net));
  NetworkPlan plan = f.neutral_plan();
  plan.layers[0].fuse_with_next = true;
  plan.layers[1].tile.th = 3;  // ragged pool tiles
  plan.layers[1].tile.tw = 3;
  f.expect_matches(plan);
}

TEST(Executor, FusedConvConvMatchesReference) {
  Fixture f(nn::make_synthetic("cc", 16, 16, {8, 8}, 3, false));
  NetworkPlan plan = f.neutral_plan();
  plan.layers[0].fuse_with_next = true;
  plan.layers[1].tile.th = 4;
  plan.layers[1].tile.tw = 5;
  f.expect_matches(plan);
}

TEST(Executor, FusedTripleChainMatchesReference) {
  nn::Network net;
  net.name = "ccp";
  net.layers = {nn::conv_layer("c1", 3, 20, 20, 6, 3, 1, 1),
                nn::conv_layer("c2", 6, 20, 20, 8, 3, 1, 1),
                nn::pool_layer("p", 8, 20, 20, 2, 2)};
  net.validate();
  Fixture f(std::move(net));
  NetworkPlan plan = f.neutral_plan();
  plan.layers[0].fuse_with_next = true;
  plan.layers[1].fuse_with_next = true;
  plan.layers[2].tile.th = 3;
  plan.layers[2].tile.tw = 4;
  f.expect_matches(plan);
}

TEST(Executor, WholeLenetWithAggressiveTiling) {
  Fixture f(nn::make_lenet5());
  NetworkPlan plan = f.neutral_plan();
  for (std::size_t i = 0; i < plan.layers.size(); ++i) {
    plan.layers[i].tile.th = std::max<nn::Index>(1, plan.layers[i].tile.th / 3);
    plan.layers[i].tile.tw = std::max<nn::Index>(1, plan.layers[i].tile.tw / 2);
    if (f.net.layers[i].kind == nn::LayerKind::Conv) {
      plan.layers[i].tile.tc =
          std::max<nn::Index>(1, plan.layers[i].tile.tc / 2);
    }
  }
  f.expect_matches(plan);
}

TEST(Executor, CodecsRoundTripRealStreams) {
  Fixture f(nn::make_single_conv(4, 12, 12, 8, 3, 1, 1), 0.5, 0.4);
  NetworkPlan plan = f.neutral_plan();
  plan.layers[0].ifmap_codec = CodecKind::Zrle;
  plan.layers[0].kernel_codec = CodecKind::Bitmask;
  plan.layers[0].ofmap_codec = CodecKind::Huffman;
  const FunctionalResult result =
      run_functional(f.net, plan, f.input, f.weights, {f.quant, true});
  EXPECT_TRUE(result.outputs[0] == f.reference[0]);
  const MeasuredStreams& streams = result.streams[0];
  EXPECT_GT(streams.ifmap_coded, 0);
  EXPECT_LT(streams.ifmap_coded, streams.ifmap_raw);
  EXPECT_LT(streams.kernel_coded, streams.kernel_raw);
  EXPECT_LT(streams.ofmap_coded, streams.ofmap_raw);
}

TEST(Executor, MeasuredSparsityMatchesGenerated) {
  Fixture f(nn::make_single_conv(8, 16, 16, 8, 3, 1, 1), 0.55, 0.35, 21);
  const FunctionalResult result = run_functional(
      f.net, f.neutral_plan(), f.input, f.weights, {f.quant, false});
  EXPECT_NEAR(result.measured_stats[0].ifmap_sparsity, 0.55, 0.05);
  EXPECT_NEAR(result.measured_stats[0].kernel_sparsity, 0.35, 0.05);
}

TEST(Executor, MeasuredCodedBytesNearEstimate) {
  // The cost model's ZRLE estimator must track what the executor measures
  // on realistic tile streams (per-tile headers and halo splits included).
  Fixture f(nn::make_single_conv(8, 32, 32, 8, 3, 1, 1), 0.5, 0.3, 31);
  NetworkPlan plan = f.neutral_plan();
  plan.layers[0].tile.th = 8;
  plan.layers[0].tile.tw = 8;
  plan.layers[0].ifmap_codec = CodecKind::Zrle;
  const FunctionalResult result =
      run_functional(f.net, plan, f.input, f.weights, {f.quant, true});
  // Sum of per-tile coded transfers, against the estimator on the same
  // element count (with halo duplication).
  nn::Index streamed_elems = 0;
  for (const TileGeometry& geo : tile_grid(f.net.layers[0], 8, 8)) {
    streamed_elems += geo.in_positions() * f.net.layers[0].in_c;
  }
  const auto estimate = compress::estimate_coded_bytes(
      CodecKind::Zrle, streamed_elems,
      result.measured_stats[0].ifmap_sparsity);
  EXPECT_NEAR(static_cast<double>(result.streams[0].ifmap_coded) /
                  static_cast<double>(estimate),
              1.0, 0.15);
}

TEST(Executor, FcAfterConvFlattens) {
  Fixture f(nn::make_lenet5());
  NetworkPlan plan = f.neutral_plan();
  plan.layers[5].tile.tc = 50;  // f6 channel chunking
  f.expect_matches(plan);
}

TEST(Executor, RejectsWrongWeights) {
  Fixture f(nn::make_lenet5());
  auto bad_weights = f.weights;
  bad_weights.pop_back();
  EXPECT_THROW(
      run_functional(f.net, f.neutral_plan(), f.input, bad_weights, {}),
      util::CheckFailure);
}

/// Property sweep: random small networks, random tile shapes — output must
/// equal the reference in every configuration, at every pool width (the
/// executor splits tiles into channel slices by width).
class ExecutorProperty : public ::testing::TestWithParam<int> {};

TEST_P(ExecutorProperty, RandomPlansMatchReference) {
  util::Rng rng(static_cast<std::uint64_t>(1000 + GetParam()));
  const nn::Index h = rng.uniform_int(10, 24);
  const std::vector<nn::Index> channels = {
      rng.uniform_int(2, 8), rng.uniform_int(2, 8)};
  Fixture f(nn::make_synthetic("prop", h, h, channels, 3,
                               /*pool_between=*/GetParam() % 2 == 0),
            0.3, 0.3, 5000 + static_cast<std::uint64_t>(GetParam()));
  NetworkPlan plan = f.neutral_plan();
  for (std::size_t i = 0; i < plan.layers.size(); ++i) {
    const nn::LayerSpec& layer = f.net.layers[i];
    plan.layers[i].tile.th = rng.uniform_int(1, layer.out_h());
    plan.layers[i].tile.tw = rng.uniform_int(1, layer.out_w());
    if (layer.kind == nn::LayerKind::Conv) {
      plan.layers[i].tile.tc = rng.uniform_int(1, layer.in_c);
    }
  }
  for (int width : {1, 2, 3, 8}) {
    util::ThreadPool::set_global_threads(width);
    f.expect_matches(plan);
  }
  util::ThreadPool::set_global_threads(1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorProperty, ::testing::Range(0, 12));

}  // namespace
}  // namespace mocha::dataflow
