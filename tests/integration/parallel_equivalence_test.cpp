// Parallel execution must be invisible in the results: the functional
// executor's outputs, its measured coded-stream byte counts, the morph
// controller's chosen plans and the comparative fleet's reports have to be
// bit-identical whether the thread pool runs serial or wide. This is the
// determinism contract docs/PERF.md states.
#include <gtest/gtest.h>

#include "bench/common.hpp"
#include "compress/bitmask.hpp"
#include "core/morph.hpp"
#include "core/report_json.hpp"
#include "dataflow/executor.hpp"
#include "nn/generate.hpp"
#include "obs/metrics.hpp"
#include "util/parallel.hpp"

namespace mocha {
namespace {

using dataflow::FunctionalResult;
using dataflow::NetworkPlan;
using nn::Index;

/// AlexNet's shape grammar in miniature: strided big-kernel head conv,
/// max pools, padded 3x3 body, FC tail. Small enough that the full
/// plan-then-execute cycle runs at every thread count in seconds.
nn::Network alexnet_style() {
  nn::Network net;
  net.name = "alexnet_style";
  net.layers.push_back(nn::conv_layer("conv1", 3, 31, 31, 16, 5, 2, 0));
  net.layers.push_back(nn::pool_layer("pool1", 16, 14, 14, 2, 2));
  net.layers.push_back(nn::conv_layer("conv2", 16, 7, 7, 32, 3, 1, 1));
  net.layers.push_back(nn::conv_layer("conv3", 32, 7, 7, 32, 3, 1, 1));
  net.layers.push_back(nn::pool_layer("pool2", 32, 7, 7, 2, 2));
  net.layers.push_back(nn::fc_layer("fc1", 32 * 3 * 3, 64));
  net.layers.push_back(nn::fc_layer("fc2", 64, 10, /*relu=*/false));
  net.validate();
  return net;
}

/// MobileNet's shape grammar in miniature: depthwise-separable blocks
/// (3x3 depthwise + 1x1 pointwise), stride-2 downsampling, average-pool
/// head into a classifier.
nn::Network mobilenet_style() {
  nn::Network net;
  net.name = "mobilenet_style";
  net.layers.push_back(nn::conv_layer("conv1", 3, 32, 32, 16, 3, 2, 1));
  net.layers.push_back(nn::depthwise_layer("dw1", 16, 16, 16, 3, 1, 1));
  net.layers.push_back(nn::conv_layer("pw1", 16, 16, 16, 32, 1, 1, 0));
  net.layers.push_back(nn::depthwise_layer("dw2", 32, 16, 16, 3, 2, 1));
  net.layers.push_back(nn::conv_layer("pw2", 32, 8, 8, 64, 1, 1, 0));
  net.layers.push_back(
      nn::pool_layer("avgpool", 64, 8, 8, 8, 8, nn::PoolOp::Average));
  net.layers.push_back(nn::fc_layer("fc", 64, 10, /*relu=*/false));
  net.validate();
  return net;
}

/// Pool widths every equivalence check sweeps; width 1 is the serial
/// oracle the others must match.
constexpr int kWidths[] = {1, 2, 3, 8};

struct PlannedRun {
  NetworkPlan plan;
  FunctionalResult result;
};

PlannedRun plan_and_execute(const nn::Network& net,
                            const nn::ValueTensor& input,
                            const std::vector<nn::ValueTensor>& weights) {
  const auto stats = core::assumed_stats(net, {});
  const core::MorphController morph(model::default_tech(),
                                    core::MorphOptions{});
  PlannedRun run;
  run.plan = morph.plan(net, fabric::mocha_default_config(), stats);
  run.result = dataflow::run_functional(net, run.plan, input, weights);
  return run;
}

/// Everything run_functional reports must be bit-identical: outputs, every
/// measured stream byte count (per-tile counts are summed in tile order
/// regardless of which thread coded which tile), the measured sparsities
/// and the retry count.
void expect_same_result(const FunctionalResult& want,
                        const FunctionalResult& got, const std::string& what) {
  ASSERT_EQ(want.outputs.size(), got.outputs.size()) << what;
  for (std::size_t i = 0; i < want.outputs.size(); ++i) {
    EXPECT_TRUE(want.outputs[i] == got.outputs[i]) << what << " layer " << i;
  }
  ASSERT_EQ(want.streams.size(), got.streams.size()) << what;
  for (std::size_t i = 0; i < want.streams.size(); ++i) {
    const dataflow::MeasuredStreams& a = want.streams[i];
    const dataflow::MeasuredStreams& b = got.streams[i];
    EXPECT_EQ(a.ifmap_raw, b.ifmap_raw) << what << " layer " << i;
    EXPECT_EQ(a.ifmap_coded, b.ifmap_coded) << what << " layer " << i;
    EXPECT_EQ(a.kernel_raw, b.kernel_raw) << what << " layer " << i;
    EXPECT_EQ(a.kernel_coded, b.kernel_coded) << what << " layer " << i;
    EXPECT_EQ(a.ofmap_raw, b.ofmap_raw) << what << " layer " << i;
    EXPECT_EQ(a.ofmap_coded, b.ofmap_coded) << what << " layer " << i;
  }
  ASSERT_EQ(want.measured_stats.size(), got.measured_stats.size()) << what;
  for (std::size_t i = 0; i < want.measured_stats.size(); ++i) {
    EXPECT_EQ(want.measured_stats[i].ifmap_sparsity,
              got.measured_stats[i].ifmap_sparsity)
        << what << " layer " << i;
    EXPECT_EQ(want.measured_stats[i].kernel_sparsity,
              got.measured_stats[i].kernel_sparsity)
        << what << " layer " << i;
    EXPECT_EQ(want.measured_stats[i].ofmap_sparsity,
              got.measured_stats[i].ofmap_sparsity)
        << what << " layer " << i;
  }
  EXPECT_EQ(want.codec_retries, got.codec_retries) << what;
}

/// Flip rate of the transient-fault runs: high enough that some coded
/// streams of these small networks fail their integrity check.
constexpr double kFlipRate = 2e-4;

void expect_thread_equivalence(const nn::Network& net) {
  util::Rng rng(99);
  const nn::ValueTensor input =
      nn::random_tensor(net.layers.front().input_shape(), 0.3, rng);
  const auto weights = nn::random_weights(net, 0.25, rng);
  dataflow::FunctionalOptions faulty;
  faulty.codec_flip_rate = kFlipRate;

  util::ThreadPool::set_global_threads(1);
  const PlannedRun serial = plan_and_execute(net, input, weights);
  const FunctionalResult serial_faulty =
      dataflow::run_functional(net, serial.plan, input, weights, faulty);
  for (int width : kWidths) {
    util::ThreadPool::set_global_threads(width);
    const PlannedRun parallel = plan_and_execute(net, input, weights);
    const std::string what = net.name + " at width " + std::to_string(width);

    // Chosen morph plans are identical, knob for knob.
    ASSERT_EQ(serial.plan.layers.size(), parallel.plan.layers.size());
    for (std::size_t i = 0; i < serial.plan.layers.size(); ++i) {
      const dataflow::LayerPlan& a = serial.plan.layers[i];
      const dataflow::LayerPlan& b = parallel.plan.layers[i];
      EXPECT_EQ(a.summary(), b.summary()) << what << " layer " << i;
      EXPECT_EQ(a.tile, b.tile) << what << " layer " << i;
      EXPECT_EQ(a.batch_tile, b.batch_tile) << what << " layer " << i;
      EXPECT_EQ(a.fuse_with_next, b.fuse_with_next) << what << " layer " << i;
    }
    expect_same_result(serial.result, parallel.result, what);
    expect_same_result(
        serial_faulty,
        dataflow::run_functional(net, serial.plan, input, weights, faulty),
        what + " with codec faults");
  }
  util::ThreadPool::set_global_threads(1);
}

TEST(ParallelEquivalence, AlexNetStyleSerialVsEightThreads) {
  expect_thread_equivalence(alexnet_style());
}

TEST(ParallelEquivalence, MobileNetStyleSerialVsEightThreads) {
  expect_thread_equivalence(mobilenet_style());
}

/// Hand-built plans with fewer tiles than pool lanes, so the executor
/// splits every stage's tiles into output-channel slices: a 2-tile conv, a
/// 2-tile fused conv->pool group, a depthwise layer, and an FC layer whose
/// 263,375 weights (not a multiple of 8) pass the Bitmask codec's pool
/// threshold, so its kernel stream runs block-parallel with a partial tail.
TEST(ParallelEquivalence, FewTilesPlansAcrossWidths) {
  nn::Network net;
  net.name = "few_tiles";
  net.layers.push_back(nn::conv_layer("conv1", 3, 14, 14, 16, 3, 1, 1));
  net.layers.push_back(nn::conv_layer("conv2", 16, 14, 14, 25, 3, 1, 1));
  net.layers.push_back(nn::pool_layer("pool", 25, 14, 14, 2, 2));
  net.layers.push_back(nn::depthwise_layer("dw", 25, 7, 7, 3, 1, 1));
  net.layers.push_back(nn::fc_layer("fc1", 25 * 7 * 7, 215));
  net.layers.push_back(nn::fc_layer("fc2", 215, 10, /*relu=*/false));
  net.validate();
  ASSERT_GE(static_cast<std::size_t>(net.layers[4].weight_elems()),
            compress::BitmaskCodec::kParallelValues);
  ASSERT_NE(net.layers[4].weight_elems() % 8, 0);

  NetworkPlan plan;
  for (const nn::LayerSpec& layer : net.layers) {
    dataflow::LayerPlan lp;
    lp.tile = {layer.out_h(), layer.out_w(), layer.in_c,
               layer.out_channels()};
    lp.ifmap_codec = compress::CodecKind::Zrle;
    lp.kernel_codec = compress::CodecKind::Bitmask;
    lp.ofmap_codec = compress::CodecKind::Huffman;
    plan.layers.push_back(lp);
  }
  plan.layers[0].tile.th = 7;      // conv1: 2 tiles
  plan.layers[1].fuse_with_next = true;
  plan.layers[2].tile.th = 4;      // conv2 -> pool: 2 tiles (4 + 3 rows)
  plan.layers[3].ifmap_codec = compress::CodecKind::Bitmask;

  util::Rng rng(41);
  const nn::ValueTensor input =
      nn::random_tensor(net.layers.front().input_shape(), 0.3, rng);
  const auto weights = nn::random_weights(net, 0.25, rng);
  const auto reference = nn::run_network_ref(net, input, weights, {});
  dataflow::FunctionalOptions faulty;
  faulty.codec_flip_rate = kFlipRate;

  util::ThreadPool::set_global_threads(1);
  const FunctionalResult serial =
      dataflow::run_functional(net, plan, input, weights);
  const FunctionalResult serial_faulty =
      dataflow::run_functional(net, plan, input, weights, faulty);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_TRUE(serial.outputs[i] == reference[i]) << net.layers[i].name;
  }
  EXPECT_GT(serial_faulty.codec_retries, 0);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  for (int width : kWidths) {
    util::ThreadPool::set_global_threads(width);
    const std::string what = "width " + std::to_string(width);
    registry.reset();
    registry.set_enabled(true);
    const FunctionalResult result =
        dataflow::run_functional(net, plan, input, weights);
    registry.set_enabled(false);
    expect_same_result(serial, result, what);
#if MOCHA_OBS
    // Each tile counts once, however many channel slices split it:
    // 2 + 2 + 1 + 1 + 1 tiles over the five fusion groups.
    EXPECT_EQ(registry.snapshot().counters.at("executor.tiles_computed"), 7)
        << what;
#endif
    registry.reset();
    expect_same_result(
        serial_faulty,
        dataflow::run_functional(net, plan, input, weights, faulty),
        what + " with codec faults");
  }
  util::ThreadPool::set_global_threads(1);
}

// The reference kernels parallelize over channels; they must match
// themselves across thread counts on every layer kind at once.
TEST(ParallelEquivalence, ReferenceKernelsSerialVsEightThreads) {
  const nn::Network net = mobilenet_style();
  util::Rng rng(7);
  const nn::ValueTensor input =
      nn::random_tensor(net.layers.front().input_shape(), 0.3, rng);
  const auto weights = nn::random_weights(net, 0.25, rng);

  util::ThreadPool::set_global_threads(1);
  const auto serial = nn::run_network_ref(net, input, weights, {});
  util::ThreadPool::set_global_threads(8);
  const auto parallel = nn::run_network_ref(net, input, weights, {});
  util::ThreadPool::set_global_threads(1);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i] == parallel[i]) << net.layers[i].name;
  }
}

// The figure harnesses run MOCHA and the three baselines concurrently
// (bench::run_fleet); every report must match the serial sweep.
TEST(ParallelEquivalence, FleetSerialVsEightThreads) {
  const nn::Network net = alexnet_style();
  const bench::Fleet fleet = bench::Fleet::make();

  util::ThreadPool::set_global_threads(1);
  const bench::FleetRuns serial = bench::run_fleet(fleet, net);
  util::ThreadPool::set_global_threads(8);
  const bench::FleetRuns parallel = bench::run_fleet(fleet, net);
  util::ThreadPool::set_global_threads(1);

  EXPECT_EQ(core::report_to_json(serial.mocha),
            core::report_to_json(parallel.mocha));
  ASSERT_EQ(serial.baselines.size(), parallel.baselines.size());
  for (const auto& [strategy, report] : serial.baselines) {
    EXPECT_EQ(core::report_to_json(report),
              core::report_to_json(parallel.baselines.at(strategy)))
        << baseline::strategy_name(strategy);
  }
}

}  // namespace
}  // namespace mocha
