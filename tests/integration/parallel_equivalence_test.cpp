// Parallel execution must be invisible in the results: the functional
// executor's outputs, its measured coded-stream byte counts, the morph
// controller's chosen plans and the comparative fleet's reports have to be
// bit-identical whether the thread pool runs serial or wide. This is the
// determinism contract docs/PERF.md states.
#include <gtest/gtest.h>

#include "bench/common.hpp"
#include "core/morph.hpp"
#include "core/report_json.hpp"
#include "dataflow/executor.hpp"
#include "nn/generate.hpp"
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

void expect_thread_equivalence(const nn::Network& net) {
  util::Rng rng(99);
  const nn::ValueTensor input =
      nn::random_tensor(net.layers.front().input_shape(), 0.3, rng);
  const auto weights = nn::random_weights(net, 0.25, rng);

  util::ThreadPool::set_global_threads(1);
  const PlannedRun serial = plan_and_execute(net, input, weights);
  util::ThreadPool::set_global_threads(8);
  const PlannedRun parallel = plan_and_execute(net, input, weights);
  util::ThreadPool::set_global_threads(1);

  // Chosen morph plans are identical, knob for knob.
  ASSERT_EQ(serial.plan.layers.size(), parallel.plan.layers.size());
  for (std::size_t i = 0; i < serial.plan.layers.size(); ++i) {
    const dataflow::LayerPlan& a = serial.plan.layers[i];
    const dataflow::LayerPlan& b = parallel.plan.layers[i];
    EXPECT_EQ(a.summary(), b.summary()) << net.name << " layer " << i;
    EXPECT_EQ(a.tile, b.tile) << net.name << " layer " << i;
    EXPECT_EQ(a.batch_tile, b.batch_tile) << net.name << " layer " << i;
    EXPECT_EQ(a.fuse_with_next, b.fuse_with_next) << net.name << " layer "
                                                  << i;
  }

  // Executor outputs are bit-identical.
  ASSERT_EQ(serial.result.outputs.size(), parallel.result.outputs.size());
  for (std::size_t i = 0; i < serial.result.outputs.size(); ++i) {
    EXPECT_TRUE(serial.result.outputs[i] == parallel.result.outputs[i])
        << net.name << " layer " << net.layers[i].name;
  }

  // Measured coded-stream byte counts are identical (the per-tile reduction
  // is summed in tile order regardless of which thread coded which tile).
  for (std::size_t i = 0; i < serial.result.streams.size(); ++i) {
    const dataflow::MeasuredStreams& a = serial.result.streams[i];
    const dataflow::MeasuredStreams& b = parallel.result.streams[i];
    EXPECT_EQ(a.ifmap_raw, b.ifmap_raw) << net.name << " layer " << i;
    EXPECT_EQ(a.ifmap_coded, b.ifmap_coded) << net.name << " layer " << i;
    EXPECT_EQ(a.kernel_raw, b.kernel_raw) << net.name << " layer " << i;
    EXPECT_EQ(a.kernel_coded, b.kernel_coded) << net.name << " layer " << i;
    EXPECT_EQ(a.ofmap_raw, b.ofmap_raw) << net.name << " layer " << i;
    EXPECT_EQ(a.ofmap_coded, b.ofmap_coded) << net.name << " layer " << i;
  }

  // Measured sparsity statistics ride the same paths; keep them honest too.
  for (std::size_t i = 0; i < serial.result.measured_stats.size(); ++i) {
    EXPECT_EQ(serial.result.measured_stats[i].ifmap_sparsity,
              parallel.result.measured_stats[i].ifmap_sparsity);
    EXPECT_EQ(serial.result.measured_stats[i].ofmap_sparsity,
              parallel.result.measured_stats[i].ofmap_sparsity);
  }
}

TEST(ParallelEquivalence, AlexNetStyleSerialVsEightThreads) {
  expect_thread_equivalence(alexnet_style());
}

TEST(ParallelEquivalence, MobileNetStyleSerialVsEightThreads) {
  expect_thread_equivalence(mobilenet_style());
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
