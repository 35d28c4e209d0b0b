// Pinned oracles for the two builders every plan runs through: the schedule
// builder's task graphs and the functional executor's results. Each case
// folds everything the builder or executor produces into an FNV-1a digest
// and compares it with the value recorded from a known-good build, so a
// refactor that moves one task, one dependency, one coded byte or one flip
// draw fails here even when every property test still holds.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "baseline/baselines.hpp"
#include "core/accelerator.hpp"
#include "core/morph.hpp"
#include "dataflow/executor.hpp"
#include "dataflow/schedule.hpp"
#include "nn/generate.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace mocha::dataflow {
namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// FNV-1a over the eight bytes of `word`, low byte first.
std::uint64_t fold(std::uint64_t hash, std::uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    hash ^= (word >> (8 * b)) & 0xffU;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t fold_signed(std::uint64_t hash, std::int64_t value) {
  return fold(hash, static_cast<std::uint64_t>(value));
}

std::uint64_t fold_text(std::uint64_t hash, const std::string& text) {
  hash = fold(hash, text.size());
  for (const char c : text) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t fold_counts(std::uint64_t hash, const model::ActionCounts& a) {
  for (const std::int64_t v :
       {a.macs, a.rf_bytes, a.sram_read_bytes, a.sram_write_bytes,
        a.dram_read_bytes, a.dram_write_bytes, a.codec_bytes, a.noc_byte_hops,
        a.reconfigs, a.cycles}) {
    hash = fold_signed(hash, v);
  }
  return hash;
}

/// Everything build_group_schedule returns for one group: per task its
/// kind, resources, duration, dependencies, scratchpad alloc/free, action
/// counts and label; per group the footprint, PE groups and resources.
std::uint64_t fold_schedule(std::uint64_t hash, const BuiltSchedule& built) {
  hash = fold_signed(hash, built.footprint_bytes);
  hash = fold_signed(hash, built.pe_groups);
  for (const sim::ResourceSpec& spec : built.layout.specs) {
    hash = fold_text(hash, spec.name);
    hash = fold_signed(hash, spec.capacity);
  }
  for (const sim::Task& task : built.graph.tasks()) {
    hash = fold(hash, static_cast<std::uint64_t>(task.kind));
    hash = fold(hash, task.resources.size());
    for (const sim::ResourceId r : task.resources) hash = fold_signed(hash, r);
    hash = fold(hash, task.duration);
    hash = fold(hash, task.deps.size());
    for (const sim::TaskId d : task.deps) hash = fold_signed(hash, d);
    hash = fold_signed(hash, task.sram_alloc_bytes);
    hash = fold_signed(hash, task.sram_free_bytes);
    hash = fold_counts(hash, task.actions);
    hash = fold_text(hash, sim::task_label(task));
  }
  return hash;
}

core::Accelerator accelerator_named(const std::string& name) {
  if (name == "merge") {
    return baseline::make_baseline_accelerator(baseline::Strategy::MergeOnly);
  }
  if (name == "parallel") {
    return baseline::make_baseline_accelerator(
        baseline::Strategy::ParallelOnly);
  }
  return core::make_mocha_accelerator();
}

struct PinnedGraphs {
  const char* accelerator;
  const char* network;
  nn::Index batch;
  std::size_t tasks;
  std::uint64_t digest;
};

// Weight-stationary, input-stationary (batch 4 splits into sub-batches),
// channel-wise, depthwise and fused builders all appear across the cases.
constexpr PinnedGraphs kPinnedGraphs[] = {
    {"mocha", "lenet5", 1, 160, 16164294483771503493ULL},
    {"mocha", "alexnet", 1, 161564, 3750696372297924969ULL},
    {"mocha", "mobilenet", 1, 43675, 9972704770939879613ULL},
    {"mocha", "alexnet", 4, 332184, 3579786187999240007ULL},
    {"merge", "alexnet", 1, 95811, 12819619223482599175ULL},
    {"parallel", "alexnet", 1, 195124, 1390157803042105609ULL},
};

nn::Network network_named(const std::string& name) {
  if (name == "lenet5") return nn::make_lenet5();
  if (name == "mobilenet") return nn::make_mobilenet_v1();
  return nn::make_alexnet();
}

TEST(Schedule, BuiltGraphsMatchPinned) {
  for (const PinnedGraphs& pinned : kPinnedGraphs) {
    const nn::Network net = network_named(pinned.network);
    const core::Accelerator acc = accelerator_named(pinned.accelerator);
    const auto stats = core::assumed_stats(net, nn::SparsityProfile{});
    const NetworkPlan plan = acc.plan(net, stats, pinned.batch);
    std::uint64_t digest = kFnvBasis;
    std::size_t tasks = 0;
    for (const NetworkPlan::Group& group : plan.fusion_groups()) {
      const BuiltSchedule built = build_group_schedule(
          net, plan, group, acc.config(), stats, pinned.batch);
      digest = fold_schedule(digest, built);
      tasks += built.graph.size();
    }
    const std::string what = std::string(pinned.accelerator) + " on " +
                             pinned.network + " at batch " +
                             std::to_string(pinned.batch);
    EXPECT_EQ(tasks, pinned.tasks) << what;
    EXPECT_EQ(digest, pinned.digest) << what;
  }
}

/// Seeded tensors as perfbench's exec workload draws them: per-layer
/// weights at a sparsity drawn in 18-22 % over [-8, 8], then a 5 %-sparse
/// input; the planner sees the drawn kernel sparsities.
struct SeededRun {
  nn::Network net;
  std::vector<nn::ValueTensor> weights;
  nn::ValueTensor input;
  NetworkPlan plan;
};

SeededRun seeded_run(nn::Network net, std::uint64_t seed) {
  SeededRun run{std::move(net), {}, {}, {}};
  util::Rng rng(seed);
  auto stats = core::assumed_stats(run.net, nn::SparsityProfile{});
  for (std::size_t l = 0; l < run.net.layers.size(); ++l) {
    const nn::LayerSpec& layer = run.net.layers[l];
    if (!layer.has_weights()) {
      run.weights.emplace_back();
      continue;
    }
    const double sparsity = 0.18 + 0.04 * rng.uniform();
    stats[l].kernel_sparsity = sparsity;
    run.weights.push_back(
        nn::random_tensor(layer.weight_shape(), sparsity, rng, -8, 8));
  }
  run.input =
      nn::random_tensor(run.net.layers.front().input_shape(), 0.05, rng);
  stats.front().ifmap_sparsity = 0.05;
  run.plan = core::make_mocha_accelerator().plan(run.net, stats);
  return run;
}

/// Digests of one FunctionalResult: the outputs, every MeasuredStreams
/// field, and the bit patterns of the measured sparsities.
struct ResultDigest {
  std::uint64_t outputs = kFnvBasis;
  std::uint64_t streams = kFnvBasis;
  std::uint64_t stats = kFnvBasis;
  std::int64_t codec_retries = 0;
};

ResultDigest digest_of(const FunctionalResult& result) {
  ResultDigest d;
  for (const nn::ValueTensor& out : result.outputs) {
    d.outputs = fold_signed(d.outputs, out.size());
    for (nn::Index i = 0; i < out.size(); ++i) {
      d.outputs = fold_signed(d.outputs, out.data()[i]);
    }
  }
  for (const MeasuredStreams& s : result.streams) {
    for (const std::int64_t v : {s.ifmap_raw, s.ifmap_coded, s.kernel_raw,
                                 s.kernel_coded, s.ofmap_raw, s.ofmap_coded}) {
      d.streams = fold_signed(d.streams, v);
    }
  }
  for (const LayerStreamStats& s : result.measured_stats) {
    for (const double v :
         {s.ifmap_sparsity, s.kernel_sparsity, s.ofmap_sparsity}) {
      d.stats = fold(d.stats, std::bit_cast<std::uint64_t>(v));
    }
  }
  d.codec_retries = result.codec_retries;
  return d;
}

struct PinnedResult {
  const char* network;
  double flip_rate;
  std::uint64_t outputs;
  std::uint64_t streams;
  std::uint64_t stats;
  std::int64_t codec_retries;
};

// Default FunctionalOptions (every coded stream encoded and verified), and
// LeNet-5 again with codec flips frequent enough that streams retry under
// an unlimited budget.
constexpr PinnedResult kPinnedResults[] = {
    {"lenet5", 0.0, 15150136144635148857ULL, 12218748170160085198ULL,
     12917588061839311428ULL, 0},
    {"alexnet", 0.0, 13354105168148761692ULL, 1591471548748819651ULL,
     9376573731269116644ULL, 0},
    {"lenet5", 1e-3, 15150136144635148857ULL, 10787221955437296441ULL,
     12917588061839311428ULL, 9},
};

TEST(Executor, FunctionalResultMatchesPinned) {
  for (const PinnedResult& pinned : kPinnedResults) {
    const SeededRun run = seeded_run(network_named(pinned.network), 1);
    FunctionalOptions options;
    options.codec_flip_rate = pinned.flip_rate;
    options.codec_retry_budget = -1;
    for (const int width : {1, 4}) {
      util::ThreadPool::set_global_threads(width);
      const ResultDigest d = digest_of(
          run_functional(run.net, run.plan, run.input, run.weights, options));
      const std::string what = std::string(pinned.network) + " flip rate " +
                               std::to_string(pinned.flip_rate) +
                               " at pool width " + std::to_string(width);
      EXPECT_EQ(d.outputs, pinned.outputs) << what;
      EXPECT_EQ(d.streams, pinned.streams) << what;
      EXPECT_EQ(d.stats, pinned.stats) << what;
      EXPECT_EQ(d.codec_retries, pinned.codec_retries) << what;
      if (pinned.flip_rate > 0.0) {
        EXPECT_GE(d.codec_retries, 1) << what;
      }
    }
  }
  util::ThreadPool::set_global_threads(1);
}

}  // namespace
}  // namespace mocha::dataflow
