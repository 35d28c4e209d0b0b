// Pins the task label format of every schedule shape the builder emits:
// traces, DOT files, critpath reports and error messages print these
// strings, so a change to how tasks record their identity must reproduce
// them exactly.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "dataflow/schedule.hpp"
#include "nn/layer.hpp"

namespace mocha::dataflow {
namespace {

std::string label_of(const sim::Task& task) { return sim::task_label(task); }

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

  std::vector<std::string> labels(std::size_t first, std::size_t last) {
    const BuiltSchedule built =
        build_group_schedule(net, plan, {first, last}, config, stats);
    std::vector<std::string> out;
    for (const sim::Task& task : built.graph.tasks()) {
      out.push_back(label_of(task));
    }
    return out;
  }
};

using Expected = std::vector<std::pair<std::size_t, const char*>>;

void expect_labels(const std::vector<std::string>& labels, std::size_t size,
                   const Expected& expected) {
  ASSERT_EQ(labels.size(), size);
  for (const auto& [id, label] : expected) {
    EXPECT_EQ(labels[id], label) << "task " << id;
  }
}

Harness conv_harness() {
  return Harness(nn::make_single_conv(4, 16, 16, 8, 3, 1, 1));
}

TEST(TaskLabel, WeightStationarySingleLayer) {
  Harness s = conv_harness();
  s.plan.layers[0].tile = {8, 8, 4, 4};  // 2 map passes x 4 tiles
  s.plan.layers[0].order = LoopOrder::WeightStationary;
  s.plan.layers[0].intra_groups = 2;
  expect_labels(s.labels(0, 0), 44,
                {{0, "w_load.L0.0"},
                 {1, "if_load.L0.0.0"},
                 {2, "comp.L0.0.0.g0s0"},
                 {3, "comp.L0.0.0.g0s1"},
                 {4, "tile_bar.L0.0.0"},
                 {5, "store.L0.0.0"},
                 {16, "if_load.L0.0.3"},
                 {21, "pass_bar.L0.0"},
                 {22, "w_load.L0.1"},
                 {25, "comp.L0.1.0.g0s1"},
                 {43, "pass_bar.L0.1"}});
}

TEST(TaskLabel, InputStationaryWithChannelPasses) {
  Harness s = conv_harness();
  s.plan.layers[0].tile = {8, 8, 2, 4};  // 2 channel x 2 map passes
  s.plan.layers[0].order = LoopOrder::InputStationary;
  s.plan.layers[0].intra_groups = 2;
  expect_labels(s.labels(0, 0), 80,
                {{0, "if_load.L0.0"},
                 {1, "w_load.L0.0.0.0"},
                 {2, "comp.L0.0.0.0.g0s0"},
                 {4, "w_bar.L0.0.0.0"},
                 {5, "w_load.L0.0.0.1"},
                 {7, "comp.L0.0.0.1.g0s1"},
                 {9, "store.L0.0.0"},
                 {12, "comp.L0.0.1.0.g0s1"},
                 {17, "w_bar.L0.0.1.1"},
                 {18, "store.L0.0.1"},
                 {19, "tile_bar.L0.0"},
                 {20, "if_load.L0.1"},
                 {79, "tile_bar.L0.3"}});
}

TEST(TaskLabel, ChannelwiseDepthwise) {
  nn::Network net;
  net.name = "dw";
  net.layers = {nn::depthwise_layer("dw", 16, 16, 16, 3, 1, 1)};
  net.validate();
  Harness s(std::move(net));
  s.plan.layers[0].tile = {8, 8, 16, 4};  // 4 channel passes x 4 tiles
  expect_labels(s.labels(0, 0), 72,
                {{0, "w_load.L0.0"},
                 {1, "if_load.L0.0.0"},
                 {2, "comp.L0.0.0.g0s0"},
                 {3, "store.L0.0.0"},
                 {4, "tile_bar.L0.0.0"},
                 {5, "if_load.L0.0.1"},
                 {69, "store.L0.3.3"},
                 {70, "tile_bar.L0.3.3"},
                 {71, "pass_bar.L0.3"}});
}

TEST(TaskLabel, FusedMultiLayer) {
  Harness s(nn::make_synthetic("pair", 16, 16, {8, 8}, 3, false));
  s.plan.layers[0].fuse_with_next = true;
  s.plan.layers[1].tile.th = 8;
  s.plan.layers[1].tile.tw = 8;
  const std::vector<std::string> labels = s.labels(0, 1);
  const std::vector<std::string> expected = {
      "w_load.L0",       "w_load.L1",       "if_load.L0.0",
      "comp.L0.0.g0s0",  "comp.L1.0.g0s0",  "store.L1.0",
      "tile_bar.L1.0",   "if_load.L0.1",    "comp.L0.1.g0s0",
      "comp.L1.1.g0s0",  "store.L1.1",      "tile_bar.L1.1",
      "if_load.L0.2",    "comp.L0.2.g0s0",  "comp.L1.2.g0s0",
      "store.L1.2",      "tile_bar.L1.2",   "if_load.L0.3",
      "comp.L0.3.g0s0",  "comp.L1.3.g0s0",  "store.L1.3",
      "tile_bar.L1.3",   "group_end"};
  EXPECT_EQ(labels, expected);
}

TEST(TaskLabel, CodedStorePacksBeforeStoring) {
  Harness s = conv_harness();
  s.plan.layers[0].tile = {8, 8, 4, 8};
  s.plan.layers[0].ofmap_codec = compress::CodecKind::Zrle;
  expect_labels(s.labels(0, 0), 22,
                {{0, "w_load.L0.0"},
                 {2, "comp.L0.0.0.g0s0"},
                 {3, "tile_bar.L0.0.0"},
                 {4, "store.L0.0.0.pack"},
                 {5, "store.L0.0.0"},
                 {19, "store.L0.0.3.pack"},
                 {20, "store.L0.0.3"},
                 {21, "pass_bar.L0.0"}});
}

}  // namespace
}  // namespace mocha::dataflow
