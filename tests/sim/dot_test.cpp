#include "sim/dot.hpp"

#include <gtest/gtest.h>

namespace mocha::sim {
namespace {

TaskGraph small_graph() {
  TaskGraph graph;
  Task load;
  load.kind = TaskKind::DmaLoad;
  load.tag.role = "load \"tile\"";
  load.resources = {0};
  load.duration = 10;
  const TaskId a = graph.add(std::move(load));
  Task compute;
  compute.kind = TaskKind::Compute;
  compute.tag.role = "comp";
  compute.resources = {1};
  compute.duration = 20;
  compute.deps = {a};
  graph.add(std::move(compute));
  return graph;
}

const std::vector<ResourceSpec> kResources = {{"dram", 1}, {"pe", 4}};

TEST(Dot, ContainsNodesEdgesAndKinds) {
  TaskGraph graph = small_graph();
  const std::string dot = to_dot(graph, kResources);
  EXPECT_NE(dot.find("digraph schedule"), std::string::npos);
  EXPECT_NE(dot.find("t0 -> t1"), std::string::npos);
  EXPECT_NE(dot.find("dma_load"), std::string::npos);
  EXPECT_NE(dot.find("compute"), std::string::npos);
  EXPECT_NE(dot.find("dram"), std::string::npos);
  EXPECT_NE(dot.find("pe"), std::string::npos);
}

TEST(Dot, EscapesQuotesInLabels) {
  TaskGraph graph = small_graph();
  const std::string dot = to_dot(graph, kResources);
  EXPECT_NE(dot.find("load \\\"tile\\\""), std::string::npos);
}

TEST(Dot, IncludesTimingAfterRun) {
  TaskGraph graph = small_graph();
  Engine engine(kResources);
  engine.run(graph);
  const std::string dot = to_dot(graph, kResources);
  EXPECT_NE(dot.find("[10,30)"), std::string::npos);  // compute window
}

TEST(Dot, TruncatesHugeGraphs) {
  TaskGraph graph;
  for (int i = 0; i < 50; ++i) {
    Task t;
    t.tag.role = "t";
    t.resources = {0};
    t.duration = 1;
    graph.add(std::move(t));
  }
  const std::string dot = to_dot(graph, kResources, 10);
  EXPECT_NE(dot.find("40 more tasks truncated"), std::string::npos);
  EXPECT_EQ(dot.find("t49 ["), std::string::npos);
}

TEST(Dot, BalancedBraces) {
  TaskGraph graph = small_graph();
  const std::string dot = to_dot(graph, kResources);
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
            std::count(dot.begin(), dot.end(), '}'));
}

}  // namespace
}  // namespace mocha::sim
