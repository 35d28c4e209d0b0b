#include "sim/task.hpp"

#include <gtest/gtest.h>

namespace mocha::sim {
namespace {

Task make_task(const char* label, Cycle duration = 1) {
  Task t;
  t.tag.role = label;
  t.resources = {0};
  t.duration = duration;
  return t;
}

TEST(TaskGraph, IdsAreDense) {
  TaskGraph graph;
  EXPECT_EQ(graph.add(make_task("a")), 0);
  EXPECT_EQ(graph.add(make_task("b")), 1);
  EXPECT_EQ(graph.size(), 2u);
  EXPECT_EQ(task_label(graph.task(1)), "b");
}

TEST(TaskGraph, AddDepLinks) {
  TaskGraph graph;
  const TaskId a = graph.add(make_task("a"));
  const TaskId b = graph.add(make_task("b"));
  graph.add_dep(a, b);
  ASSERT_EQ(graph.task(b).deps.size(), 1u);
  EXPECT_EQ(graph.task(b).deps[0], a);
}

TEST(TaskGraph, ForwardDepAtAddRejected) {
  TaskGraph graph;
  Task t = make_task("a");
  t.deps = {5};  // not yet added
  EXPECT_THROW(graph.add(std::move(t)), util::CheckFailure);
}

TEST(TaskGraph, SelfDepRejected) {
  TaskGraph graph;
  const TaskId a = graph.add(make_task("a"));
  EXPECT_THROW(graph.add_dep(a, a), util::CheckFailure);
}

TEST(TaskGraph, BadTaskIdThrows) {
  TaskGraph graph;
  graph.add(make_task("a"));
  EXPECT_THROW(graph.task(7), util::CheckFailure);
  EXPECT_THROW(graph.task(-1), util::CheckFailure);
}

TEST(TaskGraph, ValidateAcceptsDag) {
  TaskGraph graph;
  const TaskId a = graph.add(make_task("a"));
  const TaskId b = graph.add(make_task("b"));
  const TaskId c = graph.add(make_task("c"));
  graph.add_dep(a, b);
  graph.add_dep(a, c);
  graph.add_dep(b, c);
  EXPECT_NO_THROW(graph.validate());
}

TEST(TaskGraph, ValidateDetectsCycle) {
  TaskGraph graph;
  const TaskId a = graph.add(make_task("a"));
  const TaskId b = graph.add(make_task("b"));
  graph.add_dep(a, b);
  // add_dep only accepts existing ids, so a cycle needs direct mutation —
  // emulating builder bugs.
  graph.task(a).deps.push_back(b);
  EXPECT_THROW(graph.validate(), util::CheckFailure);
}

TEST(TaskGraph, ValidateRequiresResource) {
  TaskGraph graph;
  Task t;
  t.tag.role = "unbound";
  graph.add(std::move(t));
  EXPECT_THROW(graph.validate(), util::CheckFailure);
}

TEST(TaskGraph, TooManyResourcesRejectedAtAdd) {
  TaskGraph graph;
  Task wide = make_task("wide");
  for (ResourceId r = 1; r <= static_cast<ResourceId>(kMaxTaskResources); ++r) {
    wide.resources.push_back(r);
  }
  EXPECT_TRUE(wide.resources.overflowed());
  EXPECT_THROW(graph.add(std::move(wide)), util::CheckFailure);
  EXPECT_TRUE(graph.empty());

  Task full = make_task("full");
  for (ResourceId r = 1; r < static_cast<ResourceId>(kMaxTaskResources); ++r) {
    full.resources.push_back(r);
  }
  EXPECT_EQ(full.resources.size(), kMaxTaskResources);
  EXPECT_EQ(graph.add(std::move(full)), 0);
}

TEST(TaskGraph, EmptyGraphValid) {
  TaskGraph graph;
  EXPECT_NO_THROW(graph.validate());
  EXPECT_TRUE(graph.empty());
}

TEST(TaskKindNames, AllDistinct) {
  EXPECT_STREQ(task_kind_name(TaskKind::DmaLoad), "dma_load");
  EXPECT_STREQ(task_kind_name(TaskKind::DmaStore), "dma_store");
  EXPECT_STREQ(task_kind_name(TaskKind::Decompress), "decompress");
  EXPECT_STREQ(task_kind_name(TaskKind::Compress), "compress");
  EXPECT_STREQ(task_kind_name(TaskKind::Compute), "compute");
  EXPECT_STREQ(task_kind_name(TaskKind::Reconfig), "reconfig");
  EXPECT_STREQ(task_kind_name(TaskKind::Barrier), "barrier");
}

}  // namespace
}  // namespace mocha::sim
