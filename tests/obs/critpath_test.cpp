// Critical-path analyzer on hand-built golden graphs — chains, diamonds,
// and contention-limited graphs where the answers are checkable on paper —
// plus what-if prediction-vs-replay equivalence and the end-to-end
// executor property: with unbounded resources the dependence critical path
// IS the makespan.
#include "obs/critpath.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/accelerator.hpp"
#include "core/morph.hpp"
#include "core/planner.hpp"
#include "dataflow/schedule.hpp"
#include "nn/generate.hpp"
#include "nn/network.hpp"

namespace mocha::obs {
namespace {

using sim::Cycle;
using sim::Engine;
using sim::ResourceSpec;
using sim::RunResult;
using sim::Task;
using sim::TaskGraph;
using sim::TaskId;
using sim::TaskKind;

Task make_task(std::initializer_list<sim::ResourceId> resources,
               Cycle duration, std::vector<TaskId> deps = {},
               TaskKind kind = TaskKind::Compute) {
  Task t;
  t.kind = kind;
  t.resources = resources;
  t.duration = duration;
  t.deps = std::move(deps);
  return t;
}

// ---- pure chain: critical path == makespan, zero slack everywhere ------

TEST(CritPath, PureChainIsFullyCritical) {
  Engine engine({{"r", 4}});
  TaskGraph graph;
  const TaskId a = graph.add(make_task({0}, 5));
  const TaskId b = graph.add(make_task({0}, 7, {a}));
  const TaskId c = graph.add(make_task({0}, 3, {b}));
  const RunResult run = engine.run(graph);
  ASSERT_EQ(run.makespan, 15u);

  const CritPathReport report = analyze_critical_path(graph, run);
  EXPECT_EQ(report.makespan, 15u);
  EXPECT_EQ(report.dep_critical_cycles, 15u);
  EXPECT_EQ(report.contention_gap, 0u);
  EXPECT_EQ(report.queue_entered_cycles, 0u);
  EXPECT_TRUE(report.path_complete);
  ASSERT_EQ(report.path.size(), 3u);
  EXPECT_EQ(report.path[0].task, a);
  EXPECT_EQ(report.path[0].entered_by, CritEdge::Start);
  EXPECT_EQ(report.path[1].task, b);
  EXPECT_EQ(report.path[1].entered_by, CritEdge::Dep);
  EXPECT_EQ(report.path[2].task, c);
  for (TaskId t : {a, b, c}) {
    EXPECT_EQ(report.slack[static_cast<std::size_t>(t)], 0u);
    EXPECT_TRUE(report.on_path[static_cast<std::size_t>(t)]);
  }
}

// ---- diamond: slack sits on the short arm only -------------------------

TEST(CritPath, DiamondSlackOnShortArm) {
  //      a(2)
  //     .    .
  //  b(10)   c(4)     <- c is 6 cycles slacker
  //     .    .
  //      d(3)
  Engine engine({{"r", 4}});
  TaskGraph graph;
  const TaskId a = graph.add(make_task({0}, 2));
  const TaskId b = graph.add(make_task({0}, 10, {a}));
  const TaskId c = graph.add(make_task({0}, 4, {a}));
  const TaskId d = graph.add(make_task({0}, 3, {b, c}));
  const RunResult run = engine.run(graph);
  ASSERT_EQ(run.makespan, 15u);

  const CritPathReport report = analyze_critical_path(graph, run);
  EXPECT_EQ(report.dep_critical_cycles, 15u);
  EXPECT_EQ(report.contention_gap, 0u);
  EXPECT_TRUE(report.path_complete);
  EXPECT_EQ(report.slack[static_cast<std::size_t>(a)], 0u);
  EXPECT_EQ(report.slack[static_cast<std::size_t>(b)], 0u);
  EXPECT_EQ(report.slack[static_cast<std::size_t>(c)], 6u);
  EXPECT_EQ(report.slack[static_cast<std::size_t>(d)], 0u);
  EXPECT_TRUE(report.on_path[static_cast<std::size_t>(a)]);
  EXPECT_TRUE(report.on_path[static_cast<std::size_t>(b)]);
  EXPECT_FALSE(report.on_path[static_cast<std::size_t>(c)]);
  EXPECT_TRUE(report.on_path[static_cast<std::size_t>(d)]);
}

// ---- contention: the chain crosses a queue edge ------------------------

TEST(CritPath, ContentionChainUsesQueueEdge) {
  // Two independent 10-cycle tasks on a capacity-1 resource: no dependence
  // chain longer than 10, but the makespan is 20. The second task enters
  // the critical chain through a queue edge, and the whole gap is
  // contention.
  Engine engine({{"r", 1}});
  TaskGraph graph;
  const TaskId a = graph.add(make_task({0}, 10));
  const TaskId b = graph.add(make_task({0}, 10));
  const RunResult run = engine.run(graph);
  ASSERT_EQ(run.makespan, 20u);

  const CritPathReport report = analyze_critical_path(graph, run);
  EXPECT_EQ(report.dep_critical_cycles, 10u);
  EXPECT_EQ(report.contention_gap, 10u);
  EXPECT_EQ(report.queue_entered_cycles, 10u);
  EXPECT_TRUE(report.path_complete);
  ASSERT_EQ(report.path.size(), 2u);
  EXPECT_EQ(report.path[0].task, a);
  EXPECT_EQ(report.path[1].task, b);
  EXPECT_EQ(report.path[1].entered_by, CritEdge::Queue);
  // CPM slack is dependence-only: a's chain ends 10 cycles before the
  // makespan (the queueing gap), b finishes at the makespan.
  EXPECT_EQ(report.slack[static_cast<std::size_t>(a)], 10u);
  EXPECT_EQ(report.slack[static_cast<std::size_t>(b)], 0u);
}

TEST(CritPath, ResourceAttribution) {
  Engine engine({{"bus", 1}, {"pe", 2}});
  TaskGraph graph;
  const TaskId load = graph.add(make_task({0}, 6, {}, TaskKind::DmaLoad));
  const TaskId compute =
      graph.add(make_task({1}, 4, {load}, TaskKind::Compute));
  // A second, off-chain load and a zero-cycle barrier closing the graph.
  graph.add(make_task({0}, 3, {}, TaskKind::DmaLoad));
  graph.add(make_task({1}, 0, {compute}, TaskKind::Barrier));
  const RunResult run = engine.run(graph);
  const CritPathReport report = analyze_critical_path(graph, run);

  ASSERT_EQ(report.resources.size(), 2u);
  EXPECT_EQ(report.resources[0].name, "bus");
  EXPECT_EQ(report.resources[0].busy_cycles, 9u);
  EXPECT_EQ(report.resources[0].critical_cycles, 6u);
  EXPECT_EQ(report.resources[0].bound_tasks, 2u);
  EXPECT_EQ(report.resources[1].critical_cycles, 4u);
  // load -> compute; the barrier ties the makespan but the walk starts
  // from the lowest-id last finisher.
  EXPECT_EQ(report.path.size(), 2u);

  // Sorted by critical cycles: the 6-cycle load dominates the 4-cycle
  // compute. Totals count every task of a kind, on the chain or not, and
  // a kind whose tasks take no cycles is still listed.
  ASSERT_EQ(report.kinds.size(), 3u);
  EXPECT_EQ(report.kinds[0].kind, TaskKind::DmaLoad);
  EXPECT_EQ(report.kinds[0].critical_cycles, 6u);
  EXPECT_EQ(report.kinds[0].total_cycles, 9u);
  EXPECT_EQ(report.kinds[1].kind, TaskKind::Compute);
  EXPECT_EQ(report.kinds[1].critical_cycles, 4u);
  EXPECT_EQ(report.kinds[1].total_cycles, 4u);
  EXPECT_EQ(report.kinds[2].kind, TaskKind::Barrier);
  EXPECT_EQ(report.kinds[2].critical_cycles, 0u);
  EXPECT_EQ(report.kinds[2].total_cycles, 0u);
}

// ---- what-if: prediction vs replay -------------------------------------

TEST(CritPath, WhatIfCapacityBoundsContainReplay) {
  // Four independent tasks on capacity 1: makespan 40. Doubling the
  // capacity must land the replay inside [predicted, upper_bound].
  Engine engine({{"r", 1}});
  TaskGraph graph;
  for (int i = 0; i < 4; ++i) graph.add(make_task({0}, 10));
  const RunResult run = engine.run(graph);
  ASSERT_EQ(run.makespan, 40u);

  const WhatIfOutcome outcome =
      evaluate_what_if(graph, run, what_if_capacity_scale("r", 2.0));
  EXPECT_TRUE(outcome.applicable);
  EXPECT_FALSE(outcome.exact);
  EXPECT_EQ(outcome.baseline, 40u);
  EXPECT_EQ(outcome.predicted, 20u);  // work bound: 40 cycles / cap 2
  EXPECT_EQ(outcome.replayed, 20u);
  EXPECT_TRUE(outcome.within_bounds);
  EXPECT_LE(outcome.predicted, outcome.replayed);
  EXPECT_LE(outcome.replayed, outcome.upper_bound);
}

TEST(CritPath, WhatIfUnboundedIsExact) {
  // Chain of 3 + contention load: unbounded removes all queueing, so the
  // prediction is the dependence critical path and must match the replay
  // exactly.
  Engine engine({{"r", 1}});
  TaskGraph graph;
  const TaskId a = graph.add(make_task({0}, 5));
  const TaskId b = graph.add(make_task({0}, 7, {a}));
  graph.add(make_task({0}, 3, {b}));
  graph.add(make_task({0}, 9));  // competes for the same unit
  const RunResult run = engine.run(graph);
  ASSERT_GT(run.makespan, 15u);  // contention stretched the schedule

  const WhatIfOutcome outcome =
      evaluate_what_if(graph, run, what_if_unbounded());
  EXPECT_TRUE(outcome.exact);
  EXPECT_EQ(outcome.predicted, 15u);
  EXPECT_EQ(outcome.replayed, 15u);
  EXPECT_EQ(outcome.upper_bound, outcome.predicted);
  EXPECT_TRUE(outcome.within_bounds);
}

TEST(CritPath, WhatIfSpeedScalesKindDurations) {
  Engine engine({{"r", 2}});
  TaskGraph graph;
  const TaskId load = graph.add(make_task({0}, 10, {}, TaskKind::DmaLoad));
  graph.add(make_task({0}, 5, {load}, TaskKind::Compute));
  const RunResult run = engine.run(graph);
  ASSERT_EQ(run.makespan, 15u);

  const WhatIfOutcome outcome =
      evaluate_what_if(graph, run, what_if_speed(TaskKind::DmaLoad, 2.0));
  EXPECT_TRUE(outcome.applicable);
  EXPECT_EQ(outcome.replayed, 10u);  // ceil(10/2) + 5
  EXPECT_TRUE(outcome.within_bounds);

  // No decompress tasks in the graph: the scenario is a no-op.
  const WhatIfOutcome absent =
      evaluate_what_if(graph, run, what_if_speed(TaskKind::Decompress, 2.0));
  EXPECT_FALSE(absent.applicable);
  EXPECT_EQ(absent.replayed, run.makespan);
}

TEST(CritPath, WhatIfMissingResourceIsInapplicable) {
  Engine engine({{"r", 1}});
  TaskGraph graph;
  graph.add(make_task({0}, 10));
  const RunResult run = engine.run(graph);
  const WhatIfOutcome outcome =
      evaluate_what_if(graph, run, what_if_capacity_add("no_such", 1));
  EXPECT_FALSE(outcome.applicable);
  EXPECT_EQ(outcome.replayed, run.makespan);
  EXPECT_TRUE(outcome.within_bounds);
}

TEST(CritPath, ParseWhatIfGrammar) {
  EXPECT_EQ(parse_what_if("unbounded").kind, WhatIf::Kind::Unbounded);

  const WhatIf add = parse_what_if("dram_channels+1");
  EXPECT_EQ(add.kind, WhatIf::Kind::Capacity);
  EXPECT_EQ(add.resource, "dram_channels");
  EXPECT_EQ(add.cap_add, 1);
  EXPECT_EQ(add.name, "dram_channels+1");

  const WhatIf scale = parse_what_if("codec_units*2");
  EXPECT_EQ(scale.kind, WhatIf::Kind::Capacity);
  EXPECT_DOUBLE_EQ(scale.cap_scale, 2.0);

  const WhatIf speed = parse_what_if("reconfig/2");
  EXPECT_EQ(speed.kind, WhatIf::Kind::Speed);
  EXPECT_EQ(speed.task_kind, TaskKind::Reconfig);
  EXPECT_DOUBLE_EQ(speed.speed_factor, 2.0);

  EXPECT_THROW(parse_what_if(""), CheckFailure);
  EXPECT_THROW(parse_what_if("dram_channels"), CheckFailure);
  EXPECT_THROW(parse_what_if("dram_channels+0"), CheckFailure);
  EXPECT_THROW(parse_what_if("dram_channels*nope"), CheckFailure);
  EXPECT_THROW(parse_what_if("no_such_kind/2"), CheckFailure);

  // Values the scenario cannot represent are refused, never wrapped.
  EXPECT_EQ(parse_what_if("dram_channels+2147483647").cap_add, 2147483647);
  EXPECT_THROW(parse_what_if("dram_channels+2147483648"), CheckFailure);
  EXPECT_THROW(parse_what_if("dram_channels+4294967297"), CheckFailure);
  EXPECT_THROW(parse_what_if("dram_channels+99999999999999999999"),
               CheckFailure);
  EXPECT_EQ(parse_what_if("compute/0.000001").name, "compute/0.000001");
  EXPECT_THROW(parse_what_if("compute/1e-7"), CheckFailure);
  EXPECT_THROW(parse_what_if("compute/1e-300"), CheckFailure);
  EXPECT_THROW(parse_what_if("dram_channels*1e-7"), CheckFailure);
}

TEST(CritPath, WhatIfBeyondIntOrCycleRefused) {
  Engine engine({{"r", 1}});
  TaskGraph graph;
  graph.add(make_task({0}, Cycle{1} << 50));
  const RunResult run = engine.run(graph);
  // 1 + INT_MAX units, 3e9 units, and 2^50 cycles x 10^6 do not fit.
  EXPECT_THROW(evaluate_what_if(graph, run, parse_what_if("r+2147483647")),
               CheckFailure);
  EXPECT_THROW(evaluate_what_if(graph, run, parse_what_if("r*3e9")),
               CheckFailure);
  EXPECT_THROW(
      evaluate_what_if(graph, run, parse_what_if("compute/0.000001")),
      CheckFailure);
  // The largest representable scenarios still replay.
  EXPECT_EQ(evaluate_what_if(graph, run, parse_what_if("r+2147483646"))
                .replayed,
            run.makespan);
  EXPECT_EQ(evaluate_what_if(graph, run, parse_what_if("compute/0.001"))
                .replayed,
            run.makespan * 1000);
}

// ---- executed schedules from the real builder --------------------------

// The acceptance property on a real network: for every fusion group of the
// planned vgg16 schedule, the unbounded what-if prediction (the dependence
// critical path) equals the replayed engine makespan exactly. The capacity
// band sweep runs on the smaller alexnet below; this test keeps to the one
// exact check so it stays tractable under sanitizers.
TEST(CritPathExecutor, VggUnboundedCriticalPathEqualsMakespan) {
  const nn::Network net = nn::make_vgg16();
  const fabric::FabricConfig config = fabric::mocha_default_config();
  const core::MorphController planner(model::default_tech(), {});
  const auto stats = core::assumed_stats(net, nn::SparsityProfile{});
  const dataflow::NetworkPlan plan = planner.plan(net, config, stats);

  for (const auto& group : plan.fusion_groups()) {
    dataflow::BuiltSchedule built =
        dataflow::build_group_schedule(net, plan, group, config, stats);
    const sim::Engine engine(built.layout.specs);
    const RunResult run = engine.run(built.graph, /*detailed=*/true);

    const CritPathReport report = analyze_critical_path(built.graph, run);
    EXPECT_EQ(report.makespan, run.makespan);
    EXPECT_TRUE(report.path_complete) << "group at layer " << group.first;

    const WhatIfOutcome unbounded =
        evaluate_what_if(built.graph, run, what_if_unbounded());
    EXPECT_TRUE(unbounded.exact);
    EXPECT_TRUE(unbounded.within_bounds) << "group at layer " << group.first;
    EXPECT_EQ(unbounded.predicted, report.dep_critical_cycles);
    EXPECT_EQ(unbounded.replayed, unbounded.predicted)
        << "group at layer " << group.first
        << ": unbounded engine run disagrees with the dependence CP";
  }
}

// Slack is internally consistent on an executed schedule — the chain's
// durations sum to the makespan and per-kind attribution accounts for all
// of it — and every capacity what-if replays inside its analytic band.
TEST(CritPathExecutor, AlexnetChainAndWhatIfBands) {
  const nn::Network net = nn::make_alexnet();
  const fabric::FabricConfig config = fabric::mocha_default_config();
  const core::MorphController planner(model::default_tech(), {});
  const auto stats = core::assumed_stats(net, nn::SparsityProfile{});
  const dataflow::NetworkPlan plan = planner.plan(net, config, stats);

  for (const auto& group : plan.fusion_groups()) {
    dataflow::BuiltSchedule built =
        dataflow::build_group_schedule(net, plan, group, config, stats);
    const sim::Engine engine(built.layout.specs);
    const RunResult run = engine.run(built.graph, /*detailed=*/true);
    const CritPathReport report = analyze_critical_path(built.graph, run);

    ASSERT_TRUE(report.path_complete);
    Cycle chain = 0;
    for (const CritStep& step : report.path) {
      const Task& t = built.graph.task(step.task);
      chain += t.finish - t.start;
      EXPECT_TRUE(report.on_path[static_cast<std::size_t>(step.task)]);
    }
    EXPECT_EQ(chain, run.makespan);

    Cycle kind_critical = 0;
    for (const CritKind& kind : report.kinds) {
      kind_critical += kind.critical_cycles;
    }
    EXPECT_EQ(kind_critical, run.makespan);

    for (const char* spec :
         {"dram_channels+1", "codec_units*2", "pe_groups*2"}) {
      const WhatIfOutcome outcome =
          evaluate_what_if(built.graph, run, parse_what_if(spec));
      EXPECT_TRUE(outcome.within_bounds)
          << spec << " replay " << outcome.replayed << " outside ["
          << outcome.predicted << ", " << outcome.upper_bound << "] in group "
          << group.first;
    }
  }
}

}  // namespace
}  // namespace mocha::obs
