// E10b — google-benchmark microbenchmarks of the simulation stack:
// engine event throughput, schedule construction, cost-model evaluation,
// and whole-network planning. These bound how large a design-space sweep
// the harness can afford.
#include <benchmark/benchmark.h>

#include "core/accelerator.hpp"
#include "dataflow/cost.hpp"
#include "dataflow/schedule.hpp"

namespace {

using namespace mocha;

dataflow::NetworkPlan neutral_plan(const nn::Network& net) {
  dataflow::NetworkPlan plan;
  for (const nn::LayerSpec& layer : net.layers) {
    plan.layers.push_back(dataflow::whole_layer_plan(layer));
  }
  return plan;
}

void BM_EngineEventThroughput(benchmark::State& state) {
  // A wide synthetic DAG: chains of width `range(0)`, depth 64.
  const int width = static_cast<int>(state.range(0));
  std::size_t tasks = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::TaskGraph graph;
    for (int d = 0; d < 64; ++d) {
      for (int w = 0; w < width; ++w) {
        sim::Task t;
        t.resources = {static_cast<sim::ResourceId>(w % 3)};
        t.duration = static_cast<sim::Cycle>(w % 7 + 1);
        if (d > 0) {
          t.deps = {static_cast<sim::TaskId>((d - 1) * width + w)};
        }
        graph.add(std::move(t));
      }
    }
    state.ResumeTiming();
    const sim::Engine engine({{"a", 4}, {"b", 2}, {"c", 1}});
    benchmark::DoNotOptimize(engine.run(graph));
    tasks += graph.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(tasks));
}
BENCHMARK(BM_EngineEventThroughput)->Arg(16)->Arg(64)->Arg(256);

void BM_BuildAlexnetConv2Schedule(benchmark::State& state) {
  const nn::Network net = nn::make_alexnet();
  const auto plan = neutral_plan(net);
  const auto config = fabric::mocha_default_config();
  const std::vector<dataflow::LayerStreamStats> stats(net.layers.size(),
                                                      {0.5, 0.3, 0.5});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dataflow::build_group_schedule(net, plan, {2, 2}, config, stats));
  }
}
BENCHMARK(BM_BuildAlexnetConv2Schedule)->Unit(benchmark::kMillisecond);

void BM_CostModelEvaluation(benchmark::State& state) {
  const nn::Network net = nn::make_alexnet();
  const auto plan = neutral_plan(net);
  const auto config = fabric::mocha_default_config();
  const std::vector<dataflow::LayerStreamStats> stats(net.layers.size(),
                                                      {0.5, 0.3, 0.5});
  const auto tech = model::default_tech();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dataflow::estimate_group_cost(
        net, plan, {2, 2}, config, stats, tech));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CostModelEvaluation);

void BM_PlanAlexnet(benchmark::State& state) {
  const core::Accelerator acc = core::make_mocha_accelerator();
  const nn::Network net = nn::make_alexnet();
  const auto stats = core::assumed_stats(net, nn::SparsityProfile{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(acc.plan(net, stats));
  }
}
BENCHMARK(BM_PlanAlexnet)->Unit(benchmark::kMillisecond);

void BM_SimulateAlexnetWithPlan(benchmark::State& state) {
  const core::Accelerator acc = core::make_mocha_accelerator();
  const nn::Network net = nn::make_alexnet();
  const auto stats = core::assumed_stats(net, nn::SparsityProfile{});
  const auto plan = acc.plan(net, stats);
  for (auto _ : state) {
    benchmark::DoNotOptimize(acc.run_with_plan(net, plan, stats));
  }
}
BENCHMARK(BM_SimulateAlexnetWithPlan)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
