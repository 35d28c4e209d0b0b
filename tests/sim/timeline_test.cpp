// Timeline-level validation of the engine: reconstruct per-resource
// occupancy from the tasks' start/finish stamps and check the engine never
// oversubscribed a resource, never started a task before its dependencies
// finished, and accounted busy cycles exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>

#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace mocha::sim {
namespace {

/// Max simultaneous tasks per resource, from (start, finish) intervals.
std::map<ResourceId, int> peak_concurrency(const TaskGraph& graph,
                                           std::size_t resource_count) {
  std::map<ResourceId, int> peaks;
  for (std::size_t r = 0; r < resource_count; ++r) {
    // Sweep line over interval endpoints.
    std::vector<std::pair<Cycle, int>> events;
    for (const Task& t : graph.tasks()) {
      const bool uses = std::find(t.resources.begin(), t.resources.end(),
                                  static_cast<ResourceId>(r)) !=
                        t.resources.end();
      if (!uses || t.duration == 0) continue;
      events.emplace_back(t.start, +1);
      events.emplace_back(t.finish, -1);
    }
    std::sort(events.begin(), events.end(),
              [](const auto& a, const auto& b) {
                // Process releases before acquisitions at equal timestamps.
                return a.first != b.first ? a.first < b.first
                                          : a.second < b.second;
              });
    int now = 0;
    int peak = 0;
    for (const auto& [time, delta] : events) {
      now += delta;
      peak = std::max(peak, now);
    }
    peaks[static_cast<ResourceId>(r)] = peak;
  }
  return peaks;
}

TaskGraph random_graph(std::uint64_t seed, int tasks) {
  util::Rng rng(seed);
  TaskGraph graph;
  for (int i = 0; i < tasks; ++i) {
    Task t;
    t.resources = {static_cast<ResourceId>(rng.uniform_int(0, 2))};
    if (rng.bernoulli(0.15)) {
      // Multi-resource task.
      ResourceId extra = static_cast<ResourceId>(rng.uniform_int(0, 2));
      if (extra != t.resources[0]) t.resources.push_back(extra);
    }
    t.duration = static_cast<Cycle>(rng.uniform_int(0, 12));
    if (i > 0) {
      const int deps = static_cast<int>(rng.uniform_int(0, 2));
      for (int d = 0; d < deps; ++d) {
        t.deps.push_back(static_cast<TaskId>(rng.uniform_int(0, i - 1)));
      }
    }
    graph.add(std::move(t));
  }
  return graph;
}

class Timeline : public ::testing::TestWithParam<int> {};

TEST_P(Timeline, CapacityNeverExceeded) {
  const std::vector<ResourceSpec> specs = {{"a", 2}, {"b", 1}, {"c", 3}};
  Engine engine(specs);
  TaskGraph graph = random_graph(static_cast<std::uint64_t>(GetParam()), 200);
  engine.run(graph);
  const auto peaks = peak_concurrency(graph, specs.size());
  for (std::size_t r = 0; r < specs.size(); ++r) {
    EXPECT_LE(peaks.at(static_cast<ResourceId>(r)), specs[r].capacity)
        << specs[r].name;
  }
}

TEST_P(Timeline, DependenciesRespected) {
  Engine engine({{"a", 2}, {"b", 1}, {"c", 3}});
  TaskGraph graph =
      random_graph(static_cast<std::uint64_t>(GetParam()) + 1000, 200);
  engine.run(graph);
  for (const Task& t : graph.tasks()) {
    for (TaskId dep : t.deps) {
      EXPECT_GE(t.start, graph.task(dep).finish)
          << "task " << t.id << " started before dep " << dep;
    }
    EXPECT_EQ(t.finish, t.start + t.duration);
  }
}

TEST_P(Timeline, BusyCyclesMatchTimeline) {
  const std::vector<ResourceSpec> specs = {{"a", 2}, {"b", 1}, {"c", 3}};
  Engine engine(specs);
  TaskGraph graph =
      random_graph(static_cast<std::uint64_t>(GetParam()) + 2000, 150);
  const RunResult result = engine.run(graph);
  for (std::size_t r = 0; r < specs.size(); ++r) {
    Cycle expect = 0;
    for (const Task& t : graph.tasks()) {
      if (std::find(t.resources.begin(), t.resources.end(),
                    static_cast<ResourceId>(r)) != t.resources.end()) {
        expect += t.duration;
      }
    }
    EXPECT_EQ(result.resource_busy_cycles[r], expect) << specs[r].name;
  }
}

TEST_P(Timeline, MakespanIsLastFinish) {
  Engine engine({{"a", 2}, {"b", 1}, {"c", 3}});
  TaskGraph graph =
      random_graph(static_cast<std::uint64_t>(GetParam()) + 3000, 100);
  const RunResult result = engine.run(graph);
  Cycle last = 0;
  for (const Task& t : graph.tasks()) last = std::max(last, t.finish);
  EXPECT_EQ(result.makespan, last);
}

/// FNV-1a over the eight bytes of each word, low byte first.
std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    hash ^= (word >> (8 * b)) & 0xffU;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// What a detailed run decides, per seed of the pinned schedules.
struct PinnedSchedule {
  std::uint64_t tasks_digest;  // every task's (start, finish, units)
  std::array<Cycle, 3> busy_cycles;
  std::int64_t peak_sram_bytes;
  std::uint64_t queue_wait_digest;  // count, sum, min, max, buckets
};

// Recorded with resource and unit lists held in std::vector and labels
// held as strings; how a task stores its identity and resources must not
// move a single start, finish or unit lane.
constexpr PinnedSchedule kPinned[] = {
    {4106284414126220732ULL, {448, 338, 473}, 400, 6922985512969772715ULL},
    {701739960413590028ULL, {429, 384, 447}, 416, 15355468821852567363ULL},
    {667423417298752578ULL, {437, 452, 471}, 400, 5217465012034698440ULL},
    {11730047066938589069ULL, {475, 449, 442}, 496, 15318643742148637507ULL},
    {3149442023880379715ULL, {388, 533, 410}, 416, 2285403478379380721ULL},
    {7521200370816747739ULL, {444, 472, 451}, 480, 12206671345143833465ULL},
    {17616738436655499789ULL, {428, 476, 445}, 464, 14127494623328780124ULL},
    {12605640622749213095ULL, {404, 407, 455}, 432, 7389420503461767642ULL},
};

TEST_P(Timeline, DetailedScheduleMatchesPinned) {
  const std::vector<ResourceSpec> specs = {{"a", 2}, {"b", 1}, {"c", 3}};
  TaskGraph graph =
      random_graph(static_cast<std::uint64_t>(GetParam()) + 4000, 200);
  // Scratchpad traffic from the id alone, so the rng stream (and hence the
  // graph shape) matches the other Timeline cases.
  for (Task& t : graph.tasks()) {
    t.sram_alloc_bytes = 16 * (t.id % 7);
    t.sram_free_bytes = t.sram_alloc_bytes;
  }
  const RunResult result = Engine(specs).run(graph, /*detailed=*/true);

  std::uint64_t tasks_digest = kFnvBasis;
  for (const Task& t : graph.tasks()) {
    tasks_digest = fnv1a(tasks_digest, t.start);
    tasks_digest = fnv1a(tasks_digest, t.finish);
    for (int unit : t.units) {
      tasks_digest = fnv1a(tasks_digest, static_cast<std::uint64_t>(unit));
    }
  }
  const obs::HistogramData& wait = result.queue_wait_cycles;
  std::uint64_t wait_digest = kFnvBasis;
  wait_digest = fnv1a(wait_digest, wait.count);
  wait_digest = fnv1a(wait_digest, static_cast<std::uint64_t>(wait.sum));
  wait_digest = fnv1a(wait_digest, static_cast<std::uint64_t>(wait.min));
  wait_digest = fnv1a(wait_digest, static_cast<std::uint64_t>(wait.max));
  for (std::uint64_t bucket : wait.buckets) {
    wait_digest = fnv1a(wait_digest, bucket);
  }

  const PinnedSchedule& pinned = kPinned[GetParam()];
  EXPECT_EQ(tasks_digest, pinned.tasks_digest);
  ASSERT_EQ(result.resource_busy_cycles.size(), pinned.busy_cycles.size());
  for (std::size_t r = 0; r < pinned.busy_cycles.size(); ++r) {
    EXPECT_EQ(result.resource_busy_cycles[r], pinned.busy_cycles[r])
        << specs[r].name;
  }
  EXPECT_EQ(result.peak_sram_bytes, pinned.peak_sram_bytes);
  EXPECT_EQ(wait_digest, pinned.queue_wait_digest);
  if (HasFailure()) {
    ADD_FAILURE() << "observed {" << tasks_digest << "ULL, {"
                  << result.resource_busy_cycles[0] << ", "
                  << result.resource_busy_cycles[1] << ", "
                  << result.resource_busy_cycles[2] << "}, "
                  << result.peak_sram_bytes << ", " << wait_digest << "ULL}";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Timeline, ::testing::Range(0, 8));

}  // namespace
}  // namespace mocha::sim
