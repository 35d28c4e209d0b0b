#include "sim/engine.hpp"

#include <algorithm>
#include <queue>
#include <set>

namespace mocha::sim {

double RunResult::utilization(ResourceId resource) const {
  MOCHA_CHECK(resource >= 0 &&
                  static_cast<std::size_t>(resource) < resources.size(),
              "bad resource id " << resource);
  if (makespan == 0) return 0.0;
  const auto capacity =
      static_cast<double>(resources[static_cast<std::size_t>(resource)].capacity);
  return static_cast<double>(
             resource_busy_cycles[static_cast<std::size_t>(resource)]) /
         (capacity * static_cast<double>(makespan));
}

Engine::Engine(std::vector<ResourceSpec> resources)
    : resources_(std::move(resources)) {
  MOCHA_CHECK(!resources_.empty(), "engine needs at least one resource");
  for (const ResourceSpec& r : resources_) {
    MOCHA_CHECK(r.capacity > 0, "resource '" << r.name << "' has capacity 0");
  }
}

RunResult Engine::run(TaskGraph& graph, bool detailed) const {
  const DependentsIndex dependents = graph.validate(resources_.size());

  RunResult result;
  result.resources = resources_;
  result.resource_busy_cycles.assign(resources_.size(), 0);
  if (graph.empty()) return result;

  std::vector<int> waiting(graph.size(), 0);
  for (const Task& t : graph.tasks()) {
    waiting[static_cast<std::size_t>(t.id)] = static_cast<int>(t.deps.size());
  }

  // Single ready set ordered by task id: the dispatcher greedily starts, in
  // id order, every ready task whose full resource set is free. Tasks hold
  // all their resources for their whole duration (acquired atomically, so
  // no hold-and-wait and hence no resource deadlock).
  std::set<TaskId> ready;
  std::vector<int> free_units;
  free_units.reserve(resources_.size());
  // Which unit of each resource is occupied; a task takes the lowest free
  // unit. Timing is capacity-driven and unaffected — the unit index only
  // gives each task an exclusive lane for tracing/occupancy views, so it
  // is tracked only on detailed runs.
  std::vector<std::vector<char>> unit_busy;
  if (detailed) unit_busy.reserve(resources_.size());
  for (const ResourceSpec& r : resources_) {
    free_units.push_back(r.capacity);
    if (detailed) {
      unit_busy.emplace_back(static_cast<std::size_t>(r.capacity), 0);
    }
  }

  for (const Task& t : graph.tasks()) {
    if (waiting[static_cast<std::size_t>(t.id)] == 0) ready.insert(t.id);
  }

  using Event = std::pair<Cycle, TaskId>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;

  Cycle now = 0;
  std::int64_t sram_now = 0;
  std::size_t completed = 0;

  auto can_start = [&](const Task& t) {
    return std::all_of(t.resources.begin(), t.resources.end(),
                       [&](ResourceId r) {
                         return free_units[static_cast<std::size_t>(r)] > 0;
                       });
  };

  // One id-order pass starts everything startable: starting a task only
  // consumes resources, and tasks join the ready set only in complete(), so
  // a task the pass skipped cannot become startable before the next event.
  auto dispatch = [&]() {
    for (auto it = ready.begin(); it != ready.end();) {
      Task& t = graph.task(*it);
      if (!can_start(t)) {
        ++it;
        continue;
      }
      if (detailed) t.units.clear();
      for (ResourceId resource : t.resources) {
        const auto r = static_cast<std::size_t>(resource);
        --free_units[r];
        if (!detailed) continue;
        std::vector<char>& busy = unit_busy[r];
        int unit = 0;
        for (std::size_t u = 0; u < busy.size(); ++u) {
          if (busy[u] == 0) {
            busy[u] = 1;
            unit = static_cast<int>(u);
            break;
          }
        }
        t.units.push_back(unit);
      }
      t.start = now;
      t.finish = now + t.duration;
      sram_now += t.sram_alloc_bytes;
      result.peak_sram_bytes = std::max(result.peak_sram_bytes, sram_now);
      events.emplace(t.finish, t.id);
      it = ready.erase(it);
    }
  };

  auto complete = [&](TaskId id) {
    Task& t = graph.task(id);
    for (std::size_t ri = 0; ri < t.resources.size(); ++ri) {
      const auto r = static_cast<std::size_t>(t.resources[ri]);
      ++free_units[r];
      if (detailed) unit_busy[r][static_cast<std::size_t>(t.units[ri])] = 0;
      result.resource_busy_cycles[r] += t.duration;
    }
    sram_now -= t.sram_free_bytes;
    MOCHA_CHECK(sram_now >= 0,
                "scratchpad balance negative after task '" << task_label(t)
                                                           << "'");
    result.totals += t.actions;
    ++completed;
    for (TaskId next : dependents.of(id)) {
      if (--waiting[static_cast<std::size_t>(next)] == 0) ready.insert(next);
    }
  };

  dispatch();
  while (!events.empty()) {
    now = events.top().first;
    // Drain every completion at this timestamp before dispatching, so
    // capacity freed simultaneously is all visible to the id-order scan.
    while (!events.empty() && events.top().first == now) {
      const TaskId id = events.top().second;
      events.pop();
      complete(id);
    }
    dispatch();
  }

  MOCHA_CHECK(completed == graph.size(),
              "deadlock: " << graph.size() - completed << " tasks never ran");
  result.makespan = now;
  result.totals.cycles = static_cast<std::int64_t>(now);
  result.task_count = graph.size();

  if (detailed) {
    // Queue wait: how long each task sat ready (all dependencies finished)
    // before its resources freed up. Derived post-hoc from the recorded
    // timeline, so the event loop pays nothing for it.
    for (const Task& t : graph.tasks()) {
      Cycle ready = 0;
      for (TaskId dep : t.deps) {
        ready = std::max(ready, graph.task(dep).finish);
      }
      const Cycle wait = t.start - ready;
      result.queue_wait_cycles.add(static_cast<std::int64_t>(wait));
      MOCHA_METRIC_HIST("sim.queue_wait_cycles", wait);
    }
    MOCHA_METRIC_ADD("sim.tasks_completed", graph.size());
#if MOCHA_OBS
    if (obs::MetricsRegistry::enabled()) {
      for (std::size_t r = 0; r < resources_.size(); ++r) {
        MOCHA_METRIC_ADD("sim.busy_cycles." + resources_[r].name,
                         result.resource_busy_cycles[r]);
      }
    }
#endif
  }
  return result;
}

}  // namespace mocha::sim
