#include "obs/critpath.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <unordered_map>

#include "util/assert.hpp"

namespace mocha::obs {

namespace {

using sim::Cycle;
using sim::Task;
using sim::TaskGraph;
using sim::TaskId;
using sim::TaskKind;

constexpr TaskKind kAllKinds[] = {
    TaskKind::DmaLoad,  TaskKind::DmaStore, TaskKind::Decompress,
    TaskKind::Compress, TaskKind::Compute,  TaskKind::Reconfig,
    TaskKind::Barrier,
};

// CPM forward pass over dependence edges with the given durations:
// earliest finish per task, ignoring resource capacities. The maximum is
// the dependence-only critical-path length.
Cycle dep_critical_length(const TaskGraph& graph,
                          const std::vector<TaskId>& order,
                          const std::vector<Cycle>& durations,
                          std::vector<Cycle>* earliest_finish = nullptr) {
  std::vector<Cycle> ef(graph.size(), 0);
  Cycle best = 0;
  for (TaskId id : order) {
    const Task& t = graph.task(id);
    Cycle ready = 0;
    for (TaskId dep : t.deps) {
      ready = std::max(ready, ef[static_cast<std::size_t>(dep)]);
    }
    ef[static_cast<std::size_t>(id)] =
        ready + durations[static_cast<std::size_t>(id)];
    best = std::max(best, ef[static_cast<std::size_t>(id)]);
  }
  if (earliest_finish != nullptr) *earliest_finish = std::move(ef);
  return best;
}

std::vector<Cycle> task_durations(const TaskGraph& graph) {
  std::vector<Cycle> durations(graph.size(), 0);
  for (const Task& t : graph.tasks()) {
    durations[static_cast<std::size_t>(t.id)] = t.duration;
  }
  return durations;
}

// Work per resource under the given durations (a task holding several
// resources contributes to each, matching RunResult::resource_busy_cycles).
std::vector<Cycle> resource_work(const TaskGraph& graph,
                                 std::size_t resource_count,
                                 const std::vector<Cycle>& durations) {
  std::vector<Cycle> busy(resource_count, 0);
  for (const Task& t : graph.tasks()) {
    for (sim::ResourceId r : t.resources) {
      busy[static_cast<std::size_t>(r)] +=
          durations[static_cast<std::size_t>(t.id)];
    }
  }
  return busy;
}

Cycle ceil_div(Cycle a, Cycle b) { return b == 0 ? 0 : (a + b - 1) / b; }

bool shares_resource(const Task& a, const Task& b) {
  for (sim::ResourceId ra : a.resources) {
    for (sim::ResourceId rb : b.resources) {
      if (ra == rb) return true;
    }
  }
  return false;
}

}  // namespace

const char* crit_edge_name(CritEdge edge) {
  switch (edge) {
    case CritEdge::Start:
      return "start";
    case CritEdge::Dep:
      return "dep";
    case CritEdge::Queue:
      return "queue";
  }
  MOCHA_UNREACHABLE("bad CritEdge");
}

CritPathReport analyze_critical_path(const sim::TaskGraph& graph,
                                     const sim::RunResult& run) {
  CritPathReport report;
  report.makespan = run.makespan;
  const std::size_t n = graph.size();
  report.slack.assign(n, 0);
  report.on_path.assign(n, 0);
  for (std::size_t r = 0; r < run.resources.size(); ++r) {
    CritResource res;
    res.name = run.resources[r].name;
    res.capacity = run.resources[r].capacity;
    res.busy_cycles = run.resource_busy_cycles[r];
    res.utilization = run.utilization(static_cast<sim::ResourceId>(r));
    res.min_slack = std::numeric_limits<Cycle>::max();
    report.resources.push_back(std::move(res));
  }
  if (n == 0) {
    for (CritResource& res : report.resources) res.min_slack = 0;
    return report;
  }

  // Ids are usually already topological (add() forbids forward deps) but
  // add_dep() accepts edges in either direction, so the analysis walks the
  // validating pass's order instead of assuming id order.
  const std::vector<TaskId> order =
      graph.validate(run.resources.size()).order;
  const std::vector<Cycle> durations = task_durations(graph);
  report.dep_critical_cycles = dep_critical_length(graph, order, durations);
  report.contention_gap = report.makespan - report.dep_critical_cycles;

  // Reverse CPM pass: remaining_chain[t] = longest dependence chain
  // starting at t (inclusive). Dependence slack against the actual
  // schedule is makespan - start - remaining_chain, which is always >= 0
  // because the chain really does execute after t starts.
  std::vector<Cycle> remaining_chain(n, 0);
  {
    std::vector<Cycle> best_dependent(n, 0);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const Task& t = graph.task(*it);
      remaining_chain[static_cast<std::size_t>(t.id)] =
          t.duration + best_dependent[static_cast<std::size_t>(t.id)];
      for (TaskId dep : t.deps) {
        best_dependent[static_cast<std::size_t>(dep)] =
            std::max(best_dependent[static_cast<std::size_t>(dep)],
                     remaining_chain[static_cast<std::size_t>(t.id)]);
      }
    }
  }
  for (const Task& t : graph.tasks()) {
    const Cycle tail = t.start + remaining_chain[static_cast<std::size_t>(t.id)];
    MOCHA_CHECK(tail <= report.makespan,
                "critpath: task '" << sim::task_label(t)
                                   << "' dependence chain exceeds "
                                   << "the makespan — graph was not executed");
    report.slack[static_cast<std::size_t>(t.id)] = report.makespan - tail;
  }

  // Schedule-critical chain: walk back from the last-finishing task,
  // justifying each start by a dependence finish or by the release of a
  // shared resource unit at exactly that instant. Queue hops are
  // restricted to nonzero-duration predecessors so simulated time
  // strictly decreases; zero-duration fallbacks follow dependence edges
  // (a DAG), so the walk terminates.
  std::unordered_map<Cycle, std::vector<TaskId>> by_finish;
  by_finish.reserve(n);
  for (const Task& t : graph.tasks()) by_finish[t.finish].push_back(t.id);

  TaskId tail_id = 0;
  for (const Task& t : graph.tasks()) {
    const Task& best = graph.task(tail_id);
    if (t.finish > best.finish ||
        (t.finish == best.finish && t.id < best.id)) {
      tail_id = t.id;
    }
  }

  std::vector<CritStep> reversed;
  std::vector<char> visited(n, 0);
  bool reached_start = false;
  TaskId cur = tail_id;
  while (true) {
    visited[static_cast<std::size_t>(cur)] = 1;
    const Task& t = graph.task(cur);
    if (t.start == 0) {
      reversed.push_back({cur, CritEdge::Start});
      reached_start = true;
      break;
    }
    Cycle ready = 0;
    for (TaskId dep : t.deps) {
      ready = std::max(ready, graph.task(dep).finish);
    }
    TaskId pred = sim::kInvalidTask;
    CritEdge edge = CritEdge::Dep;
    if (ready == t.start) {
      for (TaskId dep : t.deps) {
        if (graph.task(dep).finish != t.start) continue;
        if (pred == sim::kInvalidTask || graph.task(dep).duration > 0) {
          pred = dep;
          if (graph.task(dep).duration > 0) break;
        }
      }
    } else {
      // The task sat queued: its start is explained by capacity freed at
      // this instant. Preference order keeps the chain time-contiguous
      // and terminating: resource-sharing releasers before arbitrary
      // ones, nonzero durations (strictly earlier start) before
      // zero-duration releasers (same instant, visited-guarded).
      const auto it = by_finish.find(t.start);
      if (it != by_finish.end()) {
        int best_rank = 0;
        for (TaskId candidate : it->second) {
          const Task& c = graph.task(candidate);
          if (candidate == cur ||
              visited[static_cast<std::size_t>(candidate)] != 0) {
            continue;
          }
          const int rank = (c.duration > 0 ? 2 : 0) +
                           (shares_resource(t, c) ? 2 : 1);
          if (rank > best_rank) {
            best_rank = rank;
            pred = candidate;
          }
        }
      }
      edge = CritEdge::Queue;
      if (pred == sim::kInvalidTask) {
        // Every releaser at this instant is already on the chain; fall
        // back to the dependence edge that defined readiness (strictly
        // earlier — breaks contiguity, which path_complete reports).
        for (TaskId dep : t.deps) {
          if (graph.task(dep).finish == ready) {
            pred = dep;
            edge = CritEdge::Dep;
            break;
          }
        }
      }
    }
    if (pred == sim::kInvalidTask ||
        visited[static_cast<std::size_t>(pred)] != 0) {
      reversed.push_back({cur, edge});
      break;
    }
    reversed.push_back({cur, edge});
    cur = pred;
  }

  report.path.assign(reversed.rbegin(), reversed.rend());
  Cycle chain_cycles = 0;
  for (const CritStep& step : report.path) {
    const Task& t = graph.task(step.task);
    report.on_path[static_cast<std::size_t>(step.task)] = 1;
    chain_cycles += t.duration;
    if (step.entered_by == CritEdge::Queue) {
      report.queue_entered_cycles += t.duration;
    }
  }
  report.path_complete = reached_start && chain_cycles == report.makespan;

  // Per-kind attribution: every kind present in the graph, listed even when
  // its tasks take no cycles.
  std::vector<CritKind> by_kind(std::size(kAllKinds));
  std::vector<char> present(std::size(kAllKinds), 0);
  for (const Task& t : graph.tasks()) {
    const auto k = static_cast<std::size_t>(t.kind);
    by_kind[k].total_cycles += t.duration;
    present[k] = 1;
  }
  for (const CritStep& step : report.path) {
    const Task& t = graph.task(step.task);
    by_kind[static_cast<std::size_t>(t.kind)].critical_cycles += t.duration;
  }
  for (TaskKind kind : kAllKinds) {
    const auto k = static_cast<std::size_t>(kind);
    if (present[k] == 0) continue;
    by_kind[k].kind = kind;
    report.kinds.push_back(by_kind[k]);
  }
  std::sort(report.kinds.begin(), report.kinds.end(),
            [](const CritKind& a, const CritKind& b) {
              if (a.critical_cycles != b.critical_cycles) {
                return a.critical_cycles > b.critical_cycles;
              }
              if (a.total_cycles != b.total_cycles) {
                return a.total_cycles > b.total_cycles;
              }
              return static_cast<int>(a.kind) < static_cast<int>(b.kind);
            });

  // Per-resource attribution. A task's full queue wait and slack are
  // charged to every resource it binds (multi-resource tasks are rare and
  // the double count is the conservative reading for "would widening r
  // help").
  for (const Task& t : graph.tasks()) {
    Cycle ready = 0;
    for (TaskId dep : t.deps) {
      ready = std::max(ready, graph.task(dep).finish);
    }
    const Cycle wait = t.start - ready;
    const Cycle slack = report.slack[static_cast<std::size_t>(t.id)];
    const bool critical = report.on_path[static_cast<std::size_t>(t.id)] != 0;
    for (sim::ResourceId r : t.resources) {
      CritResource& res = report.resources[static_cast<std::size_t>(r)];
      res.queue_wait_cycles += wait;
      res.min_slack = std::min(res.min_slack, slack);
      res.mean_slack += static_cast<double>(slack);
      ++res.bound_tasks;
      if (critical) res.critical_cycles += t.duration;
    }
  }
  for (CritResource& res : report.resources) {
    if (res.bound_tasks == 0) {
      res.min_slack = 0;
    } else {
      res.mean_slack /= static_cast<double>(res.bound_tasks);
    }
  }
  return report;
}

WhatIf what_if_unbounded() {
  WhatIf spec;
  spec.kind = WhatIf::Kind::Unbounded;
  spec.name = "unbounded";
  return spec;
}

WhatIf what_if_capacity_add(std::string resource, int add) {
  MOCHA_CHECK(add > 0, "what-if capacity delta must be positive");
  WhatIf spec;
  spec.kind = WhatIf::Kind::Capacity;
  spec.name = resource + "+" + std::to_string(add);
  spec.resource = std::move(resource);
  spec.cap_add = add;
  return spec;
}

WhatIf what_if_capacity_scale(std::string resource, double scale) {
  MOCHA_CHECK(scale > 0.0 && std::isfinite(scale),
              "what-if capacity scale must be a positive finite factor");
  WhatIf spec;
  spec.kind = WhatIf::Kind::Capacity;
  std::string factor = std::to_string(scale);
  factor.erase(factor.find_last_not_of('0') + 1);
  if (!factor.empty() && factor.back() == '.') factor.pop_back();
  spec.name = resource + "*" + factor;
  spec.resource = std::move(resource);
  spec.cap_scale = scale;
  return spec;
}

WhatIf what_if_speed(sim::TaskKind kind, double factor) {
  MOCHA_CHECK(factor > 0.0 && std::isfinite(factor),
              "what-if speed factor must be a positive finite factor");
  WhatIf spec;
  spec.kind = WhatIf::Kind::Speed;
  std::string f = std::to_string(factor);
  f.erase(f.find_last_not_of('0') + 1);
  if (!f.empty() && f.back() == '.') f.pop_back();
  spec.name = std::string(sim::task_kind_name(kind)) + "/" + f;
  spec.task_kind = kind;
  spec.speed_factor = factor;
  return spec;
}

WhatIf parse_what_if(const std::string& text) {
  if (text == "unbounded") return what_if_unbounded();
  const std::size_t pos = text.find_last_of("+*/");
  MOCHA_CHECK(pos != std::string::npos && pos > 0 && pos + 1 < text.size(),
              "bad what-if '" << text
                              << "' (want unbounded | RES+N | RES*K | KIND/F)");
  const std::string head = text.substr(0, pos);
  const std::string tail = text.substr(pos + 1);
  char* end = nullptr;
  if (text[pos] == '+') {
    const long long add = std::strtoll(tail.c_str(), &end, 10);
    MOCHA_CHECK(end != nullptr && *end == '\0' && add > 0 &&
                    add <= std::numeric_limits<int>::max(),
                "bad what-if delta in '"
                    << text << "' (want 1.." << std::numeric_limits<int>::max()
                    << ")");
    return what_if_capacity_add(head, static_cast<int>(add));
  }
  // The scenario's name prints the factor with six decimals, so a smaller
  // factor would be named as dividing or multiplying by 0.
  constexpr double kMinFactor = 1e-6;
  const double factor = std::strtod(tail.c_str(), &end);
  MOCHA_CHECK(end != nullptr && *end == '\0' && factor >= kMinFactor &&
                  std::isfinite(factor),
              "bad what-if factor in '" << text << "' (want a finite factor >= "
                                        << kMinFactor << ")");
  if (text[pos] == '*') return what_if_capacity_scale(head, factor);
  for (TaskKind kind : kAllKinds) {
    if (head == sim::task_kind_name(kind)) return what_if_speed(kind, factor);
  }
  MOCHA_CHECK(false, "bad what-if '" << text << "': unknown task kind '"
                                     << head << "'");
  return what_if_unbounded();  // unreachable
}

WhatIfOutcome evaluate_what_if(const sim::TaskGraph& graph,
                               const sim::RunResult& run, const WhatIf& spec) {
  WhatIfOutcome outcome;
  outcome.name = spec.name;
  outcome.baseline = run.makespan;

  std::vector<sim::ResourceSpec> specs = run.resources;
  std::vector<Cycle> durations = task_durations(graph);
  switch (spec.kind) {
    case WhatIf::Kind::Unbounded: {
      const int wide = static_cast<int>(std::min<std::size_t>(
          graph.size() + 1,
          static_cast<std::size_t>(std::numeric_limits<int>::max())));
      for (sim::ResourceSpec& s : specs) {
        s.capacity = std::max(s.capacity, wide);
      }
      break;
    }
    case WhatIf::Kind::Capacity: {
      outcome.applicable = false;
      for (sim::ResourceSpec& s : specs) {
        if (s.name != spec.resource) continue;
        outcome.applicable = true;
        // Computed in double (exact for any int-sized result) so a capacity
        // beyond int is refused instead of wrapping.
        const double capacity =
            std::round(static_cast<double>(s.capacity) * spec.cap_scale) +
            spec.cap_add;
        MOCHA_CHECK(capacity <= std::numeric_limits<int>::max(),
                    "what-if '" << spec.name << "': " << s.name
                                << " capacity " << std::fixed
                                << std::setprecision(0) << capacity
                                << " does not fit an int");
        s.capacity = std::max(1, static_cast<int>(capacity));
      }
      break;
    }
    case WhatIf::Kind::Speed: {
      outcome.applicable = false;
      for (const Task& t : graph.tasks()) {
        if (t.kind != spec.task_kind || t.duration == 0) continue;
        outcome.applicable = true;
        const double scaled =
            std::ceil(static_cast<double>(t.duration) / spec.speed_factor);
        constexpr double kCycleLimit = 0x1p64;  // 2^64: first value past Cycle
        MOCHA_CHECK(scaled < kCycleLimit,
                    "what-if '" << spec.name << "': task '"
                                << sim::task_label(t) << "' would take "
                                << std::fixed << std::setprecision(0)
                                << scaled << " cycles, past the cycle counter");
        durations[static_cast<std::size_t>(t.id)] = static_cast<Cycle>(scaled);
      }
      break;
    }
  }

  // Analytic bounds. Lower: the dependence critical path and each
  // resource's work / capacity are both unbeatable. Upper: Graham's
  // argument for greedy list scheduling — every cycle the critical
  // dependence chain is stalled, some resource it needs is saturated, so
  // the stall total is bounded by the per-resource serialization sum.
  if (graph.empty()) {
    outcome.within_bounds = true;
    outcome.exact = true;
    return outcome;
  }
  const std::vector<TaskId> order = graph.validate(specs.size()).order;
  const Cycle dep_cp = dep_critical_length(graph, order, durations);
  const std::vector<Cycle> busy =
      resource_work(graph, specs.size(), durations);
  Cycle serial_max = 0;
  Cycle serial_sum = 0;
  for (std::size_t r = 0; r < specs.size(); ++r) {
    const Cycle serial =
        ceil_div(busy[r], static_cast<Cycle>(specs[r].capacity));
    serial_max = std::max(serial_max, serial);
    serial_sum += serial;
  }
  outcome.exact = spec.kind == WhatIf::Kind::Unbounded;
  outcome.predicted = std::max(dep_cp, serial_max);
  outcome.upper_bound = outcome.exact ? outcome.predicted : dep_cp + serial_sum;

  // Replay: the engine is the ground truth for the scenario. The copy is
  // re-run coarse (detailed unit bookkeeping scans O(capacity) per task,
  // which the unbounded scenario would turn quadratic).
  sim::TaskGraph replay = graph;
  for (Task& t : replay.tasks()) {
    t.duration = durations[static_cast<std::size_t>(t.id)];
  }
  const sim::RunResult rr = sim::Engine(specs).run(replay);
  outcome.replayed = rr.makespan;
  outcome.within_bounds =
      outcome.exact ? outcome.replayed == outcome.predicted
                    : outcome.predicted <= outcome.replayed &&
                          outcome.replayed <= outcome.upper_bound;
  return outcome;
}

}  // namespace mocha::obs
