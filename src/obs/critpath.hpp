// Critical-path and slack analysis over executed task graphs.
//
// Given a TaskGraph the engine has already run (start/finish filled) and
// the run's aggregate RunResult, this module answers the questions the
// timeline alone does not: which chain of tasks bounds the makespan, how
// much slack every other task has, which resource or task kind the
// bottleneck chain spends its cycles on, and — via what-if evaluation —
// how much a wider resource or a faster task kind would actually buy.
//
// Two distinct "critical path" notions are reported:
//
//  * dep_critical_cycles — the classic CPM longest chain through
//    dependence edges only (durations, ignoring resource capacities).
//    This is the makespan lower bound: with unbounded resources the
//    engine achieves it exactly.
//  * path — the schedule-critical chain: a time-contiguous chain of
//    executed tasks from cycle 0 to the makespan in which each task is
//    justified either by a dependence edge (its start equals a
//    predecessor's finish) or by a queue edge (it waited for a resource
//    unit another task freed at that instant). Its durations sum to the
//    makespan; the part entered through queue edges is the contention the
//    dependence structure alone cannot explain.
//
// What-if queries ("+1 DMA channel", "2x codec units", "unbounded",
// "reconfig twice as fast") are answered analytically — lower bound
// max(dep CP, busiest-resource work / new capacity) and a Graham-style
// upper bound dep CP + sum of per-resource serialization — AND validated
// by replaying the engine with the modified ResourceSpec list. A replay
// outside the analytic bounds means the model and the engine disagree;
// callers (mocha_sim --critpath-out) treat that as a hard error.
//
// The analysis runs only on request: for mocha_sim --critpath-out, and for
// the critical-flow categories of a --trace-flows trace
// (core::Accelerator::run_with_plan). Planning and plain simulation never
// pay for it.
//
// This header lives in src/obs but depends on sim types, so critpath.cpp
// is compiled into the mocha_sim library (same precedent as sim/trace.cpp
// depending on obs/trace.hpp in the other direction).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/engine.hpp"

namespace mocha::obs {

/// How a task on the schedule-critical chain got there.
enum class CritEdge {
  Start,  // chain head: starts at cycle 0
  Dep,    // started the instant a dependence finished
  Queue,  // started the instant another task freed a resource unit
};

const char* crit_edge_name(CritEdge edge);

struct CritStep {
  sim::TaskId task = sim::kInvalidTask;
  CritEdge entered_by = CritEdge::Start;
};

/// Per-resource view: total work, share of the critical chain spent
/// holding this resource, queue wait charged to it, and the minimum
/// dependence slack among its tasks (0 => widening it can help).
struct CritResource {
  std::string name;
  int capacity = 0;
  sim::Cycle busy_cycles = 0;
  sim::Cycle critical_cycles = 0;
  sim::Cycle queue_wait_cycles = 0;
  sim::Cycle min_slack = 0;
  double mean_slack = 0.0;
  double utilization = 0.0;
  std::uint64_t bound_tasks = 0;
};

struct CritKind {
  sim::TaskKind kind = sim::TaskKind::Compute;
  sim::Cycle critical_cycles = 0;  // chain cycles spent in this kind
  sim::Cycle total_cycles = 0;     // all task-cycles of this kind
};

struct CritPathReport {
  sim::Cycle makespan = 0;

  /// CPM longest dependence chain (capacity-blind lower bound).
  sim::Cycle dep_critical_cycles = 0;

  /// makespan - dep_critical_cycles: cycles attributable to contention.
  sim::Cycle contention_gap = 0;

  /// Chain cycles entered through queue edges (contention on the chain).
  sim::Cycle queue_entered_cycles = 0;

  /// True when the backward walk reached cycle 0 with a contiguous chain
  /// whose durations sum to the makespan. False only on degenerate graphs
  /// (the scalar fields above are still valid).
  bool path_complete = false;

  /// Schedule-critical chain in start order (first element starts at 0).
  std::vector<CritStep> path;

  /// Per-kind cycles, sorted by critical_cycles descending. Every kind with
  /// a task in the graph is listed, even when all its tasks take 0 cycles.
  std::vector<CritKind> kinds;

  /// Index-aligned with the engine's resource specs.
  std::vector<CritResource> resources;

  /// Per-task CPM dependence slack (latest finish - actual finish) and
  /// chain membership, indexed by task id.
  std::vector<sim::Cycle> slack;
  std::vector<char> on_path;
};

/// Analyzes an executed graph. `run` must come from an Engine::run over
/// the same graph (any `detailed` setting — unit lanes are not needed).
CritPathReport analyze_critical_path(const sim::TaskGraph& graph,
                                     const sim::RunResult& run);

/// One what-if scenario: a resource-capacity change, a task-kind speedup
/// (models e.g. a faster config bus for reconfig tasks), or fully
/// unbounded capacities.
struct WhatIf {
  enum class Kind { Unbounded, Capacity, Speed };

  Kind kind = Kind::Unbounded;
  std::string name;  // display name, e.g. "dram_channels+1"

  // Kind::Capacity — new capacity = max(1, round(old * cap_scale) + cap_add).
  std::string resource;
  int cap_add = 0;
  double cap_scale = 1.0;

  // Kind::Speed — every task of `task_kind` takes ceil(duration / factor).
  sim::TaskKind task_kind = sim::TaskKind::Reconfig;
  double speed_factor = 1.0;
};

WhatIf what_if_unbounded();
WhatIf what_if_capacity_add(std::string resource, int add);
WhatIf what_if_capacity_scale(std::string resource, double scale);
WhatIf what_if_speed(sim::TaskKind kind, double factor);

/// Parses the CLI grammar: "unbounded" | "RES+N" | "RES*K" | "KIND/F"
/// where RES is a resource name ("dram_channels"), KIND a task-kind name
/// ("reconfig"), N an integer in [1, INT_MAX], K and F finite factors of
/// at least 1e-6 (the name prints six decimals). Throws util::CheckFailure
/// on malformed or out-of-range input.
WhatIf parse_what_if(const std::string& text);

/// Prediction vs engine replay for one scenario on one graph.
struct WhatIfOutcome {
  std::string name;
  /// False when the scenario's target does not exist in this graph (no
  /// such resource / no task of that kind); the scenario is then a no-op
  /// and predicted == replayed == baseline.
  bool applicable = true;
  sim::Cycle baseline = 0;
  /// Analytic makespan estimate: max(dep CP, per-resource work bound).
  /// For Unbounded scenarios this is exact, otherwise a lower bound.
  sim::Cycle predicted = 0;
  /// Graham-style analytic upper bound (== predicted when exact).
  sim::Cycle upper_bound = 0;
  /// Engine makespan with the scenario applied.
  sim::Cycle replayed = 0;
  /// True when the prediction admits no tolerance band.
  bool exact = false;
  /// predicted <= replayed <= upper_bound (equality when exact). The
  /// documented tolerance: out-of-band means model and engine disagree.
  bool within_bounds = false;
};

/// Applies `spec` to a copy of `graph`, computes the analytic bounds, and
/// replays the engine with the modified ResourceSpec list / durations.
/// Throws util::CheckFailure, naming the scenario, when a scaled capacity
/// does not fit an int or a scaled duration does not fit a Cycle.
WhatIfOutcome evaluate_what_if(const sim::TaskGraph& graph,
                               const sim::RunResult& run, const WhatIf& spec);

}  // namespace mocha::obs
