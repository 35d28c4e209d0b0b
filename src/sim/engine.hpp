// Discrete-event execution of task graphs over finite resources.
//
// List scheduling: a task becomes ready when all dependencies finish, and
// starts as soon as a unit of its resource is free (FIFO by task id among
// ready tasks — deterministic). This models the contention that makes the
// optimization trade-offs real: DMA transfers serialize on the DRAM bus,
// codec work serializes on codec engines, compute on PE groups.
#pragma once

#include <string>
#include <vector>

#include "model/energy.hpp"
#include "obs/metrics.hpp"
#include "sim/task.hpp"

namespace mocha::sim {

struct ResourceSpec {
  std::string name;
  int capacity = 1;
};

/// Aggregate results of one engine run.
struct RunResult {
  Cycle makespan = 0;
  model::ActionCounts totals;

  /// Highest simultaneous scratchpad occupancy — the run's "storage
  /// requirement" in the paper's sense.
  std::int64_t peak_sram_bytes = 0;

  /// Sum of busy unit-cycles per resource (index-aligned with the specs).
  std::vector<Cycle> resource_busy_cycles;
  std::vector<ResourceSpec> resources;

  /// Tasks executed.
  std::uint64_t task_count = 0;

  /// Distribution of ready-to-start delay per task (start minus the latest
  /// dependency finish) — the contention signal: how long work sat queued
  /// because its resource was busy.
  obs::HistogramData queue_wait_cycles;

  /// Busy fraction of a resource across the makespan: busy / (capacity * T).
  double utilization(ResourceId resource) const;
};

class Engine {
 public:
  explicit Engine(std::vector<ResourceSpec> resources);

  /// Executes the graph to completion; fills each task's start/finish and
  /// returns aggregate statistics. The graph is validated (acyclic, bound
  /// resources in range) first, and that pass's dependents index drives
  /// the run.
  ///
  /// `detailed` additionally assigns each task its exclusive resource-unit
  /// lane (Task::units, needed by the tracer) and fills the queue-wait
  /// histogram. Off by default: the planner simulates thousands of
  /// candidate graphs that only need the aggregate numbers, and the
  /// per-task extras (a unit-lane scan per dispatch plus a post-hoc pass)
  /// cost real time at that volume. The accelerator's committed runs
  /// request it.
  RunResult run(TaskGraph& graph, bool detailed = false) const;

  const std::vector<ResourceSpec>& resources() const { return resources_; }

 private:
  std::vector<ResourceSpec> resources_;
};

}  // namespace mocha::sim
