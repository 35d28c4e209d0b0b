// Task graphs: the unit of work the discrete-event engine executes.
//
// A schedule (built in src/dataflow from a LayerPlan) is a DAG of tasks,
// each bound to one hardware resource (DRAM bus, codec engine, PE group,
// ...) with a precomputed duration and an ActionCounts contribution for the
// energy model. Dependencies express the dataflow: a compute tile cannot
// start before its operand transfers (and decompressions) finish.
//
// A built task owns one heap block, its dependency list: its identity is a
// fixed-size TaskTag formatted into text only on demand, and its resources
// and unit lanes live inline.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "model/energy.hpp"
#include "util/assert.hpp"

namespace mocha::sim {

using TaskId = std::int32_t;
using ResourceId = std::int32_t;
using Cycle = std::uint64_t;

inline constexpr TaskId kInvalidTask = -1;

enum class TaskKind {
  DmaLoad,     // DRAM -> scratchpad
  DmaStore,    // scratchpad -> DRAM
  Decompress,  // scratchpad coded -> PE-side raw
  Compress,    // PE-side raw -> scratchpad coded
  Compute,     // MAC work on a PE group
  Reconfig,    // fabric context switch between layer plans
  Barrier,     // zero-cost synchronization / buffer-release point
};

const char* task_kind_name(TaskKind kind);

/// Fixed-capacity list stored inside its owner, for the few resource ids
/// and unit lanes a task holds. Appending past the capacity drops the value
/// and marks the list overflowed; TaskGraph::add and validate reject a task
/// whose list overflowed, so a truncated list never reaches the engine.
template <typename T, std::size_t N>
class InlineList {
 public:
  InlineList() = default;
  InlineList(std::initializer_list<T> values) { *this = values; }
  InlineList& operator=(std::initializer_list<T> values) {
    clear();
    for (const T& value : values) push_back(value);
    return *this;
  }

  void push_back(const T& value) {
    if (size_ == N) {
      overflowed_ = true;
      return;
    }
    items_[size_++] = value;
  }
  void clear() {
    size_ = 0;
    overflowed_ = false;
  }

  bool overflowed() const { return overflowed_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T& operator[](std::size_t i) { return items_[i]; }
  const T& operator[](std::size_t i) const { return items_[i]; }
  T* begin() { return items_.data(); }
  T* end() { return items_.data() + size_; }
  const T* begin() const { return items_.data(); }
  const T* end() const { return items_.data() + size_; }

 private:
  std::array<T, N> items_{};
  std::uint8_t size_ = 0;
  bool overflowed_ = false;
};

/// Resources one task may hold at once. The schedule builder binds exactly
/// one; tests bind up to two.
inline constexpr std::size_t kMaxTaskResources = 4;

/// What a task is, as fields. The schedule builder stores one per task;
/// task_label() turns it into text ("comp.L0.0.1.0.g0s1") only when a
/// trace, DOT file, report or error message prints it.
struct TaskTag {
  static constexpr std::size_t kMaxIndices = 3;

  /// Role name, e.g. "comp" or "tile_bar". Must point to static storage
  /// (a string literal): tags are copied with their tasks and own no text.
  const char* role = "";
  /// Layer the task works for (-1: none). Critical-path reports attribute
  /// the task's cycles to it.
  std::int32_t layer = -1;
  /// Whether the label names the layer (".L<layer>"). A group-wide barrier
  /// is attributed to the group's head layer without naming it.
  bool shows_layer = false;
  /// The compress task of a coded store; the label ends in ".pack".
  bool pack = false;
  /// Loop indices the label prints after the layer, outermost first.
  std::uint8_t index_count = 0;
  std::array<std::uint32_t, kMaxIndices> indices{};
  /// Compute chunk: inter-map group g and intra-map slice s, printed as
  /// ".g<g>s<s>"; -1 for tasks that are not chunks.
  std::int32_t chunk_g = -1;
  std::int32_t chunk_s = -1;
};

struct Task {
  TaskId id = kInvalidTask;
  TaskKind kind = TaskKind::Compute;
  TaskTag tag;
  /// Resources this task occupies for its whole duration, acquired
  /// atomically at dispatch. Schedules bind one per task; the engine
  /// supports up to kMaxTaskResources.
  InlineList<ResourceId, kMaxTaskResources> resources;
  Cycle duration = 0;
  std::vector<TaskId> deps;

  /// Energy-relevant event counts this task contributes when it completes.
  model::ActionCounts actions;

  /// Scratchpad bytes reserved when this task starts / released when it
  /// finishes. A load allocates its destination buffer; the last consumer
  /// of a buffer carries the matching free.
  std::int64_t sram_alloc_bytes = 0;
  std::int64_t sram_free_bytes = 0;

  // Filled in by the engine.
  Cycle start = 0;
  Cycle finish = 0;
  /// Which unit of each bound resource the task occupied (index-aligned
  /// with `resources`; lowest free unit wins, deterministically). Gives the
  /// tracer one exclusive lane per resource unit. Filled on detailed runs.
  InlineList<int, kMaxTaskResources> units;
};

/// The task's label, formatted from its tag: the role, then ".L<layer>"
/// and the loop indices, ".g<g>s<s>" for a compute chunk and ".pack" for
/// a store's compress task — e.g. "comp.L0.0.1.0.g0s1", "group_end".
std::string task_label(const Task& task);

/// Dependents of every task in compressed-sparse-row form, plus a
/// topological order, from one validating pass (TaskGraph::validate).
/// Nothing is cached on the graph: every consumer validates and gets its
/// own index, so an add_dep after the pass cannot leave one stale.
struct DependentsIndex {
  /// Task t's dependents are ids[offsets[t] .. offsets[t + 1]) in id
  /// order; a task listing the same dependency twice appears twice.
  std::vector<std::size_t> offsets;
  std::vector<TaskId> ids;
  /// Every task id, each after all of its dependencies.
  std::vector<TaskId> order;

  std::span<const TaskId> of(TaskId id) const {
    const auto t = static_cast<std::size_t>(id);
    return {ids.data() + offsets[t], offsets[t + 1] - offsets[t]};
  }
};

/// Growable DAG with cycle detection. Task ids are dense indices.
class TaskGraph {
 public:
  /// Adds a task; returns its id. Dependencies may be added later. Throws
  /// util::CheckFailure if a dependency is not yet added or the task binds
  /// more than kMaxTaskResources resources.
  TaskId add(Task task);

  /// Declares that `after` cannot start before `before` finishes.
  void add_dep(TaskId before, TaskId after);

  Task& task(TaskId id) {
    MOCHA_CHECK(id >= 0 && static_cast<std::size_t>(id) < tasks_.size(),
                "bad task id " << id);
    return tasks_[static_cast<std::size_t>(id)];
  }
  const Task& task(TaskId id) const {
    MOCHA_CHECK(id >= 0 && static_cast<std::size_t>(id) < tasks_.size(),
                "bad task id " << id);
    return tasks_[static_cast<std::size_t>(id)];
  }

  std::size_t size() const { return tasks_.size(); }
  bool empty() const { return tasks_.empty(); }
  std::vector<Task>& tasks() { return tasks_; }
  const std::vector<Task>& tasks() const { return tasks_; }

  /// Throws util::CheckFailure if the dependency relation has a cycle or
  /// references out-of-range ids, or a task binds no resource or a
  /// resource id outside [0, resource_count). Returns the dependents index
  /// the same pass built. The engine and the critical-path analysis call
  /// it before every run.
  DependentsIndex validate(
      std::size_t resource_count =
          std::numeric_limits<std::size_t>::max()) const;

 private:
  std::vector<Task> tasks_;
};

}  // namespace mocha::sim
