#include "sim/task.hpp"

namespace mocha::sim {

const char* task_kind_name(TaskKind kind) {
  switch (kind) {
    case TaskKind::DmaLoad:
      return "dma_load";
    case TaskKind::DmaStore:
      return "dma_store";
    case TaskKind::Decompress:
      return "decompress";
    case TaskKind::Compress:
      return "compress";
    case TaskKind::Compute:
      return "compute";
    case TaskKind::Reconfig:
      return "reconfig";
    case TaskKind::Barrier:
      return "barrier";
  }
  MOCHA_UNREACHABLE("bad TaskKind");
}

std::string task_label(const Task& task) {
  const TaskTag& tag = task.tag;
  std::string label = tag.role;
  if (tag.shows_layer) label += ".L" + std::to_string(tag.layer);
  for (std::size_t i = 0; i < tag.index_count; ++i) {
    label += "." + std::to_string(tag.indices[i]);
  }
  if (tag.chunk_g >= 0) {
    label += ".g" + std::to_string(tag.chunk_g) + "s" +
             std::to_string(tag.chunk_s);
  }
  if (tag.pack) label += ".pack";
  return label;
}

TaskId TaskGraph::add(Task task) {
  const TaskId id = static_cast<TaskId>(tasks_.size());
  task.id = id;
  for (TaskId dep : task.deps) {
    MOCHA_CHECK(dep >= 0 && dep < id,
                "task '" << task_label(task)
                         << "' depends on not-yet-added task " << dep);
  }
  MOCHA_CHECK(!task.resources.overflowed(),
              "task '" << task_label(task) << "' binds more than "
                       << kMaxTaskResources << " resources");
  tasks_.push_back(std::move(task));
  return id;
}

void TaskGraph::add_dep(TaskId before, TaskId after) {
  MOCHA_CHECK(before >= 0 && static_cast<std::size_t>(before) < tasks_.size(),
              "bad dep source " << before);
  MOCHA_CHECK(after >= 0 && static_cast<std::size_t>(after) < tasks_.size(),
              "bad dep target " << after);
  MOCHA_CHECK(before != after, "self-dependency on task " << before);
  tasks_[static_cast<std::size_t>(after)].deps.push_back(before);
}

DependentsIndex TaskGraph::validate(std::size_t resource_count) const {
  const std::size_t n = tasks_.size();
  DependentsIndex index;
  // Counting pass: offsets[dep] counts dep's dependents; indegree is each
  // task's dependency count.
  index.offsets.assign(n + 1, 0);
  std::vector<int> indegree(n, 0);
  for (const Task& t : tasks_) {
    for (TaskId dep : t.deps) {
      MOCHA_CHECK(dep >= 0 && static_cast<std::size_t>(dep) < n,
                  "task '" << task_label(t) << "' has out-of-range dep "
                           << dep);
      ++index.offsets[static_cast<std::size_t>(dep)];
    }
    indegree[static_cast<std::size_t>(t.id)] = static_cast<int>(t.deps.size());
    MOCHA_CHECK(!t.resources.empty(),
                "task '" << task_label(t) << "' not bound to any resource");
    MOCHA_CHECK(!t.resources.overflowed(),
                "task '" << task_label(t) << "' binds more than "
                         << kMaxTaskResources << " resources");
    for (ResourceId r : t.resources) {
      MOCHA_CHECK(r >= 0 && static_cast<std::size_t>(r) < resource_count,
                  "task '" << task_label(t) << "' bound to unknown resource "
                           << r);
    }
  }
  // Inclusive prefix sum: offsets[t] is the end of t's range. Filling
  // backwards from each end in descending id order leaves every list
  // ascending and offsets[t] at its start.
  for (std::size_t i = 1; i <= n; ++i) {
    index.offsets[i] += index.offsets[i - 1];
  }
  index.ids.resize(index.offsets[n]);
  for (auto t = tasks_.rbegin(); t != tasks_.rend(); ++t) {
    for (TaskId dep : t->deps) {
      index.ids[--index.offsets[static_cast<std::size_t>(dep)]] = t->id;
    }
  }
  // Kahn's algorithm; the queue is the topological order, and anything
  // never queued is on a cycle.
  index.order.reserve(n);
  for (const Task& t : tasks_) {
    if (indegree[static_cast<std::size_t>(t.id)] == 0) {
      index.order.push_back(t.id);
    }
  }
  for (std::size_t head = 0; head < index.order.size(); ++head) {
    for (TaskId next : index.of(index.order[head])) {
      if (--indegree[static_cast<std::size_t>(next)] == 0) {
        index.order.push_back(next);
      }
    }
  }
  MOCHA_CHECK(index.order.size() == n,
              "task graph has a cycle (" << n - index.order.size()
                                         << " tasks unreachable)");
  return index;
}

}  // namespace mocha::sim
