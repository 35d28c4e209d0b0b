#include "sim/dot.hpp"

#include <sstream>

namespace mocha::sim {

namespace {

const char* kind_color(TaskKind kind) {
  switch (kind) {
    case TaskKind::DmaLoad:
      return "lightblue";
    case TaskKind::DmaStore:
      return "steelblue";
    case TaskKind::Decompress:
    case TaskKind::Compress:
      return "gold";
    case TaskKind::Compute:
      return "palegreen";
    case TaskKind::Reconfig:
      return "plum";
    case TaskKind::Barrier:
      return "lightgray";
  }
  return "white";
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::string to_dot(const TaskGraph& graph,
                   const std::vector<ResourceSpec>& resources,
                   std::size_t max_tasks) {
  std::ostringstream os;
  os << "digraph schedule {\n"
     << "  rankdir=LR;\n"
     << "  node [shape=box, style=filled, fontsize=9];\n";
  const std::size_t n = std::min(graph.size(), max_tasks);
  if (n < graph.size()) {
    os << "  truncated [label=\"... " << graph.size() - n
       << " more tasks truncated ...\", fillcolor=white];\n";
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Task& t = graph.task(static_cast<TaskId>(i));
    os << "  t" << t.id << " [label=\"" << escape(task_label(t)) << "\\n"
       << task_kind_name(t.kind) << " d=" << t.duration;
    if (t.finish > 0 || t.start > 0) {
      os << " [" << t.start << "," << t.finish << ")";
    }
    for (ResourceId r : t.resources) {
      if (static_cast<std::size_t>(r) < resources.size()) {
        os << "\\n" << escape(resources[static_cast<std::size_t>(r)].name);
      }
    }
    os << "\", fillcolor=" << kind_color(t.kind) << "];\n";
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Task& t = graph.task(static_cast<TaskId>(i));
    for (TaskId dep : t.deps) {
      if (static_cast<std::size_t>(dep) < n) {
        os << "  t" << dep << " -> t" << t.id << ";\n";
      }
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace mocha::sim
