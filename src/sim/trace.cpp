#include "sim/trace.hpp"

#include "util/assert.hpp"

namespace mocha::sim {

namespace {

// Lane of the task's first held resource unit — where its complete event
// lives and where flow endpoints attach.
std::string primary_lane(const Task& t, const std::vector<ResourceSpec>& specs) {
  const ResourceSpec& spec = specs[static_cast<std::size_t>(t.resources[0])];
  return spec.capacity == 1
             ? spec.name
             : spec.name + "[" + std::to_string(t.units[0]) + "]";
}

}  // namespace

void emit_trace(const TaskGraph& graph, const std::vector<ResourceSpec>& specs,
                obs::TraceSession* session, const TraceEmitOptions& options) {
  MOCHA_CHECK(session != nullptr, "emit_trace without a session");
  for (const Task& t : graph.tasks()) {
    if (t.duration == 0) continue;  // barriers carry no occupancy
    MOCHA_CHECK(t.units.size() == t.resources.size(),
                "task '" << task_label(t)
                         << "' has no unit assignment — emit_trace "
                         << "needs an executed graph");
    const std::string label = task_label(t);
    for (std::size_t ri = 0; ri < t.resources.size(); ++ri) {
      const ResourceSpec& spec =
          specs[static_cast<std::size_t>(t.resources[ri])];
      const std::string lane =
          spec.capacity == 1
              ? spec.name
              : spec.name + "[" + std::to_string(t.units[ri]) + "]";
      session->sim_event(lane, label, task_kind_name(t.kind), t.start,
                         t.duration, options.group, t.id);
    }
  }
  if (!session->sim_flows_enabled()) return;
  // One flow pair per dependence edge between visible (nonzero-duration)
  // tasks. Edges touching barriers are dropped: barriers emit no slice,
  // so the flow would have nothing to bind to.
  const auto on_chain = [&](TaskId id) {
    return options.on_critical_path != nullptr &&
           static_cast<std::size_t>(id) < options.on_critical_path->size() &&
           (*options.on_critical_path)[static_cast<std::size_t>(id)] != 0;
  };
  for (const Task& t : graph.tasks()) {
    if (t.duration == 0) continue;
    const std::string to_lane = primary_lane(t, specs);
    for (TaskId dep : t.deps) {
      const Task& d = graph.task(dep);
      if (d.duration == 0) continue;
      const bool critical = on_chain(t.id) && on_chain(dep);
      const char* category = critical ? "critical" : "dep";
      const std::uint64_t id = session->next_flow_id();
      session->sim_flow(primary_lane(d, specs), category, category, d.finish,
                        id, /*begin=*/true);
      session->sim_flow(to_lane, category, category, t.start, id,
                        /*begin=*/false);
    }
  }
}

}  // namespace mocha::sim
