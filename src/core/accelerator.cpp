#include "core/accelerator.hpp"

#include <algorithm>

#include "fabric/pe_array.hpp"
#include "model/energy.hpp"
#include "obs/critpath.hpp"
#include "obs/trace.hpp"
#include "sim/trace.hpp"
#include "util/log.hpp"

namespace mocha::core {

const GroupReport* RunReport::group_for_layer(std::size_t layer_index) const {
  for (const GroupReport& group : groups) {
    if (layer_index >= group.first_layer && layer_index <= group.last_layer) {
      return &group;
    }
  }
  return nullptr;
}

Accelerator::Accelerator(fabric::FabricConfig config, model::TechParams tech,
                         MorphOptions options)
    : config_(std::move(config)), tech_(tech),
      planner_(tech, std::move(options)) {
  config_.validate();
}

dataflow::NetworkPlan Accelerator::plan(
    const nn::Network& net,
    const std::vector<dataflow::LayerStreamStats>& stats,
    nn::Index batch) const {
  return planner_.plan(net, config_, stats, batch);
}

RunReport Accelerator::run(const nn::Network& net,
                           const nn::SparsityProfile& profile,
                           nn::Index batch) const {
  const auto stats = assumed_stats(net, profile);
  return run_with_plan(net, plan(net, stats, batch), stats, batch);
}

RunReport Accelerator::run_with_plan(
    const nn::Network& net, const dataflow::NetworkPlan& plan,
    const std::vector<dataflow::LayerStreamStats>& stats,
    nn::Index batch, const GroupObserver& observer) const {
  net.validate();
  plan.validate(net);
  MOCHA_CHECK(batch >= 1, "batch=" << batch);
  const model::EnergyModel energy_model(tech_, config_);

  RunReport report;
  report.accelerator = config_.name;
  report.network = net.name;
  report.clock_ghz = config_.clock_ghz;

  const auto groups = plan.fusion_groups();
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    const auto& group = groups[gi];
    dataflow::BuiltSchedule built =
        dataflow::build_group_schedule(net, plan, group, config_, stats, batch);
    const sim::Engine engine(built.layout.specs);
    const sim::RunResult run = engine.run(built.graph, /*detailed=*/true);

    GroupReport gr;
    gr.first_layer = group.first;
    gr.last_layer = group.last;
    gr.label = net.layers[group.first].name;
    for (std::size_t l = group.first + 1; l <= group.last; ++l) {
      gr.label += "+" + net.layers[l].name;
    }
    gr.cycles = run.makespan;
    for (std::size_t l = group.first; l <= group.last; ++l) {
      gr.dense_macs += batch * net.layers[l].macs();
    }
    gr.counts = run.totals;
    const std::int64_t reconfig =
        group_reconfig_cycles(config_, plan, group.first);
    gr.counts.reconfigs = 1;
    gr.counts.cycles += reconfig;
    gr.cycles += static_cast<sim::Cycle>(reconfig);
    gr.dram_bytes =
        run.totals.dram_read_bytes + run.totals.dram_write_bytes;
    gr.peak_sram_bytes = run.peak_sram_bytes;
    gr.pe_utilization = run.utilization(built.layout.pe);
    gr.dram_utilization = run.utilization(built.layout.dram);
    gr.energy = energy_model.energy(gr.counts);
    gr.plan_summary = plan.layers[group.first].summary();
    gr.task_count = run.task_count;
    gr.queue_wait_cycles = run.queue_wait_cycles;
    for (std::size_t r = 0; r < run.resources.size(); ++r) {
      gr.resource_use.push_back(
          {run.resources[r].name, run.resources[r].capacity,
           run.resource_busy_cycles[r],
           run.utilization(static_cast<sim::ResourceId>(r))});
    }
    if (observer) observer(gi, built, run);

#if MOCHA_OBS
    // Render this group's executed task graph on the simulated-time lanes;
    // candidate simulations inside the planner never reach here, so the
    // timeline shows exactly the committed run. The reconfiguration context
    // load precedes the group on the sequencer lane.
    if (obs::TraceSession* session = obs::TraceSession::active()) {
      if (reconfig > 0) {
        session->sim_event("sequencer", "reconfig " + gr.label, "Reconfig", 0,
                           static_cast<sim::Cycle>(reconfig));
      }
      session->set_sim_offset(session->sim_offset() +
                              static_cast<sim::Cycle>(reconfig));
      sim::TraceEmitOptions emit_options;
      emit_options.group = static_cast<std::int64_t>(gi);
      // Only flow events read the critical chain (category "critical").
      obs::CritPathReport critpath;
      if (session->sim_flows_enabled()) {
        critpath = obs::analyze_critical_path(built.graph, run);
        emit_options.on_critical_path = &critpath.on_path;
      }
      sim::emit_trace(built.graph, built.layout.specs, session, emit_options);
      session->set_sim_offset(session->sim_offset() + run.makespan);
    }
#endif

    if (run.peak_sram_bytes > config_.sram_bytes) {
      report.sram_ok = false;
      MOCHA_LOG(Warn, config_.name << "/" << net.name << " group " << gr.label
                                   << " peak scratchpad "
                                   << run.peak_sram_bytes << " exceeds "
                                   << config_.sram_bytes);
    }
    MOCHA_CHECK(run.peak_sram_bytes <= built.footprint_bytes,
                gr.label << ": measured peak " << run.peak_sram_bytes
                         << " exceeds builder bound "
                         << built.footprint_bytes);

    report.total_cycles += gr.cycles;
    report.total_dense_macs += gr.dense_macs;
    report.total_dram_bytes += gr.dram_bytes;
    report.peak_sram_bytes =
        std::max(report.peak_sram_bytes, gr.peak_sram_bytes);
    report.total_energy_pj += gr.energy.total_pj();
    report.groups.push_back(std::move(gr));
  }
  return report;
}

std::int64_t group_reconfig_cycles(const fabric::FabricConfig& config,
                                   const dataflow::NetworkPlan& plan,
                                   std::size_t group_first) {
  // Each group switch loads a new fabric context. A morphable fabric
  // loads a full plan context (sized by fabric::plan_context_words); a
  // fixed-function controller swaps only its static per-layer registers.
  const dataflow::LayerPlan& head_plan = plan.layers[group_first];
  const bool coded = head_plan.ifmap_codec != compress::CodecKind::None ||
                     head_plan.kernel_codec != compress::CodecKind::None ||
                     head_plan.ofmap_codec != compress::CodecKind::None;
  return config.has_morph_controller
             ? fabric::reconfig_cycles_for(config, head_plan.total_groups(),
                                           coded)
             : config.reconfig_cycles;
}

Accelerator make_mocha_accelerator(fabric::FabricConfig config,
                                   model::TechParams tech,
                                   Objective objective) {
  MorphOptions options;
  options.objective = objective;
  return Accelerator(std::move(config), tech, std::move(options));
}

}  // namespace mocha::core
