#include "core/report_json.hpp"

#include "util/json.hpp"

namespace mocha::core {

namespace {

void emit_energy(util::JsonWriter& json, const model::EnergyBreakdown& e) {
  json.begin_object();
  json.key("mac_pj").value(e.mac_pj);
  json.key("rf_pj").value(e.rf_pj);
  json.key("sram_pj").value(e.sram_pj);
  json.key("dram_pj").value(e.dram_pj);
  json.key("codec_pj").value(e.codec_pj);
  json.key("noc_pj").value(e.noc_pj);
  json.key("control_pj").value(e.control_pj);
  json.key("leakage_pj").value(e.leakage_pj);
  json.key("total_pj").value(e.total_pj());
  json.end_object();
}

void emit_sim_metrics(util::JsonWriter& json, const GroupReport& group) {
  json.begin_object();
  json.key("tasks").value(group.task_count);
  json.key("resources").begin_array();
  for (const ResourceUse& use : group.resource_use) {
    json.begin_object();
    json.key("name").value(use.name);
    json.key("capacity").value(static_cast<std::int64_t>(use.capacity));
    json.key("busy_cycles").value(use.busy_cycles);
    json.key("utilization").value(use.utilization);
    json.end_object();
  }
  json.end_array();
  const obs::HistogramData& wait = group.queue_wait_cycles;
  json.key("queue_wait_cycles").begin_object();
  json.key("count").value(wait.count);
  json.key("sum").value(wait.sum);
  json.key("max").value(wait.count == 0 ? 0 : wait.max);
  json.key("mean").value(wait.mean());
  json.end_object();
  json.end_object();
}

}  // namespace

std::string report_to_json(const RunReport& report,
                           const obs::RunManifest* manifest,
                           const obs::MetricsSnapshot* metrics) {
  util::JsonWriter json;
  json.begin_object();
  json.key("accelerator").value(report.accelerator);
  json.key("network").value(report.network);
  json.key("clock_ghz").value(report.clock_ghz);
  if (manifest != nullptr) {
    json.key("manifest");
    manifest->write_json(json);
  }
  json.key("total_cycles")
      .value(static_cast<std::uint64_t>(report.total_cycles));
  json.key("total_dense_macs").value(report.total_dense_macs);
  json.key("total_dram_bytes").value(report.total_dram_bytes);
  json.key("peak_sram_bytes").value(report.peak_sram_bytes);
  json.key("total_energy_pj").value(report.total_energy_pj);
  json.key("runtime_ms").value(report.runtime_ms());
  json.key("throughput_gops").value(report.throughput_gops());
  json.key("efficiency_gops_per_w").value(report.efficiency_gops_per_w());
  json.key("sram_ok").value(report.sram_ok);

  json.key("groups").begin_array();
  for (const GroupReport& group : report.groups) {
    json.begin_object();
    json.key("label").value(group.label);
    json.key("first_layer")
        .value(static_cast<std::int64_t>(group.first_layer));
    json.key("last_layer").value(static_cast<std::int64_t>(group.last_layer));
    json.key("cycles").value(static_cast<std::uint64_t>(group.cycles));
    json.key("dense_macs").value(group.dense_macs);
    json.key("dram_bytes").value(group.dram_bytes);
    json.key("peak_sram_bytes").value(group.peak_sram_bytes);
    json.key("throughput_gops")
        .value(group.throughput_gops(report.clock_ghz));
    json.key("pe_utilization").value(group.pe_utilization);
    json.key("dram_utilization").value(group.dram_utilization);
    json.key("macs_per_dram_byte").value(group.macs_per_dram_byte());
    json.key("plan").value(group.plan_summary);
    json.key("energy");
    emit_energy(json, group.energy);
    json.key("sim_metrics");
    emit_sim_metrics(json, group);
    json.end_object();
  }
  json.end_array();

  if (metrics != nullptr) {
    json.key("metrics");
    metrics->write_json(json);
  }
  json.end_object();
  return json.str();
}

}  // namespace mocha::core
