// Run reports: the quantities the paper's tables and figures are built from.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/energy.hpp"
#include "nn/network.hpp"
#include "obs/metrics.hpp"
#include "sim/task.hpp"

namespace mocha::core {

/// One resource's occupancy over a group's engine run (the per-resource
/// breakdown the observability layer exports with each report).
struct ResourceUse {
  std::string name;
  int capacity = 0;
  std::uint64_t busy_cycles = 0;
  double utilization = 0;  // busy / (capacity * makespan)
};

/// Results for one scheduled unit (a fusion group: one or more layers).
struct GroupReport {
  std::string label;          // "conv1" or "conv1+pool1"
  std::size_t first_layer = 0;
  std::size_t last_layer = 0;

  sim::Cycle cycles = 0;
  /// Dense MAC count of the covered layers (nominal work; the throughput
  /// numerator even when zero-skipping executes fewer).
  std::int64_t dense_macs = 0;
  std::int64_t dram_bytes = 0;
  std::int64_t peak_sram_bytes = 0;
  model::ActionCounts counts;
  model::EnergyBreakdown energy;
  std::string plan_summary;

  /// Busy fraction of the PE groups / DRAM channels across this group's
  /// makespan (from the engine's resource accounting).
  double pe_utilization = 0;
  double dram_utilization = 0;

  /// Full per-resource occupancy plus queue-wait distribution for this
  /// group's engine run (exported as the "sim_metrics" JSON block).
  std::vector<ResourceUse> resource_use;
  obs::HistogramData queue_wait_cycles;
  std::uint64_t task_count = 0;

  /// Operational intensity: MACs per DRAM byte moved (the roofline x-axis).
  double macs_per_dram_byte() const {
    return dram_bytes == 0 ? 0.0
                           : static_cast<double>(dense_macs) /
                                 static_cast<double>(dram_bytes);
  }

  double throughput_gops(double clock_ghz) const {
    return cycles == 0 ? 0.0
                       : 2.0 * static_cast<double>(dense_macs) /
                             (static_cast<double>(cycles) / clock_ghz);
  }
};

/// Whole-network results on one accelerator configuration.
struct RunReport {
  std::string accelerator;
  std::string network;
  double clock_ghz = 0;
  std::vector<GroupReport> groups;

  sim::Cycle total_cycles = 0;  // includes inter-group reconfiguration
  std::int64_t total_dense_macs = 0;
  std::int64_t total_dram_bytes = 0;
  std::int64_t peak_sram_bytes = 0;
  double total_energy_pj = 0;
  bool sram_ok = true;  // peak occupancy stayed within the scratchpad

  double runtime_ms() const {
    return static_cast<double>(total_cycles) / clock_ghz * 1e-6;
  }

  /// Effective throughput in GOPS (2 ops per dense MAC).
  double throughput_gops() const {
    return total_cycles == 0
               ? 0.0
               : 2.0 * static_cast<double>(total_dense_macs) /
                     (static_cast<double>(total_cycles) / clock_ghz);
  }

  /// Energy efficiency in GOPS/W == ops per nanojoule.
  double efficiency_gops_per_w() const {
    return total_energy_pj == 0.0
               ? 0.0
               : 2.0 * static_cast<double>(total_dense_macs) /
                     (total_energy_pj * 1e-3);
  }

  /// Report entry for the group containing `layer_index`, or nullptr.
  const GroupReport* group_for_layer(std::size_t layer_index) const;
};

}  // namespace mocha::core
