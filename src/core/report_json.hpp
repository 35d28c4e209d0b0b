// JSON export of run reports, for plotting and regression tracking.
#pragma once

#include <string>

#include "core/report.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"

namespace mocha::core {

/// Serializes a RunReport: accelerator/network metadata, totals, derived
/// metrics, and the per-group results including the chosen plan summaries,
/// energy breakdowns, and per-group engine occupancy ("sim_metrics").
///
/// `manifest` (run provenance) and `metrics` (a MetricsRegistry snapshot)
/// are embedded as top-level "manifest" / "metrics" blocks when given.
/// Every pre-existing key is emitted unchanged, so consumers of the old
/// schema keep working.
std::string report_to_json(const RunReport& report,
                           const obs::RunManifest* manifest = nullptr,
                           const obs::MetricsSnapshot* metrics = nullptr);

}  // namespace mocha::core
