// Run provenance: which code, configuration, and workload produced a
// report. Stamped into every JSON report and BENCH output so benchmark
// trajectories stay attributable across PRs and machines.
#pragma once

#include <cstdint>
#include <string>

namespace mocha::util {
class JsonWriter;
}

namespace mocha::obs {

struct RunManifest {
  std::string schema = "mocha.manifest.v1";
  std::string tool;         // producing binary ("mocha_sim", "mocha_serve")
  std::string network;      // workload, when one applies
  std::string accelerator;  // accelerator/strategy under test
  std::string objective;    // planner objective
  std::int64_t batch = 0;   // 0 = not applicable

  // Fabric configuration knobs that dominate the results.
  std::int64_t sram_bytes = 0;
  int pe_rows = 0;
  int pe_cols = 0;
  double clock_ghz = 0;

  // Execution environment.
  int threads = 0;          // resolved pool width (MOCHA_THREADS)
  std::string kernel_isa;   // dispatched kernel/codec ISA (util::active_isa)
  std::string build_type;   // CMAKE_BUILD_TYPE at compile time
  std::string version;      // repo git revision at configure time

  /// Active fault scenario (FaultModel::summary()), empty for healthy runs.
  /// Emitted only when non-empty so existing manifests stay byte-stable.
  std::string fault_scenario;

  /// Manifest with tool/threads/build_type/version filled from the build
  /// and process environment; workload fields are the caller's.
  static RunManifest current(std::string tool);

  /// Writes the manifest as one JSON object value.
  void write_json(util::JsonWriter& json) const;
};

}  // namespace mocha::obs
