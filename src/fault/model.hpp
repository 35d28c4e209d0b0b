// Fault injection: which hardware died, and what fabric survives.
//
// MOCHA's morph controller plans "from the available resources" — which
// makes the architecture a natural substrate for graceful degradation: when
// PEs, SRAM banks, codec engines or DRAM bandwidth fail, the controller
// re-plans around what remains instead of crashing or silently
// mis-simulating (a fixed-function array has no such option; see
// bench/fig_degradation.cpp, E15).
//
// A FaultModel is the scenario description; degraded_config() derives the
// *surviving* FabricConfig every downstream model (planner, cost, schedule,
// simulation, energy) consumes unchanged. Permanent faults shrink the
// config; the transient codec bit-flip rate feeds the functional executor's
// corrupted-stream retry path (dataflow/executor.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fabric/config.hpp"

namespace mocha::fault {

/// One injected fault scenario. Construct programmatically, from
/// random_scenario(), or from a JSON spec via from_json().
struct FaultModel {
  /// Dead PEs, flat ids (row * pe_cols + col), any order (degraded_config()
  /// sorts them); duplicates are rejected by validate(). At least one PE
  /// must survive.
  std::vector<int> dead_pes;

  /// Failed scratchpad banks, ids in [0, sram_banks). A dead bank removes
  /// its share of capacity and its port from the aggregate bandwidth. At
  /// least one bank must survive.
  std::vector<int> dead_sram_banks;

  /// Failed (de)compressor engines. Reaching codec_units disables
  /// compression entirely — plans carrying codecs fall back to raw
  /// transfers via effective_codec().
  int dead_codec_units = 0;

  /// Surviving fraction of DRAM bus bandwidth in (0, 1] (a degraded
  /// channel, link training down a lane, thermal throttling, ...).
  double dram_bandwidth_factor = 1.0;

  /// Transient faults: per-byte probability that a coded stream suffers a
  /// single-bit flip in flight. Consumed by the functional executor, which
  /// detects the corruption via the framed-stream checksum and re-fetches
  /// the tile uncompressed (compress/codec.hpp).
  double codec_bit_flip_rate = 0.0;

  /// Latency degradation: a fixed pre-execution stall per request, in
  /// milliseconds (a thermally throttled shard, a sick host, a congested
  /// interconnect). Permanent resource faults change *what* survives;
  /// this one changes *how fast* it answers — it is what drives a serving
  /// shard's health score into Degraded without any resource dying.
  /// Consumed by serve::ServeEngine; ignored by degraded_config() (the
  /// fabric itself is intact).
  std::int64_t exec_stall_ms = 0;

  /// Seed for transient-fault injection (and provenance of generated
  /// scenarios).
  std::uint64_t seed = 0;

  /// True when any fault (permanent or transient) is active.
  bool any() const;

  /// Checks the scenario is applicable to `base` (ids in range, at least
  /// one PE and one bank survive, rates in range). Throws CheckFailure.
  void validate(const fabric::FabricConfig& base) const;

  /// Compact one-line description ("pe=48/64 banks=6/8 ..."), for manifests
  /// and log lines.
  std::string summary(const fabric::FabricConfig& base) const;

  /// JSON round trip ("mocha.fault.v1"); from_json throws CheckFailure on
  /// malformed or unknown-key input.
  std::string to_json() const;
  static FaultModel from_json(std::string_view text);

  /// Seeded random scenario killing ~`kill_fraction` of the PEs, SRAM banks
  /// and codec engines of `base` (clamped so the config stays valid: at
  /// least one PE and one bank survive; codec units may all die). DRAM and
  /// transient rates are left healthy for the caller to set.
  static FaultModel random_scenario(const fabric::FabricConfig& base,
                                    double kill_fraction, std::uint64_t seed);
};

/// The fabric that survives `faults`: dead PEs marked (grid geometry kept —
/// partitions must plan around the holes), SRAM shrunk to the live banks,
/// codec engines decremented (zero disables compression), DRAM bandwidth
/// scaled. The result passes FabricConfig::validate().
fabric::FabricConfig degraded_config(const fabric::FabricConfig& base,
                                     const FaultModel& faults);

/// Publishes the scenario as fault.* metric gauges (dead counts, surviving
/// bandwidth percent) so degraded runs are attributable in snapshots.
void record_metrics(const fabric::FabricConfig& base, const FaultModel& faults);

}  // namespace mocha::fault
