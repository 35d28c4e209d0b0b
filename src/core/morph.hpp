// The morph controller — MOCHA differentiator (iii).
//
// Decides, per layer and from the layer's dimensions and the available
// resources, which optimizations to apply and how to compose them:
//
//   1. *Fusion grouping* — dynamic programming over the layer chain: the
//      cheapest segmentation into fusion groups, where a group's cost is
//      the best plan found for it (fusing pays halo recompute and weight
//      residency to save DRAM round trips).
//   2. *Per-group plan search* — staged coordinate search over tile sizes,
//      loop order, parallelism split and stream codecs, ranked by the
//      analytical cost model (dataflow/cost.hpp).
//   3. *Exact refinement* — the top-K analytical candidates are built into
//      real task graphs and simulated; the measured objective picks the
//      winner. Analytical ranking prunes, simulation decides.
//
// The fixed-strategy baselines are this same controller with optimizations
// disabled through MorphOptions — which is exactly the comparison the paper
// makes (the substrate is shared; only the flexibility differs).
#pragma once

#include <optional>
#include <utility>

#include "core/planner.hpp"

namespace mocha::core {

/// What the search may use. Every search also tries both loop orders (weight-
/// and input-stationary) and holds analytical footprints to the whole
/// scratchpad (FabricConfig::sram_bytes).
struct MorphOptions {
  Objective objective = Objective::EnergyDelayProduct;

  /// Layer merging allowed (fusion groups longer than 1).
  bool allow_fusion = true;
  /// Longest fusion chain considered.
  std::size_t max_fusion_len = 3;

  /// Stream compression allowed (codecs searched per stream).
  bool allow_compression = true;

  /// Include Huffman in the codec sweep. Off by default: the paper's
  /// engines are zero-aware RLE/bitmask class; entropy coding roughly
  /// doubles the kernel-stream compression and pushes the margins well
  /// past the published ones (see EXPERIMENTS.md and the E7 ablation,
  /// which measures exactly this switch).
  bool allow_huffman = false;

  /// (inter, intra) PE-group splits considered. Empty = {(1,1)}.
  std::vector<std::pair<int, int>> parallelism_options = {
      {1, 1}, {2, 1}, {1, 2}, {2, 2}, {4, 1}, {1, 4}, {4, 2}, {2, 4}};

  /// Analytical candidates forwarded to exact simulation, per group.
  int exact_top_k = 3;

  /// Skip the search entirely and put every layer on
  /// minimal_fallback_plan(). An emergency escape hatch (and the test hook
  /// that proves the fallback executes end to end on every network).
  bool force_fallback = false;
};

/// The plan of last resort for one layer: smallest reasonable tile, weight-
/// stationary (input-stationary for FC, whose fan-in forbids weight
/// residency), no fusion, 1x1 parallelism, no compression. Guaranteed
/// buildable on any fabric FabricConfig::validate() accepts — this is what
/// keeps the planner total: when every searched candidate is infeasible
/// (tiny degraded scratchpad, pathological layer), the controller degrades
/// to this instead of aborting.
dataflow::LayerPlan minimal_fallback_plan(const nn::LayerSpec& layer,
                                          nn::Index batch = 1);

/// One recovered failure inside the planner: the enumeration or exact
/// refinement of layers [first_layer, last_layer] threw, and the controller
/// substituted a surviving candidate (or the minimal fallback) instead of
/// propagating the abort.
struct PlanDiagnostic {
  std::size_t first_layer = 0;
  std::size_t last_layer = 0;
  std::string message;
};

/// Structured planning outcome: the plan is always present and valid;
/// diagnostics say what the search could not do, and fallback_used flags
/// that at least one group runs the plan of last resort.
struct PlanResult {
  dataflow::NetworkPlan plan;
  std::vector<PlanDiagnostic> diagnostics;
  bool fallback_used = false;
};

/// Why a plan was chosen: per scheduled group, the finalists that reached
/// exact simulation with their measured scores. Makes the controller's
/// "intelligence" auditable (and drives the E8 decision table).
struct GroupTrace {
  std::size_t first_layer = 0;
  std::size_t last_layer = 0;
  /// Candidates the analytical stage scored for this group range.
  std::size_t analytical_candidates = 0;
  struct Finalist {
    std::string plan_summary;  // group head's plan
    double cycles = 0;         // measured (exact simulation)
    double energy_pj = 0;
    std::int64_t peak_sram_bytes = 0;
    bool chosen = false;
  };
  std::vector<Finalist> finalists;
};
using PlanTrace = std::vector<GroupTrace>;

class MorphController final : public Planner {
 public:
  MorphController(model::TechParams tech, MorphOptions options)
      : tech_(tech), options_(std::move(options)) {}

  std::string name() const override { return "morph"; }

  dataflow::NetworkPlan plan(
      const nn::Network& net, const fabric::FabricConfig& config,
      const std::vector<dataflow::LayerStreamStats>& stats,
      nn::Index batch = 1) const override;

  /// Like plan(), additionally reporting the decision trace.
  dataflow::NetworkPlan plan_traced(
      const nn::Network& net, const fabric::FabricConfig& config,
      const std::vector<dataflow::LayerStreamStats>& stats, nn::Index batch,
      PlanTrace* trace) const;

  /// The total form of plan(): never fails for want of a feasible
  /// candidate. Groups whose search or refinement throws land on a
  /// surviving candidate or minimal_fallback_plan(), with a PlanDiagnostic
  /// per recovery. plan()/plan_traced() delegate here and log the
  /// diagnostics as warnings.
  PlanResult plan_result(const nn::Network& net,
                         const fabric::FabricConfig& config,
                         const std::vector<dataflow::LayerStreamStats>& stats,
                         nn::Index batch = 1, PlanTrace* trace = nullptr) const;

  const MorphOptions& options() const { return options_; }

 private:
  model::TechParams tech_;
  MorphOptions options_;
};

}  // namespace mocha::core
