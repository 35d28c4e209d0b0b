#include "core/morph.hpp"

#include <algorithm>
#include <limits>

#include "dataflow/cost.hpp"
#include "dataflow/schedule.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"

namespace mocha::core {

const char* objective_name(Objective objective) {
  switch (objective) {
    case Objective::Cycles:
      return "cycles";
    case Objective::Energy:
      return "energy";
    case Objective::EnergyDelayProduct:
      return "edp";
  }
  MOCHA_UNREACHABLE("bad Objective");
}

std::vector<dataflow::LayerStreamStats> assumed_stats(
    const nn::Network& net, const nn::SparsityProfile& profile) {
  std::vector<dataflow::LayerStreamStats> stats(net.layers.size());
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    stats[i].ifmap_sparsity = profile.ifmap_sparsity(net, i);
    stats[i].kernel_sparsity = profile.kernel_sparsity(net, i);
    // The ofmap of layer i is the ifmap of layer i+1 (or the final output,
    // whose sparsity matches the deepest activations).
    stats[i].ofmap_sparsity = i + 1 < net.layers.size()
                                  ? profile.ifmap_sparsity(net, i + 1)
                                  : profile.last_activation_sparsity;
  }
  return stats;
}

namespace {

using dataflow::CostEstimate;
using dataflow::LayerPlan;
using dataflow::LayerStreamStats;
using dataflow::LoopOrder;
using dataflow::NetworkPlan;
using nn::Index;
using compress::CodecKind;

double objective_score(Objective objective, double cycles, double energy_pj) {
  switch (objective) {
    case Objective::Cycles:
      return cycles;
    case Objective::Energy:
      return energy_pj;
    case Objective::EnergyDelayProduct:
      return cycles * energy_pj;
  }
  MOCHA_UNREACHABLE("bad Objective");
}

/// Halving ladder: {total, ceil(total/2), ceil(total/4), ...}, deduped.
std::vector<Index> halving_options(Index total, Index floor_value,
                                   int max_options) {
  std::vector<Index> options;
  Index v = total;
  while (static_cast<int>(options.size()) < max_options) {
    options.push_back(v);
    if (v <= floor_value || v == 1) break;
    v = std::max<Index>(floor_value, (v + 1) / 2);
  }
  return options;
}

/// A plan that is valid for any layer (used to pad scratch NetworkPlans so
/// whole-plan validation passes while only one group is under study).
LayerPlan neutral_plan(const nn::LayerSpec& layer) {
  LayerPlan plan;
  plan.tile = {layer.out_h(), layer.out_w(), layer.in_c,
               layer.out_channels()};
  return plan;
}

NetworkPlan scratch_plan(const nn::Network& net,
                         const NetworkPlan::Group& group,
                         const std::vector<LayerPlan>& group_plans) {
  NetworkPlan plan;
  plan.layers.reserve(net.layers.size());
  for (const nn::LayerSpec& layer : net.layers) {
    plan.layers.push_back(neutral_plan(layer));
  }
  MOCHA_CHECK(group_plans.size() == group.size(), "group plan size mismatch");
  for (std::size_t k = 0; k < group_plans.size(); ++k) {
    plan.layers[group.first + k] = group_plans[k];
    plan.layers[group.first + k].fuse_with_next =
        group.first + k < group.last;
  }
  return plan;
}

struct GroupCandidate {
  std::vector<LayerPlan> plans;
  CostEstimate est;
  double score = std::numeric_limits<double>::infinity();
  /// True for the injected plan-of-last-resort candidate.
  bool fallback = false;
};

struct SearchContext {
  const nn::Network& net;
  const fabric::FabricConfig& config;
  const std::vector<LayerStreamStats>& stats;
  const model::TechParams& tech;
  const MorphOptions& options;
  Index batch = 1;

  bool compression_on() const {
    return options.allow_compression && config.has_compression;
  }

  std::vector<std::pair<int, int>> parallelism() const {
    std::vector<std::pair<int, int>> out;
    for (auto [inter, intra] : options.parallelism_options) {
      // Plan against *surviving* resources: a split needing more groups
      // than there are live PEs can never host one PE per group.
      if (inter * intra <= config.usable_pes()) out.emplace_back(inter, intra);
    }
    if (out.empty()) out.emplace_back(1, 1);
    return out;
  }

  /// Scores one candidate plan set. Pure (no shared mutable state), so the
  /// enumerators can fan candidate evaluations across the pool and collect
  /// the results in index order — bit-identical to the serial sweep.
  GroupCandidate evaluate(const NetworkPlan::Group& group,
                          std::vector<LayerPlan> plans) const {
    MOCHA_METRIC_ADD("planner.candidates_evaluated", 1);
    const NetworkPlan plan = scratch_plan(net, group, plans);
    const CostEstimate est = dataflow::estimate_group_cost(
        net, plan, group, config, stats, tech, batch);
    GroupCandidate candidate;
    candidate.plans = std::move(plans);
    candidate.est = est;
    candidate.score = objective_score(options.objective, est.cycles,
                                      est.energy_pj);
    // Compactness tiebreak: among near-equal plans prefer the smaller
    // working set — compressed residency then directly lowers the storage
    // requirement, and a small footprint leaves headroom for cascading.
    const double tiebreak =
        1.0 + 0.40 * static_cast<double>(est.footprint_bytes) /
                  static_cast<double>(config.sram_bytes);
    candidate.score *= tiebreak;
    // A non-fitting plan is only kept as a last resort; the penalty grows
    // with the overflow so the least-overflowing candidate wins when
    // literally nothing fits.
    if (est.footprint_bytes > config.sram_bytes) {
      const double penalty =
          1e6 * static_cast<double>(est.footprint_bytes) /
          static_cast<double>(std::max<std::int64_t>(1, config.sram_bytes));
      candidate.score *= penalty;
    }
    return candidate;
  }

  /// Evaluates every plan set in `plan_sets` (built serially, in the
  /// enumeration's canonical nesting order) across the thread pool. One
  /// analytical evaluation is microseconds, so chunking policy dominates:
  /// small batches stay serial (the pool's wake/join round trip alone costs
  /// more than scoring ~tens of candidates — measured as the 0.98× alexnet
  /// planner "speedup" at 2–4 threads), and parallel batches use a grain
  /// floor of 16 so no chunk is dispatch-bound.
  std::vector<GroupCandidate> evaluate_all(
      const NetworkPlan::Group& group,
      std::vector<std::vector<LayerPlan>> plan_sets) const {
    const auto n = static_cast<std::int64_t>(plan_sets.size());
    constexpr std::int64_t kSerialBelow = 64;
    if (n < kSerialBelow) {
      std::vector<GroupCandidate> out;
      out.reserve(static_cast<std::size_t>(n));
      for (std::int64_t i = 0; i < n; ++i) {
        out.push_back(
            evaluate(group, std::move(plan_sets[static_cast<std::size_t>(i)])));
      }
      return out;
    }
    return util::parallel_transform<GroupCandidate>(
        n, util::default_grain(n, 16), [&](std::int64_t i) {
          return evaluate(group,
                          std::move(plan_sets[static_cast<std::size_t>(i)]));
        });
  }
};

void keep_best(std::vector<GroupCandidate>* candidates, std::size_t k) {
  std::sort(candidates->begin(), candidates->end(),
            [](const GroupCandidate& a, const GroupCandidate& b) {
              return a.score < b.score;
            });
  if (candidates->size() > k) {
    MOCHA_METRIC_ADD("planner.candidates_pruned", candidates->size() - k);
    candidates->resize(k);
  }
}

/// Codec combinations to sweep for the external streams.
struct CodecCombo {
  CodecKind ifmap;
  CodecKind kernel;
  CodecKind ofmap;
};

std::vector<CodecCombo> codec_combos(bool compression_on, bool allow_huffman,
                                     bool has_weights) {
  if (!compression_on) {
    return {{CodecKind::None, CodecKind::None, CodecKind::None}};
  }
  std::vector<CodecCombo> combos;
  const std::vector<CodecKind> ifmaps = {CodecKind::None, CodecKind::Zrle,
                                         CodecKind::Bitmask};
  std::vector<CodecKind> kernels = {CodecKind::None, CodecKind::Bitmask,
                                    CodecKind::Zrle};
  if (allow_huffman) kernels.push_back(CodecKind::Huffman);
  const std::vector<CodecKind> ofmaps = {CodecKind::None, CodecKind::Zrle};
  for (CodecKind f : ifmaps) {
    for (CodecKind k : kernels) {
      if (!has_weights && k != CodecKind::None) continue;
      for (CodecKind o : ofmaps) {
        combos.push_back({f, k, o});
      }
    }
  }
  return combos;
}

CodecCombo default_combo(bool compression_on) {
  if (!compression_on) {
    return {CodecKind::None, CodecKind::None, CodecKind::None};
  }
  return {CodecKind::Zrle, CodecKind::Bitmask, CodecKind::Zrle};
}

/// Stage A+B search for a single-layer group.
std::vector<GroupCandidate> enumerate_single(const SearchContext& ctx,
                                             std::size_t idx,
                                             std::size_t keep) {
  MOCHA_TRACE_SCOPE("planner.enumerate_single", "planner");
  const nn::LayerSpec& layer = ctx.net.layers[idx];
  const NetworkPlan::Group group{idx, idx};
  // Channel-wise layers (pooling, depthwise conv) have one schedule shape.
  const bool pool = layer.kind == nn::LayerKind::Pool ||
                    layer.kind == nn::LayerKind::DepthwiseConv;

  // FC layers have no spatial extent but a huge fan-in: the ladder must
  // reach much smaller map/channel chunks for anything to fit on chip.
  const bool fc = layer.kind == nn::LayerKind::FullyConnected;
  const auto th_options = halving_options(layer.out_h(), 1, fc ? 1 : 5);
  const auto tw_options = halving_options(layer.out_w(), 1, fc ? 1 : 5);
  const auto tm_options =
      halving_options(layer.out_channels(), fc ? 16 : 1, fc ? 9 : 6);
  const auto tc_options = halving_options(
      layer.in_c, std::min<Index>(fc ? 128 : 16, layer.in_c), fc ? 8 : 5);
  const auto par_options = ctx.parallelism();
  const CodecCombo guess = default_combo(ctx.compression_on());

  // Stage A: geometry / order / parallelism under the default codec guess.
  // The nest builds the candidate list serially (canonical order), then the
  // context evaluates it across the pool.
  std::vector<std::vector<LayerPlan>> stage_a_sets;
  for (Index th : th_options) {
    for (Index tw : tw_options) {
      for (Index tm : tm_options) {
        struct OrderChoice {
          LoopOrder order;
          Index tc;
          Index batch_tile;  // 0 = whole batch resident (IS only)
        };
        std::vector<OrderChoice> orders;
        const auto bt_options =
            ctx.batch > 1 ? halving_options(ctx.batch, 1, 3)
                          : std::vector<Index>{0};
        if (pool) {
          orders.push_back({LoopOrder::WeightStationary, layer.in_c, 0});
        } else {
          orders.push_back({LoopOrder::WeightStationary, layer.in_c, 0});
          for (Index tc : tc_options) {
            for (Index bt : bt_options) {
              orders.push_back({LoopOrder::InputStationary, tc, bt});
            }
          }
        }
        for (const OrderChoice& oc : orders) {
          for (auto [inter, intra] : par_options) {
            LayerPlan plan;
            plan.tile = {th, tw, oc.tc, tm};
            plan.order = oc.order;
            plan.batch_tile = oc.batch_tile;
            plan.inter_groups = inter;
            plan.intra_groups = intra;
            plan.ifmap_codec = guess.ifmap;
            plan.kernel_codec = layer.has_weights() ? guess.kernel
                                                    : CodecKind::None;
            plan.ofmap_codec = guess.ofmap;
            stage_a_sets.push_back({plan});
          }
        }
      }
    }
  }
  std::vector<GroupCandidate> stage_a =
      ctx.evaluate_all(group, std::move(stage_a_sets));
  keep_best(&stage_a, 6);

  // Stage B: codec sweep around the surviving geometries.
  std::vector<std::vector<LayerPlan>> stage_b_sets;
  for (const GroupCandidate& base : stage_a) {
    for (const CodecCombo& combo :
         codec_combos(ctx.compression_on(), ctx.options.allow_huffman,
                      layer.has_weights())) {
      LayerPlan plan = base.plans.front();
      plan.ifmap_codec = combo.ifmap;
      plan.kernel_codec = combo.kernel;
      plan.ofmap_codec = combo.ofmap;
      stage_b_sets.push_back({plan});
    }
  }
  std::vector<GroupCandidate> stage_b =
      ctx.evaluate_all(group, std::move(stage_b_sets));
  keep_best(&stage_b, keep);
  return stage_b;
}

/// Whether [first..last] is a legal fusion chain.
bool fusable(const nn::Network& net, std::size_t first, std::size_t last) {
  if (first == last) return true;
  for (std::size_t l = first; l <= last; ++l) {
    if (net.layers[l].kind == nn::LayerKind::FullyConnected) return false;
  }
  return true;
}

/// Search for a fused group [first..last].
std::vector<GroupCandidate> enumerate_fused(const SearchContext& ctx,
                                            std::size_t first,
                                            std::size_t last,
                                            std::size_t keep) {
  MOCHA_TRACE_SCOPE("planner.enumerate_fused", "planner");
  const NetworkPlan::Group group{first, last};
  const nn::LayerSpec& tail = ctx.net.layers[last];
  const auto th_options = halving_options(tail.out_h(), 1, 6);
  const auto tw_options = halving_options(tail.out_w(), 1, 6);
  const auto par_options = ctx.parallelism();
  const CodecCombo guess = default_combo(ctx.compression_on());

  auto make_plans = [&](Index th, Index tw, int inter, int intra,
                        const CodecCombo& combo) {
    std::vector<LayerPlan> plans;
    for (std::size_t l = first; l <= last; ++l) {
      const nn::LayerSpec& layer = ctx.net.layers[l];
      LayerPlan plan = neutral_plan(layer);
      plan.inter_groups = inter;
      plan.intra_groups = intra;
      plan.kernel_codec =
          layer.has_weights() ? combo.kernel : CodecKind::None;
      if (l == first) plan.ifmap_codec = combo.ifmap;
      if (l == last) {
        plan.ofmap_codec = combo.ofmap;
        plan.tile.th = th;
        plan.tile.tw = tw;
      }
      plans.push_back(plan);
    }
    return plans;
  };

  std::vector<std::vector<LayerPlan>> stage_a_sets;
  for (Index th : th_options) {
    for (Index tw : tw_options) {
      for (auto [inter, intra] : par_options) {
        stage_a_sets.push_back(make_plans(th, tw, inter, intra, guess));
      }
    }
  }
  std::vector<GroupCandidate> stage_a =
      ctx.evaluate_all(group, std::move(stage_a_sets));
  keep_best(&stage_a, 4);

  std::vector<std::vector<LayerPlan>> stage_b_sets;
  for (const GroupCandidate& base : stage_a) {
    const LayerPlan& tail_plan = base.plans.back();
    for (const CodecCombo& combo : codec_combos(
             ctx.compression_on(), ctx.options.allow_huffman, true)) {
      stage_b_sets.push_back(
          make_plans(tail_plan.tile.th, tail_plan.tile.tw,
                     tail_plan.inter_groups, tail_plan.intra_groups, combo));
    }
  }
  std::vector<GroupCandidate> stage_b =
      ctx.evaluate_all(group, std::move(stage_b_sets));
  keep_best(&stage_b, keep);
  return stage_b;
}

/// Builds and simulates the top candidates exactly; returns the winner.
///
/// Candidates simulate concurrently — each writes its own score/finalist
/// slot — and the argmin runs serially in candidate order afterwards, so the
/// tie-break (first strictly-better candidate wins) is identical to the
/// serial sweep.
GroupCandidate refine_exact(const SearchContext& ctx,
                            const NetworkPlan::Group& group,
                            std::vector<GroupCandidate> candidates,
                            GroupTrace* trace) {
  MOCHA_CHECK(!candidates.empty(), "no candidates to refine");

  const model::EnergyModel energy_model(ctx.tech, ctx.config);
  std::vector<double> scores(candidates.size());
  std::vector<GroupTrace::Finalist> finalists(candidates.size());
  util::parallel_for(
      0, static_cast<std::int64_t>(candidates.size()), 1,
      [&](std::int64_t cb, std::int64_t ce) {
        for (std::int64_t c = cb; c < ce; ++c) {
          MOCHA_TRACE_SCOPE("planner.refine_candidate", "planner");
          const auto ci = static_cast<std::size_t>(c);
          GroupCandidate& candidate = candidates[ci];
          const NetworkPlan plan =
              scratch_plan(ctx.net, group, candidate.plans);
          dataflow::BuiltSchedule built = dataflow::build_group_schedule(
              ctx.net, plan, group, ctx.config, ctx.stats, ctx.batch);
          const sim::Engine engine(built.layout.specs);
          const sim::RunResult run = engine.run(built.graph);
          const double energy_pj = energy_model.energy(run.totals).total_pj();
          // Measured selection key: same compactness tiebreak as the
          // analytical ranking.
          double score = objective_score(ctx.options.objective,
                                         static_cast<double>(run.makespan),
                                         energy_pj);
          score *= 1.0 + 0.40 * static_cast<double>(run.peak_sram_bytes) /
                             static_cast<double>(ctx.config.sram_bytes);
          if (run.peak_sram_bytes > ctx.config.sram_bytes) score *= 1e6;
          // Record the measured quantities so downstream consumers see
          // reality.
          candidate.est.cycles = static_cast<double>(run.makespan);
          candidate.est.energy_pj = energy_pj;
          candidate.est.footprint_bytes = run.peak_sram_bytes;
          scores[ci] = score;
          finalists[ci].plan_summary = candidate.plans.front().summary();
          finalists[ci].cycles = candidate.est.cycles;
          finalists[ci].energy_pj = energy_pj;
          finalists[ci].peak_sram_bytes = run.peak_sram_bytes;
        }
      });

  std::size_t best_index = 0;
  double best_score = std::numeric_limits<double>::infinity();
  for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
    if (scores[ci] < best_score) {
      best_score = scores[ci];
      best_index = ci;
    }
  }
  if (trace != nullptr) {
    finalists[best_index].chosen = true;
    for (GroupTrace::Finalist& finalist : finalists) {
      trace->finalists.push_back(std::move(finalist));
    }
  }
  return std::move(candidates[best_index]);
}

}  // namespace

dataflow::LayerPlan minimal_fallback_plan(const nn::LayerSpec& layer,
                                          nn::Index batch) {
  LayerPlan plan;
  plan.inter_groups = 1;
  plan.intra_groups = 1;
  plan.ifmap_codec = CodecKind::None;
  plan.kernel_codec = CodecKind::None;
  plan.ofmap_codec = CodecKind::None;
  if (layer.kind == nn::LayerKind::FullyConnected) {
    // Weight residency is impossible for FC fan-in on any realistic
    // scratchpad; stream the weights over small input/output chunks.
    plan.order = LoopOrder::InputStationary;
    plan.tile = {layer.out_h(), layer.out_w(),
                 std::min<Index>(128, layer.in_c),
                 std::min<Index>(16, layer.out_channels())};
    plan.batch_tile = batch > 1 ? 1 : 0;
  } else {
    plan.order = LoopOrder::WeightStationary;
    plan.tile = {std::min<Index>(4, layer.out_h()),
                 std::min<Index>(4, layer.out_w()), layer.in_c, 1};
    plan.batch_tile = 0;
  }
  return plan;
}

dataflow::NetworkPlan MorphController::plan(
    const nn::Network& net, const fabric::FabricConfig& config,
    const std::vector<LayerStreamStats>& stats, nn::Index batch) const {
  return plan_traced(net, config, stats, batch, nullptr);
}

dataflow::NetworkPlan MorphController::plan_traced(
    const nn::Network& net, const fabric::FabricConfig& config,
    const std::vector<LayerStreamStats>& stats, nn::Index batch,
    PlanTrace* trace) const {
  PlanResult result = plan_result(net, config, stats, batch, trace);
  for (const PlanDiagnostic& d : result.diagnostics) {
    MOCHA_LOG(Warn, "planner recovered: layers [" << d.first_layer << ", "
                                                  << d.last_layer
                                                  << "]: " << d.message);
  }
  return std::move(result.plan);
}

PlanResult MorphController::plan_result(
    const nn::Network& net, const fabric::FabricConfig& config,
    const std::vector<LayerStreamStats>& stats, nn::Index batch,
    PlanTrace* trace) const {
  MOCHA_TRACE_SCOPE("planner.plan", "planner");
  net.validate();
  config.validate();
  MOCHA_CHECK(batch >= 1, "batch=" << batch);
  PlanResult result;
  const SearchContext ctx{net, config, stats, tech_, options_, batch};
  const std::size_t n = net.layers.size();
  const std::size_t keep =
      static_cast<std::size_t>(std::max(1, options_.exact_top_k));

  // Best candidates per group range; [i][len-1] covers layers [i, i+len-1].
  const std::size_t max_len =
      options_.allow_fusion ? std::max<std::size_t>(1, options_.max_fusion_len)
                            : 1;
  // The layer loop stays serial: parallelism lives *inside* each
  // enumerate_* call, where SearchContext::evaluate_all fans the candidate
  // evaluations across the pool in meaty chunks. Parallelizing over layers
  // instead (grain 1) load-balances badly — networks have few layers, with
  // wildly uneven candidate counts, so at 4 threads one straggler layer
  // left the other lanes idle and the sweep ran *slower* than serial.
  //
  // Every throw below is recovered: a failed enumeration just leaves that
  // group range without candidates, and the fallback injection afterwards
  // guarantees [i][0] stays populated so the DP always closes.
  std::vector<std::vector<std::vector<GroupCandidate>>> group_candidates(n);
  for (std::size_t i = 0; i < n; ++i) {
    group_candidates[i].resize(max_len);
    if (!options_.force_fallback) {
      try {
        group_candidates[i][0] = enumerate_single(ctx, i, keep);
      } catch (const util::CheckFailure& e) {
        result.diagnostics.push_back(
            {i, i, std::string("single-layer search failed: ") + e.what()});
      }
      for (std::size_t len = 2; len <= max_len; ++len) {
        const std::size_t j = i + len - 1;
        if (j >= n || !fusable(net, i, j)) break;
        try {
          group_candidates[i][len - 1] = enumerate_fused(ctx, i, j, keep);
        } catch (const util::CheckFailure& e) {
          result.diagnostics.push_back(
              {i, j, std::string("fused search failed: ") + e.what()});
        }
      }
    }
    if (group_candidates[i][0].empty()) {
      const std::vector<LayerPlan> plans = {
          minimal_fallback_plan(net.layers[i], batch)};
      GroupCandidate fallback;
      try {
        fallback = ctx.evaluate({i, i}, plans);
      } catch (const util::CheckFailure& e) {
        // Even costing the fallback failed; keep it anyway with a finite
        // worst-case score so the DP can still place it.
        fallback.plans = plans;
        fallback.score = 1e30;
        result.diagnostics.push_back(
            {i, i, std::string("fallback cost estimate failed: ") + e.what()});
      }
      fallback.fallback = true;
      group_candidates[i][0].push_back(std::move(fallback));
    }
  }

  // Dynamic program over the chain segmentation, scored analytically.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> best_cost(n + 1, kInf);
  std::vector<std::size_t> best_len(n, 1);
  best_cost[n] = 0.0;
  for (std::size_t i = n; i-- > 0;) {
    for (std::size_t len = 1; len <= max_len && i + len <= n; ++len) {
      const auto& candidates = group_candidates[i][len - 1];
      if (candidates.empty()) continue;
      const double cost = candidates.front().score + best_cost[i + len];
      if (cost < best_cost[i]) {
        best_cost[i] = cost;
        best_len[i] = len;
      }
    }
    // Invariant, not a reachable failure: the fallback injection above
    // keeps [i][0] non-empty with a finite score.
    MOCHA_CHECK(best_cost[i] < kInf,
                "no feasible plan for layer " << net.layers[i].name);
  }

  // Materialize the chosen segmentation, exact-refining each group.
  NetworkPlan plan;
  plan.layers.resize(n);
  std::size_t i = 0;
  while (i < n) {
    const std::size_t len = best_len[i];
    const NetworkPlan::Group group{i, i + len - 1};
    GroupTrace* group_trace = nullptr;
    if (trace != nullptr) {
      trace->push_back({});
      group_trace = &trace->back();
      group_trace->first_layer = i;
      group_trace->last_layer = i + len - 1;
      for (std::size_t l2 = 1; l2 <= max_len; ++l2) {
        if (i + l2 <= n && !group_candidates[i][l2 - 1].empty()) {
          group_trace->analytical_candidates +=
              group_candidates[i][l2 - 1].size();
        }
      }
    }
    GroupCandidate winner;
    try {
      winner =
          refine_exact(ctx, group, group_candidates[i][len - 1], group_trace);
    } catch (const util::CheckFailure& e) {
      // Exact simulation of every finalist failed (a degraded fabric can
      // make the builder reject plans the analytical model passed). The
      // analytically-ranked front candidate still describes a valid plan.
      winner = group_candidates[i][len - 1].front();
      result.diagnostics.push_back(
          {i, i + len - 1,
           std::string("exact refinement failed: ") + e.what()});
    }
    if (winner.fallback) {
      result.fallback_used = true;
      MOCHA_METRIC_ADD("planner.fallback_groups", 1);
      result.diagnostics.push_back(
          {i, i, "minimal fallback plan used for " + net.layers[i].name});
    }
    for (std::size_t k = 0; k < len; ++k) {
      plan.layers[i + k] = winner.plans[k];
      plan.layers[i + k].fuse_with_next = k + 1 < len;
    }
    MOCHA_LOG(Debug, net.name << "/" << net.layers[i].name << " len=" << len
                              << " plan: " << plan.layers[i].summary());
    i += len;
  }
  plan.validate(net);
  result.plan = std::move(plan);
  return result;
}

}  // namespace mocha::core
