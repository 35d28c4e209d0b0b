#include "dataflow/schedule.hpp"

#include <algorithm>
#include <initializer_list>

#include "dataflow/tiling.hpp"
#include "fabric/pe_array.hpp"
#include "sim/dram.hpp"

namespace mocha::dataflow {

namespace {

using sim::Task;
using sim::TaskId;
using sim::TaskKind;
using sim::TaskTag;

/// Sizes of successive passes covering `total` in steps of `chunk`.
std::vector<Index> pass_sizes(Index total, Index chunk) {
  MOCHA_CHECK(total > 0 && chunk > 0, "bad pass split");
  std::vector<Index> sizes;
  for (Index at = 0; at < total; at += chunk) {
    sizes.push_back(std::min(chunk, total - at));
  }
  return sizes;
}

/// Splits `total` into at most `parts` near-equal positive pieces.
std::vector<Index> partition(Index total, int parts) {
  MOCHA_CHECK(total > 0 && parts > 0, "bad partition");
  const int n = static_cast<int>(std::min<Index>(parts, total));
  std::vector<Index> sizes(static_cast<std::size_t>(n));
  const Index base = total / n;
  const Index extra = total % n;
  for (int i = 0; i < n; ++i) {
    sizes[static_cast<std::size_t>(i)] = base + (i < extra ? 1 : 0);
  }
  return sizes;
}

/// Distributes `total` over weights proportionally; remainders to entry 0.
std::vector<std::int64_t> distribute(std::int64_t total,
                                     const std::vector<Index>& weights) {
  std::int64_t weight_sum = 0;
  for (Index w : weights) weight_sum += w;
  MOCHA_CHECK(weight_sum > 0, "distribute over zero weight");
  std::vector<std::int64_t> shares(weights.size());
  std::int64_t assigned = 0;
  for (std::size_t i = 1; i < weights.size(); ++i) {
    shares[i] = total * weights[i] / weight_sum;
    assigned += shares[i];
  }
  shares[0] = total - assigned;
  return shares;
}

/// Builds the task graph for one fusion group. One instance per call.
class GroupBuilder {
 public:
  GroupBuilder(const nn::Network& net, const NetworkPlan& plan,
               const NetworkPlan::Group& group,
               const fabric::FabricConfig& config,
               const std::vector<LayerStreamStats>& stats, Index batch)
      : net_(net),
        plan_(plan),
        group_(group),
        config_(config),
        stats_(stats),
        batch_(batch),
        dram_(config),
        head_plan_(plan.layers[group.first]) {
    MOCHA_CHECK(stats_.size() == net_.layers.size(),
                "stats for " << stats_.size() << " of " << net_.layers.size()
                             << " layers");
    MOCHA_CHECK(batch_ >= 1, "batch=" << batch_);
    pe_groups_ = head_plan_.total_groups();
    MOCHA_CHECK(pe_groups_ >= 1 && pe_groups_ <= config_.total_pes(),
                "plan wants " << pe_groups_ << " groups on "
                              << config_.total_pes() << " PEs");
    // Compute width is gated by the worst *surviving* group: a fault mask
    // that guts one rectangle slows every lockstep pass, and fully-dead
    // groups shed their chunks onto the survivors via the reduced pe_groups
    // capacity in make_resource_layout. On a healthy fabric this is exactly
    // the old min_group_pes().
    pes_per_group_ = fabric::PeArray(config_, pe_groups_).min_live_group_pes();
    operand_hops_ = fabric::mean_operand_hops(config_, pe_groups_);
    layout_ = sim::make_resource_layout(config_, pe_groups_);
  }

  BuiltSchedule build() {
    if (group_.size() == 1) {
      build_single_layer();
    } else {
      build_fused_group();
    }
    BuiltSchedule out;
    out.graph = std::move(graph_);
    out.layout = layout_;
    out.pe_groups = pe_groups_;
    out.footprint_bytes = footprint_;
    return out;
  }

 private:
  // ---- task helpers ----------------------------------------------------

  TaskId add_load(TaskTag tag, std::int64_t coded_bytes,
                  std::vector<TaskId> deps, std::int64_t alloc_bytes) {
    Task t;
    t.kind = TaskKind::DmaLoad;
    t.tag = tag;
    t.resources = {layout_.dram};
    t.duration = dram_.transfer_cycles(coded_bytes);
    t.deps = std::move(deps);
    t.actions.dram_read_bytes = coded_bytes;
    t.actions.sram_write_bytes = coded_bytes;
    t.sram_alloc_bytes = alloc_bytes;
    return graph_.add(std::move(t));
  }

  TaskId add_store(TaskTag tag, std::int64_t coded_bytes,
                   std::vector<TaskId> deps, std::int64_t free_bytes) {
    Task t;
    t.kind = TaskKind::DmaStore;
    t.tag = tag;
    t.resources = {layout_.dram};
    t.duration = dram_.transfer_cycles(coded_bytes);
    t.deps = std::move(deps);
    t.actions.dram_write_bytes = coded_bytes;
    t.actions.sram_read_bytes = coded_bytes;
    t.sram_free_bytes = free_bytes;
    return graph_.add(std::move(t));
  }

  TaskId add_compress(TaskTag tag, compress::CodecKind kind,
                      std::int64_t raw_bytes, std::int64_t coded_bytes,
                      std::vector<TaskId> deps) {
    MOCHA_CHECK(layout_.codec >= 0, "compress task without codec engines");
    Task t;
    t.kind = TaskKind::Compress;
    t.tag = tag;
    t.resources = {layout_.codec};
    t.duration = codec_cycles(config_, kind, raw_bytes);
    t.deps = std::move(deps);
    t.actions.codec_bytes = raw_bytes;
    t.actions.sram_read_bytes = raw_bytes;
    t.actions.sram_write_bytes = coded_bytes;
    t.sram_alloc_bytes = coded_bytes;
    return graph_.add(std::move(t));
  }

  TaskId add_barrier(TaskTag tag, std::vector<TaskId> deps,
                     std::int64_t free_bytes) {
    Task t;
    t.kind = TaskKind::Barrier;
    t.tag = tag;
    t.resources = {layout_.ctrl};
    t.duration = 0;
    t.deps = std::move(deps);
    t.sram_free_bytes = free_bytes;
    return graph_.add(std::move(t));
  }

  struct ComputeChunkSpec {
    Index positions = 0;
    Index macs_per_position = 0;
    double ifmap_sparsity = 0.0;
    compress::CodecKind ifmap_codec = compress::CodecKind::None;
    compress::CodecKind kernel_codec = compress::CodecKind::None;
    /// Raw bytes through the chunk's per-group front-end decoders. The two
    /// streams decode concurrently on separate decoders.
    std::int64_t ifmap_decode_raw = 0;
    std::int64_t kernel_decode_raw = 0;
    std::int64_t sram_read_bytes = 0;
    std::int64_t sram_write_bytes = 0;
  };

  TaskId add_compute(TaskTag tag, const ComputeChunkSpec& spec,
                     std::vector<TaskId> deps,
                     std::int64_t alloc_bytes = 0,
                     std::int64_t free_bytes = 0) {
    Task t;
    t.kind = TaskKind::Compute;
    t.tag = tag;
    t.resources = {layout_.pe};
    const std::uint64_t mac_cycles = compute_chunk_cycles(
        config_, spec.positions, spec.macs_per_position, pes_per_group_,
        spec.ifmap_sparsity, spec.ifmap_codec);
    std::uint64_t duration = mac_cycles;
    if (layout_.codec >= 0) {
      // Coded operands stream through the PE group's own front-end decoders
      // on the scratchpad read path (every group has one per stream; the
      // *shared* codec engines serialize only the store-side compression).
      // The chunk runs at min(PE rate, slowest decoder rate) and pays
      // decode energy for both streams.
      const std::uint64_t decode = std::max(
          codec_cycles(config_, spec.ifmap_codec, spec.ifmap_decode_raw),
          codec_cycles(config_, spec.kernel_codec, spec.kernel_decode_raw));
      duration = std::max(duration, decode);
      t.actions.codec_bytes = spec.ifmap_decode_raw + spec.kernel_decode_raw;
    }
    t.duration = duration;
    t.deps = std::move(deps);
    const double frac = effective_mac_fraction(config_, spec.ifmap_codec,
                                               spec.ifmap_sparsity);
    const auto dense_macs =
        static_cast<std::int64_t>(spec.positions) * spec.macs_per_position;
    t.actions.macs =
        static_cast<std::int64_t>(static_cast<double>(dense_macs) * frac);
    // Two 2-byte operand reads per executed MAC plus the result write.
    t.actions.rf_bytes = 4 * t.actions.macs + 2 * spec.positions;
    t.actions.sram_read_bytes = spec.sram_read_bytes;
    t.actions.sram_write_bytes = spec.sram_write_bytes;
    // Operands and results travel the row buses to/from this chunk's group.
    t.actions.noc_byte_hops = static_cast<std::int64_t>(
        static_cast<double>(spec.sram_read_bytes + spec.sram_write_bytes) *
        operand_hops_);
    t.sram_alloc_bytes = alloc_bytes;
    t.sram_free_bytes = free_bytes;
    return graph_.add(std::move(t));
  }

  // ---- stream sizing -----------------------------------------------------

  const LayerStreamStats& layer_stats(std::size_t idx) const {
    return stats_[idx];
  }

  std::int64_t ifmap_coded(std::size_t idx, Index elems) const {
    return coded_stream_bytes(config_, plan_.layers[idx].ifmap_codec, elems,
                              layer_stats(idx).ifmap_sparsity);
  }

  std::int64_t kernel_coded(std::size_t idx, Index elems) const {
    return coded_stream_bytes(config_, plan_.layers[idx].kernel_codec, elems,
                              layer_stats(idx).kernel_sparsity);
  }

  std::int64_t ofmap_coded(std::size_t idx, Index elems) const {
    return coded_stream_bytes(config_, plan_.layers[idx].ofmap_codec, elems,
                              layer_stats(idx).ofmap_sparsity);
  }

  compress::CodecKind eff_ifmap_codec(std::size_t idx) const {
    return effective_codec(config_, plan_.layers[idx].ifmap_codec);
  }
  compress::CodecKind eff_kernel_codec(std::size_t idx) const {
    return effective_codec(config_, plan_.layers[idx].kernel_codec);
  }
  compress::CodecKind eff_ofmap_codec(std::size_t idx) const {
    return effective_codec(config_, plan_.layers[idx].ofmap_codec);
  }

  static Index eff_kernel_size(const nn::LayerSpec& layer) {
    return layer.kind == nn::LayerKind::FullyConnected ? 1 : layer.kernel;
  }

  // ---- single-layer schedules -------------------------------------------

  void build_single_layer() {
    const std::size_t idx = group_.first;
    const nn::LayerSpec& layer = net_.layers[idx];
    if (layer.kind == nn::LayerKind::Pool ||
        layer.kind == nn::LayerKind::DepthwiseConv) {
      build_channelwise(idx);
    } else if (head_plan_.order == LoopOrder::WeightStationary) {
      build_weight_stationary(idx);
    } else {
      build_input_stationary(idx);
    }
  }

  /// Weight-stationary: weights for tm maps x all C channels resident per
  /// map pass; ifmap tiles re-streamed once per map pass.
  void build_weight_stationary(std::size_t idx) {
    const nn::LayerSpec& layer = net_.layers[idx];
    const LayerPlan& plan = plan_.layers[idx];
    const auto grid = tile_grid(layer, plan.tile.th, plan.tile.tw);
    const auto m_passes = pass_sizes(layer.out_channels(), plan.tile.tm);
    const Index kk = eff_kernel_size(layer) * eff_kernel_size(layer);
    const Index mpp = layer.in_c * kk;  // all channels in one pass

    std::int64_t max_w_coded = 0;
    std::int64_t max_tile_bytes = 0;

    // Double-buffer chains.
    TaskId prev_prev_tile_bar = sim::kInvalidTask;
    TaskId prev_tile_bar = sim::kInvalidTask;
    TaskId prev_prev_w_bar = sim::kInvalidTask;
    TaskId prev_w_bar = sim::kInvalidTask;

    for (std::size_t mi = 0; mi < m_passes.size(); ++mi) {
      const Index tm_eff = m_passes[mi];
      const std::int64_t w_coded =
          kernel_coded(idx, tm_eff * layer.in_c * kk);
      const std::int64_t w_raw = tm_eff * layer.in_c * kk * kValueBytes;
      max_w_coded = std::max(max_w_coded, w_coded);

      std::vector<TaskId> w_deps;
      if (prev_prev_w_bar != sim::kInvalidTask) {
        w_deps.push_back(prev_prev_w_bar);
      }
      const TaskId w_load = add_load(
          layer_tag("w_load", idx, {mi}), w_coded, std::move(w_deps), w_coded);

      std::vector<TaskId> pass_barrier_deps;
      // Batch images reuse the resident weights: the tile loop simply runs
      // once per image inside each map pass.
      const std::size_t tile_iters =
          grid.size() * static_cast<std::size_t>(batch_);
      for (std::size_t ti = 0; ti < tile_iters; ++ti) {
        const TileGeometry& geo = grid[ti % grid.size()];
        const Index if_elems = layer.in_c * geo.in_positions();
        const std::int64_t if_coded = ifmap_coded(idx, if_elems);
        const std::int64_t partial =
            tm_eff * geo.out_positions() * kValueBytes;
        max_tile_bytes = std::max(max_tile_bytes, if_coded + partial);

        std::vector<TaskId> load_deps = {w_load};
        if (prev_prev_tile_bar != sim::kInvalidTask) {
          load_deps.push_back(prev_prev_tile_bar);
        }
        const TaskId if_load =
            add_load(layer_tag("if_load", idx, {mi, ti}), if_coded,
                     std::move(load_deps), if_coded + partial);

        const auto chunk_ids = emit_computes(
            idx, tm_eff, geo.out_positions(), mpp, eff_ifmap_codec(idx),
            layer_stats(idx).ifmap_sparsity, if_coded, if_elems, w_coded,
            w_raw, {if_load}, layer_tag("comp", idx, {mi, ti}));

        const TaskId tile_bar = add_barrier(
            layer_tag("tile_bar", idx, {mi, ti}), chunk_ids, if_coded);
        emit_store_path(idx, tm_eff * geo.out_positions(), chunk_ids, partial,
                        layer_tag("store", idx, {mi, ti}), &pass_barrier_deps);
        pass_barrier_deps.push_back(tile_bar);

        prev_prev_tile_bar = prev_tile_bar;
        prev_tile_bar = tile_bar;
      }
      const TaskId pass_bar = add_barrier(layer_tag("pass_bar", idx, {mi}),
                                          std::move(pass_barrier_deps), w_coded);
      prev_prev_w_bar = prev_w_bar;
      prev_w_bar = pass_bar;
    }
    footprint_ = 2 * max_w_coded + 3 * max_tile_bytes + store_buffer_bound_;
  }

  /// Input-stationary: the full-depth ifmap tile is resident; weights are
  /// re-streamed per tile in (tm x tc) chunks, partial sums accumulate in
  /// the scratchpad across channel passes.
  void build_input_stationary(std::size_t idx) {
    const nn::LayerSpec& layer = net_.layers[idx];
    const LayerPlan& plan = plan_.layers[idx];
    const auto grid = tile_grid(layer, plan.tile.th, plan.tile.tw);
    const auto m_passes = pass_sizes(layer.out_channels(), plan.tile.tm);
    const auto c_passes = pass_sizes(layer.in_c, plan.tile.tc);
    const Index kk = eff_kernel_size(layer) * eff_kernel_size(layer);
    const bool multi_c = c_passes.size() > 1;

    std::int64_t max_tile_bytes = 0;
    std::int64_t max_w_chunk = 0;
    std::int64_t max_partial = 0;

    TaskId prev_prev_tile_bar = sim::kInvalidTask;
    TaskId prev_tile_bar = sim::kInvalidTask;
    TaskId prev_prev_w_bar = sim::kInvalidTask;
    TaskId prev_w_bar = sim::kInvalidTask;

    // Batch sub-tiling: `bc` images stay resident together per spatial
    // tile (weights re-streamed once per sub-batch); batch_tile == 0 keeps
    // the whole batch resident.
    const Index bc = plan.batch_tile == 0
                         ? batch_
                         : std::min<Index>(plan.batch_tile, batch_);
    const auto sub_batches = pass_sizes(batch_, bc);

    std::size_t tile_seq = 0;
    for (Index bb : sub_batches) {
      for (std::size_t gi = 0; gi < grid.size(); ++gi, ++tile_seq) {
        const TileGeometry& geo = grid[gi];
        // The sub-batch's tile regions stay resident together, so each
        // streamed weight chunk serves every resident image.
        const Index if_elems = bb * layer.in_c * geo.in_positions();
        const std::int64_t if_coded = ifmap_coded(idx, if_elems);
        max_tile_bytes = std::max(max_tile_bytes, if_coded);

        std::vector<TaskId> load_deps;
        if (prev_prev_tile_bar != sim::kInvalidTask) {
          load_deps.push_back(prev_prev_tile_bar);
        }
        const TaskId if_load =
            add_load(layer_tag("if_load", idx, {tile_seq}), if_coded,
                     std::move(load_deps), if_coded);

        std::vector<TaskId> tile_bar_deps;
        for (std::size_t mi = 0; mi < m_passes.size(); ++mi) {
          const Index tm_eff = m_passes[mi];
          const std::int64_t partial = bb * tm_eff * geo.out_positions() *
                                       (multi_c ? kPartialBytes : kValueBytes);
          max_partial = std::max(max_partial, partial);

          std::vector<TaskId> prev_chunks;  // accumulation chain across c
          std::vector<TaskId> all_chunks;
          for (std::size_t ci = 0; ci < c_passes.size(); ++ci) {
            const Index tc_eff = c_passes[ci];
            const std::int64_t w_coded =
                kernel_coded(idx, tm_eff * tc_eff * kk);
            const std::int64_t w_raw = tm_eff * tc_eff * kk * kValueBytes;
            max_w_chunk = std::max(max_w_chunk, w_coded);

            std::vector<TaskId> w_deps;
            if (prev_prev_w_bar != sim::kInvalidTask) {
              w_deps.push_back(prev_prev_w_bar);
            }
            // Partial-sum buffer allocated with the first weight chunk of
            // this map pass.
            const std::int64_t alloc = w_coded + (ci == 0 ? partial : 0);
            const TaskId w_load =
                add_load(layer_tag("w_load", idx, {tile_seq, mi, ci}), w_coded,
                         std::move(w_deps), alloc);

            // Extra scratchpad traffic for cross-pass accumulation.
            const std::int64_t acc_rw =
                multi_c ? (bb * static_cast<std::int64_t>(tm_eff) *
                           geo.out_positions() * kPartialBytes *
                           (ci == 0 ? 1 : 2))
                        : 0;
            std::vector<TaskId> deps = {if_load, w_load};
            deps.insert(deps.end(), prev_chunks.begin(), prev_chunks.end());
            const auto chunks = emit_computes(
                idx, tm_eff, bb * geo.out_positions(), tc_eff * kk,
                eff_ifmap_codec(idx), layer_stats(idx).ifmap_sparsity,
                if_coded / static_cast<Index>(c_passes.size()),
                if_elems / static_cast<Index>(c_passes.size()), w_coded, w_raw,
                deps, layer_tag("comp", idx, {tile_seq, mi, ci}), acc_rw);
            const TaskId w_bar = add_barrier(
                layer_tag("w_bar", idx, {tile_seq, mi, ci}), chunks, w_coded);
            prev_prev_w_bar = prev_w_bar;
            prev_w_bar = w_bar;
            prev_chunks = chunks;
            all_chunks.insert(all_chunks.end(), chunks.begin(), chunks.end());
          }
          emit_store_path(idx, bb * tm_eff * geo.out_positions(), prev_chunks,
                          partial, layer_tag("store", idx, {tile_seq, mi}),
                          &tile_bar_deps);
          tile_bar_deps.insert(tile_bar_deps.end(), all_chunks.begin(),
                               all_chunks.end());
        }
        const TaskId tile_bar =
            add_barrier(layer_tag("tile_bar", idx, {tile_seq}),
                        std::move(tile_bar_deps), if_coded);
        prev_prev_tile_bar = prev_tile_bar;
        prev_tile_bar = tile_bar;
      }
    }
    // Channel-parallel DMA can have one extra weight chunk (and its
    // partial buffer) in flight beyond the chain's two slots.
    footprint_ = 3 * max_tile_bytes + 3 * max_w_chunk + 3 * max_partial +
                 store_buffer_bound_;
  }

  /// Channel-wise operators (pooling, depthwise conv): each output channel
  /// depends only on its input channel; channels processed tm at a time,
  /// spatial tiles double buffered. Depthwise filters (tm x k x k) are
  /// loaded once per channel pass and stay resident across its tiles.
  void build_channelwise(std::size_t idx) {
    const nn::LayerSpec& layer = net_.layers[idx];
    const LayerPlan& plan = plan_.layers[idx];
    const bool dw = layer.kind == nn::LayerKind::DepthwiseConv;
    const auto grid = tile_grid(layer, plan.tile.th, plan.tile.tw);
    const auto c_passes = pass_sizes(layer.out_channels(), plan.tile.tm);
    const Index kk = layer.kernel * layer.kernel;

    std::int64_t max_tile_bytes = 0;
    std::int64_t max_w_coded = 0;
    TaskId prev_prev_bar = sim::kInvalidTask;
    TaskId prev_bar = sim::kInvalidTask;
    TaskId prev_prev_pass_bar = sim::kInvalidTask;
    TaskId prev_pass_bar = sim::kInvalidTask;

    for (std::size_t ci = 0; ci < c_passes.size(); ++ci) {
      const Index tm_eff = c_passes[ci];
      const std::int64_t w_coded =
          dw ? kernel_coded(idx, tm_eff * kk) : 0;
      const std::int64_t w_raw = dw ? tm_eff * kk * kValueBytes : 0;
      max_w_coded = std::max(max_w_coded, w_coded);
      TaskId w_load = sim::kInvalidTask;
      if (dw) {
        std::vector<TaskId> w_deps;
        if (prev_prev_pass_bar != sim::kInvalidTask) {
          w_deps.push_back(prev_prev_pass_bar);
        }
        w_load = add_load(layer_tag("w_load", idx, {ci}), w_coded,
                          std::move(w_deps), w_coded);
      }

      std::vector<TaskId> pass_bar_deps;
      const std::size_t tile_iters =
          grid.size() * static_cast<std::size_t>(batch_);
      for (std::size_t ti = 0; ti < tile_iters; ++ti) {
        const TileGeometry& geo = grid[ti % grid.size()];
        const Index if_elems = tm_eff * geo.in_positions();
        const std::int64_t if_coded = ifmap_coded(idx, if_elems);
        const std::int64_t out_bytes =
            tm_eff * geo.out_positions() * kValueBytes;
        max_tile_bytes = std::max(max_tile_bytes, if_coded + out_bytes);

        std::vector<TaskId> load_deps;
        if (prev_prev_bar != sim::kInvalidTask) {
          load_deps.push_back(prev_prev_bar);
        }
        if (w_load != sim::kInvalidTask) load_deps.push_back(w_load);
        const TaskId if_load = add_load(layer_tag("if_load", idx, {ci, ti}),
                                        if_coded, std::move(load_deps),
                                        if_coded + out_bytes);

        const auto chunks = emit_computes(
            idx, tm_eff, geo.out_positions(), kk, eff_ifmap_codec(idx),
            layer_stats(idx).ifmap_sparsity, if_coded, if_elems, w_coded,
            w_raw, {if_load}, layer_tag("comp", idx, {ci, ti}));

        std::vector<TaskId> bar_deps = chunks;
        emit_store_path(idx, tm_eff * geo.out_positions(), chunks, out_bytes,
                        layer_tag("store", idx, {ci, ti}), &bar_deps);
        const TaskId bar = add_barrier(layer_tag("tile_bar", idx, {ci, ti}),
                                       std::move(bar_deps), if_coded);
        pass_bar_deps.push_back(bar);
        prev_prev_bar = prev_bar;
        prev_bar = bar;
      }
      if (dw) {
        const TaskId pass_bar = add_barrier(layer_tag("pass_bar", idx, {ci}),
                                            std::move(pass_bar_deps), w_coded);
        prev_prev_pass_bar = prev_pass_bar;
        prev_pass_bar = pass_bar;
      }
    }
    footprint_ = 2 * max_w_coded + 3 * max_tile_bytes + store_buffer_bound_;
  }

  // ---- fused group schedule ----------------------------------------------

  void build_fused_group() {
    const nn::LayerSpec& tail = net_.layers[group_.last];
    const LayerPlan& tail_plan = plan_.layers[group_.last];
    for (std::size_t l = group_.first; l <= group_.last; ++l) {
      MOCHA_CHECK(plan_.layers[l].total_groups() == pe_groups_,
                  net_.layers[l].name
                      << ": fused members must share the head's parallelism");
    }

    // All weights of the group stay resident for the whole run.
    std::int64_t weights_coded_total = 0;
    std::vector<TaskId> weight_loads;
    std::vector<std::int64_t> w_coded_per_layer(net_.layers.size(), 0);
    for (std::size_t l = group_.first; l <= group_.last; ++l) {
      const nn::LayerSpec& layer = net_.layers[l];
      if (!layer.has_weights()) continue;
      const std::int64_t w_coded = kernel_coded(l, layer.weight_elems());
      w_coded_per_layer[l] = w_coded;
      weights_coded_total += w_coded;
      weight_loads.push_back(add_load(layer_tag("w_load", l), w_coded,
                                      weight_loads.empty()
                                          ? std::vector<TaskId>{}
                                          : std::vector<TaskId>{weight_loads.back()},
                                      w_coded));
    }

    const auto grid =
        tile_grid(tail, tail_plan.tile.th, tail_plan.tile.tw);

    std::int64_t max_tile_bytes = 0;
    TaskId prev_prev_bar = sim::kInvalidTask;
    TaskId prev_bar = sim::kInvalidTask;
    std::vector<TaskId> final_bar_deps;

    const std::size_t tile_iters =
        grid.size() * static_cast<std::size_t>(batch_);
    for (std::size_t ti = 0; ti < tile_iters; ++ti) {
      const TileGeometry& tail_geo = grid[ti % grid.size()];
      const auto pyramid = fused_pyramid(net_, group_.first, group_.last,
                                         tail_geo.out_y, tail_geo.out_x);

      // Tile footprint: coded head input + raw intermediates + tail output.
      const nn::LayerSpec& head = net_.layers[group_.first];
      const Index head_if_elems = head.in_c * pyramid.front().in_positions();
      const std::int64_t head_if_coded =
          ifmap_coded(group_.first, head_if_elems);
      std::int64_t inter_bytes = 0;
      for (std::size_t l = group_.first; l <= group_.last; ++l) {
        const TileGeometry& geo = pyramid[l - group_.first];
        inter_bytes += net_.layers[l].out_channels() * geo.out_positions() *
                       kValueBytes;
      }
      const std::int64_t tile_bytes = head_if_coded + inter_bytes;
      max_tile_bytes = std::max(max_tile_bytes, tile_bytes);

      std::vector<TaskId> load_deps = weight_loads;
      if (prev_prev_bar != sim::kInvalidTask) {
        load_deps.push_back(prev_prev_bar);
      }
      const TaskId if_load = add_load(layer_tag("if_load", group_.first, {ti}),
                                      head_if_coded, std::move(load_deps),
                                      tile_bytes);

      std::vector<TaskId> prev_stage = {if_load};
      for (std::size_t l = group_.first; l <= group_.last; ++l) {
        const nn::LayerSpec& layer = net_.layers[l];
        const TileGeometry& geo = pyramid[l - group_.first];
        const bool is_head = l == group_.first;
        const Index kk = eff_kernel_size(layer) * eff_kernel_size(layer);
        const Index mpp =
            layer.kind == nn::LayerKind::Pool ||
                    layer.kind == nn::LayerKind::DepthwiseConv
                ? kk
                : layer.in_c * kk;
        const Index in_elems = layer.in_c * geo.in_positions();
        // Stages past the head read raw intermediates: no decode, no
        // zero-skip (skip hardware sits on the scratchpad read path of
        // coded streams only).
        prev_stage = emit_computes(
            l, layer.out_channels(), geo.out_positions(), mpp,
            is_head ? eff_ifmap_codec(l) : compress::CodecKind::None,
            is_head ? layer_stats(l).ifmap_sparsity : 0.0,
            is_head ? head_if_coded : in_elems * kValueBytes, in_elems,
            w_coded_per_layer[l], layer.weight_bytes(), prev_stage,
            layer_tag("comp", l, {ti}));
      }

      std::vector<TaskId> bar_deps = prev_stage;
      emit_store_path(group_.last,
                      tail.out_channels() * tail_geo.out_positions(),
                      prev_stage, /*free_raw_bytes=*/0,
                      layer_tag("store", group_.last, {ti}), &bar_deps);
      const TaskId bar = add_barrier(layer_tag("tile_bar", group_.last, {ti}),
                                     std::move(bar_deps), tile_bytes);
      final_bar_deps.push_back(bar);
      prev_prev_bar = prev_bar;
      prev_bar = bar;
    }
    // The group-wide barrier counts for the group head, without naming it.
  TaskTag group_end;
  group_end.role = "group_end";
  group_end.layer = static_cast<std::int32_t>(group_.first);
  add_barrier(group_end, std::move(final_bar_deps), weights_coded_total);
    // Two tiles are ever live (the depth-2 chain gates loads on the barrier
    // of tile t-2, which frees that tile first), plus resident weights and
    // any in-flight compressed store buffer.
    footprint_ = weights_coded_total + 2 * max_tile_bytes +
                 store_buffer_bound_;
  }

  // ---- shared emission helpers -------------------------------------------

  /// Emits the per-group compute chunks of one pass: tm_eff maps split
  /// across inter groups, `positions` output positions across intra groups,
  /// the pass's streams shared out in proportion. The pass reads
  /// `if_stream_bytes` of ifmap (`if_raw_elems` values under `ifmap_codec`
  /// at `ifmap_sparsity`) and `w_coded` bytes of weights (`w_raw` decoded).
  /// `extra_sram_rw` is cross-pass accumulation traffic.
  std::vector<TaskId> emit_computes(
      std::size_t idx, Index tm_eff, Index positions, Index mpp,
      compress::CodecKind ifmap_codec, double ifmap_sparsity,
      std::int64_t if_stream_bytes, Index if_raw_elems, std::int64_t w_coded,
      std::int64_t w_raw, const std::vector<TaskId>& deps,
      const TaskTag& pass_tag, std::int64_t extra_sram_rw = 0) {
    const LayerPlan& plan = plan_.layers[idx];
    const auto map_parts = partition(tm_eff, plan.inter_groups);
    const auto pos_parts = partition(positions, plan.intra_groups);

    // Chunk weights for proportional accounting of shared streams.
    std::vector<Index> weights;
    for (Index mp : map_parts) {
      for (Index pp : pos_parts) weights.push_back(mp * pp);
    }
    const auto if_shares = distribute(if_stream_bytes, weights);
    const auto w_shares = distribute(w_coded, weights);
    const auto if_decode_shares = distribute(
        ifmap_codec != compress::CodecKind::None ? if_raw_elems * kValueBytes
                                                 : 0,
        weights);
    const auto w_decode_shares = distribute(
        eff_kernel_codec(idx) != compress::CodecKind::None ? w_raw : 0,
        weights);
    const auto extra_shares = distribute(extra_sram_rw, weights);

    std::vector<TaskId> chunk_ids;
    std::size_t chunk = 0;
    for (std::size_t g = 0; g < map_parts.size(); ++g) {
      for (std::size_t s = 0; s < pos_parts.size(); ++s, ++chunk) {
        ComputeChunkSpec spec;
        spec.positions = map_parts[g] * pos_parts[s];
        spec.macs_per_position = mpp;
        spec.ifmap_sparsity = ifmap_sparsity;
        spec.ifmap_codec = ifmap_codec;
        spec.kernel_codec = eff_kernel_codec(idx);
        spec.ifmap_decode_raw = if_decode_shares[chunk];
        spec.kernel_decode_raw = w_decode_shares[chunk];
        spec.sram_read_bytes = if_shares[chunk] + w_shares[chunk] +
                               extra_shares[chunk] / 2;
        spec.sram_write_bytes =
            spec.positions * kValueBytes + extra_shares[chunk] / 2 +
            extra_shares[chunk] % 2;
        chunk_ids.push_back(add_compute(chunk_tag(pass_tag, g, s), spec, deps));
      }
    }
    return chunk_ids;
  }

  /// Emits the (optional compress +) store of a finished output tile slice.
  /// `free_raw_bytes` is released when the slice has left the scratchpad.
  void emit_store_path(std::size_t idx, Index out_elems,
                       const std::vector<TaskId>& producer_chunks,
                       std::int64_t free_raw_bytes, const TaskTag& store_tag,
                       std::vector<TaskId>* completion_deps) {
    const std::int64_t raw_bytes = out_elems * kValueBytes;
    const std::int64_t coded = ofmap_coded(idx, out_elems);
    TaskId store;
    if (eff_ofmap_codec(idx) != compress::CodecKind::None) {
      TaskTag pack_tag = store_tag;
      pack_tag.pack = true;
      const TaskId compress = add_compress(pack_tag, eff_ofmap_codec(idx),
                                           raw_bytes, coded, producer_chunks);
      store = add_store(store_tag, coded, {compress}, free_raw_bytes + coded);
      // Up to two compress tasks (one per shared engine) can run while a
      // third coded buffer drains on the DRAM bus.
      store_buffer_bound_ = std::max(store_buffer_bound_, 4 * coded);
    } else {
      store = add_store(store_tag, coded, producer_chunks, free_raw_bytes);
    }
    completion_deps->push_back(store);
  }

  /// Tag of "<role>.L<layer>" followed by up to three loop indices.
  static TaskTag layer_tag(const char* role, std::size_t layer,
                     std::initializer_list<std::size_t> indices = {}) {
    MOCHA_CHECK(indices.size() <= TaskTag::kMaxIndices,
                role << ": " << indices.size() << " loop indices");
    TaskTag t;
    t.role = role;
    t.layer = static_cast<std::int32_t>(layer);
    t.shows_layer = true;
    for (std::size_t i : indices) {
      t.indices[t.index_count++] = static_cast<std::uint32_t>(i);
    }
    return t;
  }

  /// The compute chunk (inter group g, intra slice s) of a tile pass.
  static TaskTag chunk_tag(const TaskTag& pass_tag, std::size_t g,
                           std::size_t s) {
    TaskTag t = pass_tag;
    t.chunk_g = static_cast<std::int32_t>(g);
    t.chunk_s = static_cast<std::int32_t>(s);
    return t;
  }

  const nn::Network& net_;
  const NetworkPlan& plan_;
  NetworkPlan::Group group_;
  const fabric::FabricConfig& config_;
  const std::vector<LayerStreamStats>& stats_;
  Index batch_ = 1;
  sim::DramModel dram_;
  const LayerPlan& head_plan_;

  sim::TaskGraph graph_;
  sim::ResourceLayout layout_;
  int pe_groups_ = 1;
  int pes_per_group_ = 1;
  double operand_hops_ = 1.0;
  std::int64_t footprint_ = 0;
  std::int64_t store_buffer_bound_ = 0;
};

}  // namespace

BuiltSchedule build_group_schedule(const nn::Network& net,
                                   const NetworkPlan& plan,
                                   const NetworkPlan::Group& group,
                                   const fabric::FabricConfig& config,
                                   const std::vector<LayerStreamStats>& stats,
                                   Index batch) {
  config.validate();
  plan.validate(net);
  MOCHA_CHECK(group.first <= group.last && group.last < net.layers.size(),
              "bad group range");
  GroupBuilder builder(net, plan, group, config, stats, batch);
  return builder.build();
}

}  // namespace mocha::dataflow
