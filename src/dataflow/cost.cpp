#include "dataflow/cost.hpp"

#include <algorithm>
#include <cmath>

#include "model/area.hpp"
#include "dataflow/tiling.hpp"
#include "fabric/pe_array.hpp"
#include "sim/dram.hpp"

namespace mocha::dataflow {

namespace {

double sc_pool(const nn::LayerSpec& layer, const LayerPlan& lp);

struct Accumulator {
  double dram_cycles = 0;
  double compute_cycles = 0;
  double codec_raw_bytes = 0;       // energy accounting, all streams
  double compress_engine_cycles = 0;  // shared-engine (store path) occupancy
  model::ActionCounts counts;
  std::int64_t footprint = 0;

  void add_load(const sim::DramModel& dram, std::int64_t coded, double count) {
    dram_cycles += count * static_cast<double>(dram.transfer_cycles(coded));
    counts.dram_read_bytes += static_cast<std::int64_t>(count * static_cast<double>(coded));
    counts.sram_write_bytes += static_cast<std::int64_t>(count * static_cast<double>(coded));
  }

  void add_store(const sim::DramModel& dram, std::int64_t coded, double count) {
    dram_cycles += count * static_cast<double>(dram.transfer_cycles(coded));
    counts.dram_write_bytes += static_cast<std::int64_t>(count * static_cast<double>(coded));
    counts.sram_read_bytes += static_cast<std::int64_t>(count * static_cast<double>(coded));
  }
};

/// Interior-tile input extent along one axis.
Index halo_extent(Index tile, Index stride, Index kernel) {
  return (tile - 1) * stride + kernel;
}

/// One layer's contribution under its LayerPlan (single-layer group).
void accumulate_single_layer(const nn::Network& net, const NetworkPlan& plan,
                             std::size_t idx,
                             const fabric::FabricConfig& config,
                             const std::vector<LayerStreamStats>& stats,
                             const sim::DramModel& dram, Index batch,
                             Accumulator& acc) {
  const double b = static_cast<double>(batch);
  const nn::LayerSpec& layer = net.layers[idx];
  const LayerPlan& lp = plan.layers[idx];
  const LayerStreamStats& st = stats[idx];
  const bool dw = layer.kind == nn::LayerKind::DepthwiseConv;
  // "pool" here means channel-wise scheduling: each output channel depends
  // only on its input channel. Depthwise conv shares the shape but adds a
  // small per-pass weight stream.
  const bool pool = layer.kind == nn::LayerKind::Pool || dw;
  const Index k = layer.kind == nn::LayerKind::FullyConnected ? 1 : layer.kernel;
  const Index kk = k * k;
  const Index stride = layer.kind == nn::LayerKind::FullyConnected
                           ? 1
                           : layer.stride;

  const Index oh = layer.out_h();
  const Index ow = layer.out_w();
  const Index m_total = layer.out_channels();
  const double tiles_y = std::ceil(static_cast<double>(oh) /
                                   static_cast<double>(lp.tile.th));
  const double tiles_x = std::ceil(static_cast<double>(ow) /
                                   static_cast<double>(lp.tile.tw));
  const double st_tiles = tiles_y * tiles_x;
  const double sm = std::ceil(static_cast<double>(m_total) /
                              static_cast<double>(lp.tile.tm));
  const double sc = std::ceil(static_cast<double>(layer.in_c) /
                              static_cast<double>(lp.tile.tc));
  // Ragged final passes: traffic quantities use the average pass width,
  // not the nominal tile.tm/tile.tc (footprints keep the nominal maxima).
  const Index avg_tm = static_cast<Index>(
      std::llround(static_cast<double>(m_total) / sm));
  const Index avg_tc = static_cast<Index>(
      std::llround(static_cast<double>(layer.in_c) / sc));

  // Interior-tile halo extent bounds the per-tile footprint; for traffic
  // the grid's exact clamped/ragged sum is used when the grid is small
  // enough to enumerate (it always is for plausible plans).
  const Index in_tile_positions = halo_extent(lp.tile.th, stride, k) *
                                  halo_extent(lp.tile.tw, stride, k);
  double avg_in_positions = static_cast<double>(in_tile_positions);
  if (layer.kind != nn::LayerKind::FullyConnected && st_tiles <= 4096.0) {
    avg_in_positions =
        static_cast<double>(
            pass_input_positions(layer, lp.tile.th, lp.tile.tw)) /
        st_tiles;
  } else if (layer.kind == nn::LayerKind::FullyConnected) {
    avg_in_positions = 1.0;
  }
  const Index tile_out_positions = lp.tile.th * lp.tile.tw;
  // Ragged edge tiles: the average tile covers fewer output positions.
  const double avg_out_positions =
      static_cast<double>(oh) * static_cast<double>(ow) / st_tiles;

  // ---- DRAM traffic ----
  const bool input_stationary =
      !pool && lp.order == LoopOrder::InputStationary;
  // IS batch sub-tiling: bc images resident together, nb sub-batches.
  const Index bc = !input_stationary ? 1
                   : lp.batch_tile == 0
                       ? batch
                       : std::min<Index>(lp.batch_tile, batch);
  const double nb =
      input_stationary
          ? std::ceil(b / static_cast<double>(bc))
          : 1.0;
  const Index if_channels =
      pool ? static_cast<Index>(std::llround(
                 static_cast<double>(layer.out_channels()) /
                 sc_pool(layer, lp)))
           : layer.in_c;
  const Index if_tile_elems_max =
      (input_stationary ? bc : 1) * if_channels * in_tile_positions;
  const Index if_tile_elems = static_cast<Index>(
      static_cast<double>((input_stationary ? bc : 1) * if_channels) *
      avg_in_positions);
  const std::int64_t if_tile_coded = coded_stream_bytes(
      config, lp.ifmap_codec, if_tile_elems, st.ifmap_sparsity);
  const std::int64_t if_tile_coded_max = coded_stream_bytes(
      config, lp.ifmap_codec, if_tile_elems_max, st.ifmap_sparsity);

  const Index out_tile_elems = static_cast<Index>(
      std::llround(static_cast<double>((input_stationary ? bc : 1) * avg_tm) *
                   avg_out_positions));
  const std::int64_t out_tile_coded = coded_stream_bytes(
      config, lp.ofmap_codec, out_tile_elems, st.ofmap_sparsity);

  double if_loads;          // how many ifmap tile transfers
  double w_stream_count;    // how many weight transfers
  std::int64_t w_chunk_coded = 0;
  std::int64_t w_chunk_raw = 0;
  if (pool) {
    if_loads = b * sc_pool(layer, lp) * st_tiles;
    if (dw) {
      // One tiny filter block per channel pass, resident across its tiles.
      w_chunk_coded = coded_stream_bytes(config, lp.kernel_codec,
                                         avg_tm * kk, st.kernel_sparsity);
      w_chunk_raw = avg_tm * kk * kValueBytes;
      w_stream_count = sc_pool(layer, lp);
    } else {
      w_stream_count = 0;
    }
  } else if (lp.order == LoopOrder::WeightStationary) {
    if_loads = b * sm * st_tiles;
    w_chunk_coded = coded_stream_bytes(config, lp.kernel_codec,
                                       avg_tm * layer.in_c * kk,
                                       st.kernel_sparsity);
    w_chunk_raw = avg_tm * layer.in_c * kk * kValueBytes;
    w_stream_count = sm;
  } else {
    if_loads = nb * st_tiles;
    w_chunk_coded = coded_stream_bytes(config, lp.kernel_codec,
                                       avg_tm * avg_tc * kk,
                                       st.kernel_sparsity);
    w_chunk_raw = avg_tm * avg_tc * kk * kValueBytes;
    w_stream_count = nb * st_tiles * sm * sc;
  }
  const double store_count =
      (input_stationary ? nb : b) * sm * st_tiles;
  acc.add_load(dram, if_tile_coded, if_loads);
  if (w_stream_count > 0) acc.add_load(dram, w_chunk_coded, w_stream_count);
  acc.add_store(dram, out_tile_coded, store_count);

  // ---- Compute time ----
  const int groups = lp.total_groups();
  // Degraded fabrics: lockstep passes are gated by the worst surviving
  // group, and chunks from fully-dead groups time-multiplex onto the
  // survivors. Healthy fabrics reduce to min_group_pes() and factor 1.
  const fabric::PeArray pe_array(config, groups);
  const int pes_per_group = pe_array.min_live_group_pes();
  const double group_multiplex =
      static_cast<double>(groups) /
      static_cast<double>(pe_array.live_group_count());
  const Index map_part = util::ceil_div<Index>(lp.tile.tm, lp.inter_groups);
  const Index pos_part = util::ceil_div<Index>(
      (input_stationary ? bc : 1) * tile_out_positions, lp.intra_groups);
  const compress::CodecKind if_codec = effective_codec(config, lp.ifmap_codec);

  const compress::CodecKind k_codec =
      pool && !dw ? compress::CodecKind::None
                  : effective_codec(config, lp.kernel_codec);
  const std::int64_t if_tile_raw = if_tile_elems * kValueBytes;

  double per_tile_mac_cycles;
  double passes;
  Index mpp;
  std::int64_t if_decode_per_pass = 0;  // raw bytes per tile pass
  std::int64_t w_decode_per_pass = 0;
  if (pool) {
    mpp = kk;
    per_tile_mac_cycles = static_cast<double>(compute_chunk_cycles(
        config, map_part * pos_part, mpp, pes_per_group, st.ifmap_sparsity,
        if_codec));
    passes = b * sc_pool(layer, lp) * st_tiles;
    if_decode_per_pass = if_codec != compress::CodecKind::None ? if_tile_raw : 0;
    w_decode_per_pass =
        dw && k_codec != compress::CodecKind::None ? w_chunk_raw : 0;
  } else if (lp.order == LoopOrder::WeightStationary) {
    mpp = layer.in_c * kk;
    per_tile_mac_cycles = static_cast<double>(compute_chunk_cycles(
        config, map_part * pos_part, mpp, pes_per_group, st.ifmap_sparsity,
        if_codec));
    passes = b * sm * st_tiles;
    if_decode_per_pass = if_codec != compress::CodecKind::None ? if_tile_raw : 0;
    w_decode_per_pass = k_codec != compress::CodecKind::None ? w_chunk_raw : 0;
  } else {
    mpp = lp.tile.tc * kk;
    per_tile_mac_cycles = static_cast<double>(compute_chunk_cycles(
        config, map_part * pos_part, mpp, pes_per_group, st.ifmap_sparsity,
        if_codec));
    passes = nb * st_tiles * sm * sc;
    if_decode_per_pass = if_codec != compress::CodecKind::None
                             ? if_tile_raw / static_cast<std::int64_t>(sc)
                             : 0;
    w_decode_per_pass = k_codec != compress::CodecKind::None ? w_chunk_raw : 0;
  }
  // Per-group front-end decoders run concurrently with the MACs; a pass
  // takes the slower of compute and its chunk's decode share.
  const double per_chunk_decode = std::max(
      static_cast<double>(codec_cycles(config, if_codec, if_decode_per_pass)),
      static_cast<double>(codec_cycles(config, k_codec, w_decode_per_pass))) /
      static_cast<double>(groups);
  acc.compute_cycles +=
      passes * std::max(per_tile_mac_cycles, per_chunk_decode) *
      group_multiplex;

  // ---- Decode / compress stream volume ----
  if (if_codec != compress::CodecKind::None) {
    acc.codec_raw_bytes += passes * static_cast<double>(if_decode_per_pass);
  }
  if (k_codec != compress::CodecKind::None) {
    acc.codec_raw_bytes += passes * static_cast<double>(w_decode_per_pass);
  }
  if (effective_codec(config, lp.ofmap_codec) != compress::CodecKind::None) {
    const double raw = store_count * static_cast<double>(out_tile_elems) *
                       static_cast<double>(kValueBytes);
    acc.codec_raw_bytes += raw;
    acc.counts.sram_read_bytes += static_cast<std::int64_t>(raw);
    // Store-side compression serializes on the shared codec engines.
    acc.compress_engine_cycles +=
        store_count *
        static_cast<double>(codec_cycles(
            config, effective_codec(config, lp.ofmap_codec),
            out_tile_elems * kValueBytes));
  }

  // ---- Event counts for energy ----
  const double frac =
      effective_mac_fraction(config, lp.ifmap_codec, st.ifmap_sparsity);
  const double eff_macs = b * static_cast<double>(layer.macs()) * frac;
  acc.counts.macs += static_cast<std::int64_t>(eff_macs);
  acc.counts.rf_bytes += static_cast<std::int64_t>(4.0 * eff_macs);
  // Operand reads from scratchpad: ifmap stream once per load, weights once
  // per decode/read pass.
  acc.counts.sram_read_bytes += static_cast<std::int64_t>(
      if_loads * static_cast<double>(if_tile_coded));
  if (!pool || dw) {
    // WS/channel-wise passes run once per image and re-read their resident
    // weights per tile; an IS weight chunk is read (and decoded) once per
    // pass and serves the whole resident batch.
    const double w_read_passes =
        dw ? b * sc_pool(layer, lp) * st_tiles
           : (lp.order == LoopOrder::WeightStationary ? b * sm * st_tiles
                                                      : w_stream_count);
    acc.counts.sram_read_bytes += static_cast<std::int64_t>(
        w_read_passes * static_cast<double>(w_chunk_coded));
  }
  acc.counts.sram_write_bytes += static_cast<std::int64_t>(
      b * sm * st_tiles * avg_out_positions * static_cast<double>(avg_tm) *
      static_cast<double>(kValueBytes));

  // ---- Footprint ----
  std::int64_t footprint;
  const bool multi_c = sc > 1.0 && lp.order == LoopOrder::InputStationary;
  const std::int64_t partial = (input_stationary ? bc : 1) * lp.tile.tm *
                               tile_out_positions *
                               (multi_c ? kPartialBytes : kValueBytes);
  const std::int64_t w_chunk_coded_max =
      pool ? 0
           : coded_stream_bytes(
                 config, lp.kernel_codec,
                 lp.tile.tm * (lp.order == LoopOrder::WeightStationary
                                   ? layer.in_c
                                   : lp.tile.tc) *
                     kk,
                 st.kernel_sparsity);
  if (pool) {
    footprint = 3 * (if_tile_coded_max + lp.tile.tm * tile_out_positions *
                                             kValueBytes);
    if (dw) {
      footprint += 2 * coded_stream_bytes(config, lp.kernel_codec,
                                          lp.tile.tm * kk,
                                          st.kernel_sparsity);
    }
  } else if (lp.order == LoopOrder::WeightStationary) {
    footprint = 2 * w_chunk_coded_max + 3 * (if_tile_coded_max + partial);
  } else {
    footprint = 3 * if_tile_coded_max + 3 * w_chunk_coded_max + 3 * partial;
  }
  if (effective_codec(config, lp.ofmap_codec) != compress::CodecKind::None) {
    footprint += 2 * out_tile_coded;
  }
  acc.footprint = std::max(acc.footprint, footprint);
}

double sc_pool(const nn::LayerSpec& layer, const LayerPlan& lp) {
  return std::ceil(static_cast<double>(layer.out_channels()) /
                   static_cast<double>(lp.tile.tm));
}

/// Fused group contribution.
void accumulate_fused(const nn::Network& net, const NetworkPlan& plan,
                      const NetworkPlan::Group& group,
                      const fabric::FabricConfig& config,
                      const std::vector<LayerStreamStats>& stats,
                      const sim::DramModel& dram, Index batch,
                      Accumulator& acc) {
  const nn::LayerSpec& tail = net.layers[group.last];
  const LayerPlan& tail_plan = plan.layers[group.last];
  const LayerPlan& head_plan = plan.layers[group.first];
  const double st_tiles =
      static_cast<double>(batch) *
      std::ceil(static_cast<double>(tail.out_h()) /
                static_cast<double>(tail_plan.tile.th)) *
      std::ceil(static_cast<double>(tail.out_w()) /
                static_cast<double>(tail_plan.tile.tw));

  // Backward halo walk with interior-tile extents.
  std::vector<Index> need_h(group.size() + 1);
  std::vector<Index> need_w(group.size() + 1);
  need_h[group.size()] = tail_plan.tile.th;
  need_w[group.size()] = tail_plan.tile.tw;
  for (std::size_t k = group.size(); k-- > 0;) {
    const nn::LayerSpec& layer = net.layers[group.first + k];
    const Index kern =
        layer.kind == nn::LayerKind::FullyConnected ? 1 : layer.kernel;
    const Index stride =
        layer.kind == nn::LayerKind::FullyConnected ? 1 : layer.stride;
    need_h[k] = halo_extent(need_h[k + 1], stride, kern);
    need_w[k] = halo_extent(need_w[k + 1], stride, kern);
  }

  // Weights resident once.
  std::int64_t w_total_coded = 0;
  for (std::size_t l = group.first; l <= group.last; ++l) {
    if (!net.layers[l].has_weights()) continue;
    w_total_coded += coded_stream_bytes(config, plan.layers[l].kernel_codec,
                                        net.layers[l].weight_elems(),
                                        stats[l].kernel_sparsity);
    acc.add_load(dram,
                 coded_stream_bytes(config, plan.layers[l].kernel_codec,
                                    net.layers[l].weight_elems(),
                                    stats[l].kernel_sparsity),
                 1.0);
  }

  // Head input tiles.
  const nn::LayerSpec& head = net.layers[group.first];
  const Index head_if_elems = head.in_c * need_h[0] * need_w[0];
  const std::int64_t head_if_coded = coded_stream_bytes(
      config, head_plan.ifmap_codec, head_if_elems,
      stats[group.first].ifmap_sparsity);
  acc.add_load(dram, head_if_coded, st_tiles);

  // Tail output tiles.
  const Index tail_out_elems =
      tail.out_channels() * tail_plan.tile.th * tail_plan.tile.tw;
  const std::int64_t tail_out_coded =
      coded_stream_bytes(config, tail_plan.ofmap_codec, tail_out_elems,
                         stats[group.last].ofmap_sparsity);
  acc.add_store(dram, tail_out_coded, st_tiles);

  // Per-tile compute, stage by stage. Same degraded-fabric treatment as the
  // single-layer path: worst surviving group gates, dead groups multiplex.
  const int groups = head_plan.total_groups();
  const fabric::PeArray pe_array(config, groups);
  const int pes_per_group = pe_array.min_live_group_pes();
  const double group_multiplex =
      static_cast<double>(groups) /
      static_cast<double>(pe_array.live_group_count());
  double per_tile_cycles = 0;
  std::int64_t inter_bytes = 0;
  for (std::size_t l = group.first; l <= group.last; ++l) {
    const nn::LayerSpec& layer = net.layers[l];
    const std::size_t k = l - group.first;
    const Index out_positions = need_h[k + 1] * need_w[k + 1];
    const Index kern =
        layer.kind == nn::LayerKind::FullyConnected ? 1 : layer.kernel;
    const Index mpp = layer.kind == nn::LayerKind::Pool ||
                              layer.kind == nn::LayerKind::DepthwiseConv
                          ? kern * kern
                          : layer.in_c * kern * kern;
    const bool is_head = l == group.first;
    const double sparsity = is_head ? stats[l].ifmap_sparsity : 0.0;
    const compress::CodecKind codec =
        is_head ? effective_codec(config, head_plan.ifmap_codec)
                : compress::CodecKind::None;
    const Index map_part =
        util::ceil_div<Index>(layer.out_channels(), plan.layers[l].inter_groups);
    const Index pos_part =
        util::ceil_div<Index>(out_positions, plan.layers[l].intra_groups);
    const double stage_mac_cycles = static_cast<double>(compute_chunk_cycles(
        config, map_part * pos_part, mpp, pes_per_group, sparsity, codec));
    // Per-group front-end decode of this stage's coded streams.
    std::int64_t stage_if_decode = 0;
    if (is_head && codec != compress::CodecKind::None) {
      stage_if_decode = layer.in_c * need_h[k] * need_w[k] * kValueBytes;
    }
    const compress::CodecKind stage_k_codec =
        layer.has_weights()
            ? effective_codec(config, plan.layers[l].kernel_codec)
            : compress::CodecKind::None;
    const std::int64_t stage_w_decode =
        stage_k_codec != compress::CodecKind::None
            ? layer.weight_elems() * kValueBytes
            : 0;
    const double stage_decode =
        std::max(static_cast<double>(
                     codec_cycles(config, codec, stage_if_decode)),
                 static_cast<double>(
                     codec_cycles(config, stage_k_codec, stage_w_decode))) /
        static_cast<double>(groups);
    per_tile_cycles += std::max(stage_mac_cycles, stage_decode) *
                       group_multiplex;

    const double stage_macs = static_cast<double>(out_positions) *
                              static_cast<double>(layer.out_channels()) *
                              static_cast<double>(mpp) *
                              effective_mac_fraction(config,
                                                     is_head
                                                         ? head_plan.ifmap_codec
                                                         : compress::CodecKind::None,
                                                     sparsity);
    acc.counts.macs += static_cast<std::int64_t>(st_tiles * stage_macs);
    acc.counts.rf_bytes += static_cast<std::int64_t>(4.0 * st_tiles * stage_macs);
    // Stage reads its input tile and its (coded) weights per tile.
    const std::int64_t in_bytes =
        is_head ? head_if_coded
                : layer.in_c * need_h[k] * need_w[k] * kValueBytes;
    acc.counts.sram_read_bytes +=
        static_cast<std::int64_t>(st_tiles * static_cast<double>(in_bytes));
    if (layer.has_weights()) {
      const std::int64_t w_coded = coded_stream_bytes(
          config, plan.layers[l].kernel_codec, layer.weight_elems(),
          stats[l].kernel_sparsity);
      acc.counts.sram_read_bytes +=
          static_cast<std::int64_t>(st_tiles * static_cast<double>(w_coded));
      if (effective_codec(config, plan.layers[l].kernel_codec) !=
          compress::CodecKind::None) {
        acc.codec_raw_bytes += st_tiles * static_cast<double>(
                                              layer.weight_elems() * kValueBytes);
      }
    }
    const std::int64_t stage_out_bytes =
        layer.out_channels() * out_positions * kValueBytes;
    acc.counts.sram_write_bytes +=
        static_cast<std::int64_t>(st_tiles * static_cast<double>(stage_out_bytes));
    inter_bytes += stage_out_bytes;
  }
  acc.compute_cycles += st_tiles * per_tile_cycles;
  if (effective_codec(config, head_plan.ifmap_codec) !=
      compress::CodecKind::None) {
    acc.codec_raw_bytes +=
        st_tiles * static_cast<double>(head_if_elems * kValueBytes);
  }
  if (effective_codec(config, tail_plan.ofmap_codec) !=
      compress::CodecKind::None) {
    acc.codec_raw_bytes +=
        st_tiles * static_cast<double>(tail_out_elems * kValueBytes);
    acc.compress_engine_cycles +=
        st_tiles * static_cast<double>(codec_cycles(
                       config, effective_codec(config, tail_plan.ofmap_codec),
                       tail_out_elems * kValueBytes));
  }

  std::int64_t fused_footprint =
      w_total_coded + 2 * (head_if_coded + inter_bytes);
  if (effective_codec(config, tail_plan.ofmap_codec) !=
      compress::CodecKind::None) {
    fused_footprint += 2 * tail_out_coded;
  }
  acc.footprint = std::max(acc.footprint, fused_footprint);
}

}  // namespace

CostEstimate estimate_group_cost(const nn::Network& net,
                                 const NetworkPlan& plan,
                                 const NetworkPlan::Group& group,
                                 const fabric::FabricConfig& config,
                                 const std::vector<LayerStreamStats>& stats,
                                 const model::TechParams& tech, Index batch) {
  MOCHA_CHECK(batch >= 1, "batch=" << batch);
  const sim::DramModel dram(config);
  Accumulator acc;
  if (group.size() == 1) {
    accumulate_single_layer(net, plan, group.first, config, stats, dram,
                            batch, acc);
  } else {
    accumulate_fused(net, plan, group, config, stats, dram, batch, acc);
  }

  const int codec_units = std::max(1, config.codec_units);
  const double codec_cycles_total =
      acc.compress_engine_cycles / static_cast<double>(codec_units);
  const double dram_cycles_total =
      acc.dram_cycles / static_cast<double>(std::max(1, config.dma_channels));

  CostEstimate est;
  // Pipelined bound: the slowest of the three engines sets the pace; the
  // constant covers pipeline fill (first load) and drain (last store).
  est.cycles = std::max({dram_cycles_total, acc.compute_cycles,
                         codec_cycles_total}) +
               512.0;
  est.counts = acc.counts;
  est.counts.codec_bytes = static_cast<std::int64_t>(acc.codec_raw_bytes);
  est.counts.cycles = static_cast<std::int64_t>(est.cycles);
  // Scratchpad<->PE traffic rides the row buses to the consuming groups.
  est.counts.noc_byte_hops = static_cast<std::int64_t>(
      static_cast<double>(est.counts.sram_read_bytes +
                          est.counts.sram_write_bytes) *
      fabric::mean_operand_hops(config,
                                plan.layers[group.first].total_groups()));
  est.dram_bytes =
      acc.counts.dram_read_bytes + acc.counts.dram_write_bytes;
  est.footprint_bytes = acc.footprint;

  const model::EnergyModel energy(tech, config);
  est.energy_pj = energy.energy(est.counts).total_pj();
  return est;
}

}  // namespace mocha::dataflow
