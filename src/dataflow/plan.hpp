// Layer plans: the unit of morphing.
//
// A LayerPlan captures every knob the abstract names — the tile geometry
// (tiling), the fusion relation (layer merging), the parallelism split
// (intra/inter feature-map parallelism), and the codec per stream
// (compression). "Interleaving" is one plan combining several optimizations;
// "cascading" is consecutive plans chained through fusion groups and matched
// inter-layer codecs.
#pragma once

#include <string>
#include <vector>

#include "compress/codec.hpp"
#include "nn/network.hpp"

namespace mocha::dataflow {

using nn::Index;

/// Loop order of the channel/map passes around the spatial tile loop.
enum class LoopOrder {
  /// Weights resident per (map, channel) pass; ifmap tiles re-streamed once
  /// per output-map group. Wins when kernels are large relative to maps.
  WeightStationary,
  /// Ifmap tile resident; all output maps computed per tile; weights
  /// re-streamed per tile unless they fit resident. Wins when the ifmap
  /// dominates (early, large layers).
  InputStationary,
};

const char* loop_order_name(LoopOrder order);

/// Output-tile geometry. All values refer to the layer's *output*:
/// a (th x tw) spatial tile of tm maps, accumulated over tc input channels
/// per pass.
struct TileParams {
  Index th = 0;
  Index tw = 0;
  Index tc = 0;
  Index tm = 0;

  bool operator==(const TileParams&) const = default;
};

struct LayerPlan {
  TileParams tile;
  LoopOrder order = LoopOrder::WeightStationary;

  /// Parallelism split: inter_groups partitions output maps across PE
  /// groups, intra_groups partitions the spatial tile. Total PE groups =
  /// inter_groups * intra_groups.
  int inter_groups = 1;
  int intra_groups = 1;

  /// Input-stationary batch sub-tiling: how many batch images stay resident
  /// together per spatial tile (0 = the whole batch). Smaller sub-batches
  /// shrink the working set at the cost of re-streaming weights once per
  /// sub-batch. Ignored by weight-stationary/pool/fused schedules, which
  /// stream activations per image anyway.
  Index batch_tile = 0;

  /// Stream codecs. ifmap/kernel apply to DRAM->scratchpad loads (and the
  /// scratchpad-resident form); ofmap applies to the store path.
  compress::CodecKind ifmap_codec = compress::CodecKind::None;
  compress::CodecKind kernel_codec = compress::CodecKind::None;
  compress::CodecKind ofmap_codec = compress::CodecKind::None;

  /// Layer merging: when true, the *next* layer consumes this layer's
  /// output tiles directly from the scratchpad (no DRAM round trip). Within
  /// a fusion group every layer computes all its channels per tile
  /// (tc = in_c, tm = out_c for non-head members); the group's tile
  /// geometry is defined on the group tail's output.
  bool fuse_with_next = false;

  int total_groups() const { return inter_groups * intra_groups; }

  std::string summary() const;
};

/// The plan that takes `layer` whole: one tile over the full output map and
/// every channel, weight-stationary, one PE group, no codecs. Valid for any
/// layer.
LayerPlan whole_layer_plan(const nn::LayerSpec& layer);

/// One plan per layer, index-aligned with Network::layers.
struct NetworkPlan {
  std::vector<LayerPlan> layers;

  /// Fusion groups implied by fuse_with_next: each entry is the contiguous
  /// [first, last] layer-index range executed as one scheduled unit.
  struct Group {
    std::size_t first;
    std::size_t last;
    std::size_t size() const { return last - first + 1; }
  };
  std::vector<Group> fusion_groups() const;

  void validate(const nn::Network& net) const;
};

}  // namespace mocha::dataflow
