// Stream sizing and compute timing shared by the schedule builder and the
// analytical cost model. Both must agree on these quantities or the
// controller's predictions would diverge from what the simulator charges.
#pragma once

#include <algorithm>
#include <cstdint>

#include "compress/codec.hpp"
#include "fabric/config.hpp"
#include "nn/layer.hpp"
#include "util/units.hpp"

namespace mocha::dataflow {

using nn::Index;

/// Bytes of one raw stream value, and of one partial sum (32-bit
/// accumulators) held in the scratchpad across channel passes.
inline constexpr std::int64_t kValueBytes =
    static_cast<std::int64_t>(sizeof(nn::Value));
inline constexpr std::int64_t kPartialBytes = 4;

/// Sparsity statistics of one layer's streams (zero fractions). Either
/// assumed (nn::SparsityProfile) or measured from real tensors.
struct LayerStreamStats {
  double ifmap_sparsity = 0.0;
  double kernel_sparsity = 0.0;
  double ofmap_sparsity = 0.0;
};

/// Coded size of `elems` values at the given sparsity. Collapses to raw
/// bytes when the codec is None or the fabric has no compression hardware.
inline std::int64_t coded_stream_bytes(const fabric::FabricConfig& config,
                                       compress::CodecKind codec, Index elems,
                                       double sparsity) {
  if (!config.has_compression) codec = compress::CodecKind::None;
  return compress::estimate_coded_bytes(codec, elems, sparsity);
}

/// Effective codec for a stream on this fabric (None when no hardware).
inline compress::CodecKind effective_codec(const fabric::FabricConfig& config,
                                           compress::CodecKind codec) {
  return config.has_compression ? codec : compress::CodecKind::None;
}

/// Fraction of dense MACs actually executed once zero-skipping applies.
/// 1.0 when the fabric cannot skip or the ifmap stream is uncoded.
inline double effective_mac_fraction(const fabric::FabricConfig& config,
                                     compress::CodecKind ifmap_codec,
                                     double ifmap_sparsity) {
  if (!config.has_compression || !config.zero_skip_compute ||
      ifmap_codec == compress::CodecKind::None) {
    return 1.0;
  }
  return std::max(1.0 - ifmap_sparsity, config.zero_skip_floor);
}

/// Cycles a PE group of `pes` processing elements needs for a compute chunk
/// of `positions` output positions, each costing `macs_per_position` MACs.
/// Positions map one-per-PE per wavefront, so ragged chunks pay ceil waste.
/// When the ifmap stream is coded and the fabric supports it, zero
/// activations are skipped down to the configured floor.
inline std::uint64_t compute_chunk_cycles(const fabric::FabricConfig& config,
                                          Index positions,
                                          Index macs_per_position, int pes,
                                          double ifmap_sparsity,
                                          compress::CodecKind ifmap_codec) {
  MOCHA_CHECK(positions >= 0 && macs_per_position >= 0 && pes > 0,
              "bad compute chunk");
  if (positions == 0 || macs_per_position == 0) return 0;
  const Index wavefronts = util::ceil_div<Index>(positions, pes);
  const double cycles_per_position =
      static_cast<double>(macs_per_position) /
      static_cast<double>(config.macs_per_pe_per_cycle) *
      effective_mac_fraction(config, ifmap_codec, ifmap_sparsity);
  const double total = static_cast<double>(wavefronts) * cycles_per_position;
  return static_cast<std::uint64_t>(total) + 1;  // +1: pipeline drain
}

/// Cycles a codec engine needs to stream `raw_bytes` of decoded data.
/// ZRLE and bitmask datapaths process a full word group per cycle; a
/// canonical Huffman decoder resolves one symbol at a time, so it runs at
/// a quarter of the engine's streaming rate — which is why the controller
/// only picks Huffman where bandwidth, not decode rate, is the wall.
inline std::uint64_t codec_cycles(const fabric::FabricConfig& config,
                                  compress::CodecKind kind,
                                  std::int64_t raw_bytes) {
  MOCHA_CHECK(raw_bytes >= 0, "negative codec stream");
  if (raw_bytes == 0 || kind == compress::CodecKind::None) return 0;
  const int rate = kind == compress::CodecKind::Huffman
                       ? std::max(1, config.codec_bytes_per_cycle / 4)
                       : config.codec_bytes_per_cycle;
  return static_cast<std::uint64_t>(
      util::ceil_div<std::int64_t>(raw_bytes, rate));
}

}  // namespace mocha::dataflow
