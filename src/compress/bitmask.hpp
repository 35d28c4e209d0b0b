// Significance-map (bitmask) compression.
//
// Layout: ceil(N/8) mask bytes (bit i set => element i non-zero), followed by
// the non-zero values packed as 16-bit little-endian words. Metadata cost is
// a fixed 1 bit/element, so the scheme wins whenever sparsity > ~1/16 and
// its decoder is trivially parallel — the reason Cnvlutin-style accelerators
// used it for weight streams.
//
// The codec works in blocks of kBlockValues values: a block's mask bytes
// and its payload are contiguous slices of the stream, and a prefix sum
// over per-block non-zero counts places each payload. Streams of at least
// kParallelValues values run their blocks on the global thread pool
// (util/parallel.hpp); shorter streams, and calls from a pool worker, run
// the same blocks inline. The coded bytes are the same either way.
#pragma once

#include "compress/codec.hpp"

namespace mocha::compress {

class BitmaskCodec final : public Codec {
 public:
  /// Values per block (a multiple of 8, so blocks own whole mask bytes).
  /// A block's payload staging buffer (2 bytes per value) stays under
  /// glibc's default 128 KiB mmap threshold.
  static constexpr std::size_t kBlockValues = std::size_t{1} << 15;
  /// Shortest stream whose blocks run on the pool (8 blocks).
  static constexpr std::size_t kParallelValues = std::size_t{1} << 18;

  CodecKind kind() const override { return CodecKind::Bitmask; }

  std::vector<std::uint8_t> encode(
      std::span<const nn::Value> values) const override;

  std::vector<nn::Value> decode(std::span<const std::uint8_t> coded,
                                std::size_t count) const override;

  /// Expands one block at a time into a block-sized buffer and compares it,
  /// so verification never builds a decoded copy of the stream.
  std::optional<std::size_t> first_mismatch(
      std::span<const std::uint8_t> coded,
      std::span<const nn::Value> values) const override;

  /// Exact coded size for a stream with `nonzeros` non-zero elements.
  static std::int64_t exact_coded_bytes(std::int64_t elems,
                                        std::int64_t nonzeros) {
    return (elems + 7) / 8 + 2 * nonzeros;
  }
};

}  // namespace mocha::compress
