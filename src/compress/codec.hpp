// Feature-map / kernel compression codecs.
//
// MOCHA's differentiator (i) is the ability to compress inputs and kernels
// on the DRAM<->scratchpad path. These codecs are bit-exact and round-trip
// tested: functional mode really encodes and decodes the streams, and
// performance mode uses either the measured coded size or the analytical
// estimators below.
//
// The three schemes cover the design space the 2016/17 accelerators used:
//  * Zrle    — zero run-length encoding (run-length of zeros + literal
//              non-zeros), cheap decoder, good on sparse activations.
//  * Bitmask — significance map (1 bit/element) + packed non-zeros,
//              fixed-rate metadata, the scheme of Cnvlutin/Cambricon-X.
//  * Huffman — canonical Huffman over values, highest ratio, biggest
//              decoder; the scheme Deep Compression popularized for kernels.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/tensor.hpp"

namespace mocha::compress {

enum class CodecKind { None, Zrle, Bitmask, Huffman };

/// All kinds, for parameterized tests and sweeps.
inline constexpr CodecKind kAllCodecKinds[] = {
    CodecKind::None, CodecKind::Zrle, CodecKind::Bitmask, CodecKind::Huffman};

const char* codec_name(CodecKind kind);

/// Byte-stream codec over 16-bit fixed-point values.
class Codec {
 public:
  virtual ~Codec() = default;

  virtual CodecKind kind() const = 0;
  std::string name() const { return codec_name(kind()); }

  /// Encodes `values` to a self-contained payload (the element count is NOT
  /// stored — transfers always know their logical length).
  virtual std::vector<std::uint8_t> encode(
      std::span<const nn::Value> values) const = 0;

  /// Decodes exactly `count` values from `coded`.
  virtual std::vector<nn::Value> decode(std::span<const std::uint8_t> coded,
                                        std::size_t count) const = 0;

  /// Verifies a round trip: nullopt when decode(coded, values.size())
  /// equals `values`, otherwise the first index where they differ. Throws
  /// the decoder's own CheckFailure on a malformed stream. This version
  /// decodes and compares; a codec may override it to verify without
  /// building the decoded copy.
  virtual std::optional<std::size_t> first_mismatch(
      std::span<const std::uint8_t> coded,
      std::span<const nn::Value> values) const;
};

/// Factory for all kinds (None returns a pass-through memcpy codec).
std::unique_ptr<Codec> make_codec(CodecKind kind);

/// Typed, recoverable error for a coded stream that fails its integrity
/// check (bad frame header, checksum mismatch, truncation) or whose payload
/// turns out malformed anyway. Distinct from util::CheckFailure on purpose:
/// a CheckFailure is a bug in this codebase, a DecodeError is damage in the
/// *data* — a deployment-path consumer (the executor's per-tile retry, a
/// DMA engine) recovers from the latter by re-fetching uncompressed.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// Framed stream: a 16-byte header (magic, codec kind, element count,
/// payload length, FNV-1a payload checksum) ahead of the codec payload.
/// This is the integrity envelope the deployment path uses — the raw
/// Codec::encode() payloads stay headerless for the size-measurement paths
/// whose byte counts calibrate the analytical estimators.
std::vector<std::uint8_t> encode_framed(const Codec& codec,
                                        std::span<const nn::Value> values);

/// Validates the frame (magic, kind, count, length, checksum) and decodes
/// exactly `expected_count` values. Throws DecodeError on any mismatch or
/// on a payload the inner decoder rejects; never crashes, reads out of
/// bounds, or returns silently-wrong data from a detectably-corrupt frame.
std::vector<nn::Value> decode_framed(const Codec& codec,
                                     std::span<const std::uint8_t> framed,
                                     std::size_t expected_count);

/// Size of the integrity header encode_framed() prepends.
inline constexpr std::size_t kFrameHeaderBytes = 16;

/// Analytical coded-size model used by the morph controller's cost model,
/// which must predict sizes *before* data exists. `sparsity` is the zero
/// fraction. Estimates are calibrated against the real codecs in tests
/// (within ~10% on i.i.d.-sparse streams).
std::int64_t estimate_coded_bytes(CodecKind kind, std::int64_t elems,
                                  double sparsity);

/// Compression ratio >= 1 means the codec shrinks the stream.
inline double compression_ratio(std::int64_t raw_bytes,
                                std::int64_t coded_bytes) {
  return coded_bytes > 0 ? static_cast<double>(raw_bytes) /
                               static_cast<double>(coded_bytes)
                         : 1.0;
}

}  // namespace mocha::compress
