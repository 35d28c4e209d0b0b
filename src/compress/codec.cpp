#include "compress/codec.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "compress/bitmask.hpp"
#include "compress/huffman.hpp"
#include "compress/simd.hpp"
#include "compress/zrle.hpp"

namespace mocha::compress {

namespace {

/// Pass-through codec: raw little-endian 16-bit words.
class NullCodec final : public Codec {
 public:
  CodecKind kind() const override { return CodecKind::None; }

  std::vector<std::uint8_t> encode(
      std::span<const nn::Value> values) const override {
    std::vector<std::uint8_t> out(values.size() * sizeof(nn::Value));
    if (!values.empty()) {
      std::memcpy(out.data(), values.data(), out.size());
    }
    return out;
  }

  std::vector<nn::Value> decode(std::span<const std::uint8_t> coded,
                                std::size_t count) const override {
    MOCHA_CHECK(coded.size() >= count * sizeof(nn::Value),
                "raw payload truncated");
    std::vector<nn::Value> out(count);
    if (count > 0) {
      std::memcpy(out.data(), coded.data(), count * sizeof(nn::Value));
    }
    return out;
  }
};

// ---- Framed streams (integrity envelope) ----

/// Little-endian field access into the 16-byte frame header:
///   [0..1]  magic "MC"        [2]     frame version (2)
///   [3]     codec kind        [4..7]  element count
///   [8..11] payload bytes     [12..15] checksum of the payload
///
/// Version 2 switched the checksum from serial FNV-1a to the 8-lane
/// interleaved fnv1a_lanes (compress/simd.hpp): same single-byte-flip
/// detection guarantee, ~4× faster because the multiplies pipeline.
/// Frames only ever live inside one process (tile spill + refetch), so the
/// bump costs nothing; v1 frames are rejected like any other version lie.
constexpr std::uint8_t kFrameMagic0 = 'M';
constexpr std::uint8_t kFrameMagic1 = 'C';
constexpr std::uint8_t kFrameVersion = 2;

std::uint32_t frame_checksum(std::span<const std::uint8_t> bytes) {
  return fnv1a_lanes(bytes.data(), bytes.size());
}

void put_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::optional<std::size_t> Codec::first_mismatch(
    std::span<const std::uint8_t> coded,
    std::span<const nn::Value> values) const {
  const std::vector<nn::Value> back = decode(coded, values.size());
  MOCHA_CHECK(back.size() == values.size(), "codec changed stream length");
  const auto diff =
      std::mismatch(values.begin(), values.end(), back.begin()).first;
  if (diff == values.end()) return std::nullopt;
  return static_cast<std::size_t>(diff - values.begin());
}

const char* codec_name(CodecKind kind) {
  switch (kind) {
    case CodecKind::None:
      return "none";
    case CodecKind::Zrle:
      return "zrle";
    case CodecKind::Bitmask:
      return "bitmask";
    case CodecKind::Huffman:
      return "huffman";
  }
  MOCHA_UNREACHABLE("bad CodecKind");
}

std::unique_ptr<Codec> make_codec(CodecKind kind) {
  switch (kind) {
    case CodecKind::None:
      return std::make_unique<NullCodec>();
    case CodecKind::Zrle:
      return std::make_unique<ZrleCodec>();
    case CodecKind::Bitmask:
      return std::make_unique<BitmaskCodec>();
    case CodecKind::Huffman:
      return std::make_unique<HuffmanCodec>();
  }
  MOCHA_UNREACHABLE("bad CodecKind");
}

std::vector<std::uint8_t> encode_framed(const Codec& codec,
                                        std::span<const nn::Value> values) {
  const std::vector<std::uint8_t> payload = codec.encode(values);
  MOCHA_CHECK(payload.size() <= 0xffffffffu, "payload too large to frame");
  MOCHA_CHECK(values.size() <= 0xffffffffu, "stream too long to frame");
  std::vector<std::uint8_t> framed(kFrameHeaderBytes + payload.size());
  framed[0] = kFrameMagic0;
  framed[1] = kFrameMagic1;
  framed[2] = kFrameVersion;
  framed[3] = static_cast<std::uint8_t>(codec.kind());
  put_u32(&framed[4], static_cast<std::uint32_t>(values.size()));
  put_u32(&framed[8], static_cast<std::uint32_t>(payload.size()));
  put_u32(&framed[12], frame_checksum(payload));
  if (!payload.empty()) {
    std::memcpy(framed.data() + kFrameHeaderBytes, payload.data(),
                payload.size());
  }
  return framed;
}

std::vector<nn::Value> decode_framed(const Codec& codec,
                                     std::span<const std::uint8_t> framed,
                                     std::size_t expected_count) {
  const auto fail = [](const std::string& why) {
    throw DecodeError("framed stream rejected: " + why);
  };
  if (framed.size() < kFrameHeaderBytes) fail("shorter than header");
  if (framed[0] != kFrameMagic0 || framed[1] != kFrameMagic1) {
    fail("bad magic");
  }
  if (framed[2] != kFrameVersion) fail("unknown frame version");
  if (framed[3] != static_cast<std::uint8_t>(codec.kind())) {
    fail("codec kind mismatch");
  }
  if (get_u32(&framed[4]) != expected_count) fail("element count mismatch");
  const std::uint32_t payload_len = get_u32(&framed[8]);
  if (payload_len != framed.size() - kFrameHeaderBytes) {
    fail("payload length mismatch");
  }
  const std::span<const std::uint8_t> payload =
      framed.subspan(kFrameHeaderBytes);
  if (get_u32(&framed[12]) != frame_checksum(payload)) {
    fail("checksum mismatch");
  }
  // The header passed, so any remaining failure is payload damage the
  // checksum cannot see (it can't happen for single-byte flips, but lies in
  // a forged frame can) — the inner decoders MOCHA_CHECK their invariants,
  // and here that means bad data, not a codebase bug.
  std::vector<nn::Value> out;
  try {
    out = codec.decode(payload, expected_count);
  } catch (const util::CheckFailure& e) {
    fail(std::string("payload malformed: ") + e.what());
  }
  if (out.size() != expected_count) fail("decoder returned wrong count");
  return out;
}

std::int64_t estimate_coded_bytes(CodecKind kind, std::int64_t elems,
                                  double sparsity) {
  MOCHA_CHECK(elems >= 0, "negative stream length");
  MOCHA_CHECK(sparsity >= 0.0 && sparsity <= 1.0, "sparsity=" << sparsity);
  if (elems == 0) return 0;
  const double n = static_cast<double>(elems);
  const double zeros = n * sparsity;
  const double nonzeros = n - zeros;

  double bits = 0.0;
  switch (kind) {
    case CodecKind::None:
      return elems * static_cast<std::int64_t>(sizeof(nn::Value));
    case CodecKind::Zrle: {
      // A maximal zero run starts at a zero whose predecessor is non-zero
      // (i.i.d. model): expected run count ≈ n·s·(1−s); long runs split at
      // 256, so at least ceil(zeros/256) tokens are emitted either way.
      const double runs =
          std::max(zeros / 256.0, n * sparsity * (1.0 - sparsity) + 1.0);
      bits = nonzeros * 17.0 + runs * 9.0;
      break;
    }
    case CodecKind::Bitmask:
      bits = n * 1.0 + nonzeros * 16.0;
      break;
    case CodecKind::Huffman: {
      // Entropy model: zero occurs w.p. s, non-zeros ~uniform over an
      // alphabet of ~kAlphabet magnitudes; plus the canonical table header.
      constexpr double kAlphabet = 192.0;
      double h = 0.0;
      if (sparsity > 0.0 && sparsity < 1.0) {
        h = -sparsity * std::log2(sparsity) +
            (1.0 - sparsity) * std::log2(kAlphabet / (1.0 - sparsity));
      } else if (sparsity == 0.0) {
        h = std::log2(kAlphabet);
      } else {
        h = 0.1;  // all-zero stream still pays ~1 bit per symbol region
      }
      const double header_bits =
          16.0 + std::min(n, kAlphabet + 1.0) * 22.0;  // 16b sym + 6b len
      bits = n * h + header_bits;
      break;
    }
  }
  return static_cast<std::int64_t>(std::ceil(bits / 8.0));
}

}  // namespace mocha::compress
