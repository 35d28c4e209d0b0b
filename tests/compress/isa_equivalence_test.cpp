// Per-ISA codec equivalence: every vectorized codec path must produce the
// SAME BYTES as the scalar oracle — not just a decodable stream. The billed
// compressed sizes, the planner's cost model, and the executor checksums
// all hang off exact coded lengths, so "equivalent modulo token layout"
// would still be a regression.
//
// Sweeps random and adversarial streams through every supported ISA (via
// the force_isa override) and asserts: identical coded bytes, exact round
// trips, identical framed envelopes (the fnv1a_lanes checksum is
// ISA-independent by construction), and cross-ISA decode (encode under one
// ISA, decode under another).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "compress/codec.hpp"
#include "compress/simd.hpp"
#include "util/cpuid.hpp"
#include "util/rng.hpp"

namespace mocha::compress {
namespace {

using nn::Value;

class WithIsa {
 public:
  explicit WithIsa(util::KernelIsa isa) { util::force_isa(isa); }
  ~WithIsa() { util::force_isa(util::best_supported_isa()); }
};

std::vector<Value> random_stream(std::size_t n, double sparsity,
                                 std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Value> out(n);
  for (Value& v : out) {
    if (rng.uniform() < sparsity) {
      v = 0;
    } else {
      v = static_cast<Value>(rng.uniform_int(-160, 160));
      if (v == 0) v = 7;
    }
  }
  return out;
}

/// Streams that aim at the vector-scan edges: run boundaries on and around
/// the 8/16-lane widths, the 256-element ZRLE run split, extreme values,
/// and degenerate all-zero / all-nonzero inputs. Lengths 24, 40, 4104 and
/// 4111 leave the 16-lane bitmask pack an 8-lane step (and 4111 a sub-8
/// tail); an all-nonzero stream whose length is a multiple of 8 ends with
/// a 16-byte unpack load that ends exactly at the payload's end.
std::vector<std::vector<Value>> adversarial_streams() {
  std::vector<std::vector<Value>> streams;
  for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 15u, 16u, 17u, 24u, 31u, 33u,
                        40u, 255u, 256u, 257u, 511u, 513u, 1000u, 4104u,
                        4111u}) {
    streams.emplace_back(n, Value{0});          // all zero (runs > 256)
    streams.emplace_back(n, Value{-32768});     // all nonzero, INT16_MIN
  }
  std::uint64_t seed = 101;
  for (std::size_t n : {24u, 40u, 4104u, 4111u}) {
    streams.push_back(random_stream(n, 0.0, seed++));  // all nonzero, mixed
  }
  {
    std::vector<Value> alt(300);
    for (std::size_t i = 0; i < alt.size(); ++i) {
      alt[i] = (i % 2 == 0) ? Value{0} : Value{32767};
    }
    streams.push_back(std::move(alt));
  }
  {
    // Zero runs of growing length separated by single extremes.
    std::vector<Value> ramps;
    for (std::size_t run = 1; run < 40; ++run) {
      ramps.insert(ramps.end(), run, Value{0});
      ramps.push_back(run % 2 == 0 ? Value{32767} : Value{-32768});
    }
    streams.push_back(std::move(ramps));
  }
  {
    // A 256-multiple zero run embedded mid-stream (the "run == 256 wraps
    // to payload 0" token edge).
    std::vector<Value> wrap;
    wrap.insert(wrap.end(), 3, Value{5});
    wrap.insert(wrap.end(), 512, Value{0});
    wrap.insert(wrap.end(), 3, Value{-5});
    streams.push_back(std::move(wrap));
  }
  return streams;
}

std::vector<std::vector<Value>> all_streams() {
  auto streams = adversarial_streams();
  std::uint64_t seed = 1;
  for (std::size_t n : {64u, 300u, 4096u}) {
    for (double sparsity : {0.0, 0.3, 0.7, 0.97}) {
      streams.push_back(random_stream(n, sparsity, seed++));
    }
  }
  return streams;
}

constexpr CodecKind kKinds[] = {CodecKind::Zrle, CodecKind::Bitmask,
                                CodecKind::Huffman};

TEST(CodecIsaEquivalence, CodedBytesMatchScalarOracle) {
  const auto streams = all_streams();
  // Scalar (oracle) encodings first, then every other ISA must match them
  // byte for byte and round-trip exactly.
  std::vector<std::vector<std::uint8_t>> oracle;
  {
    WithIsa forced(util::KernelIsa::Scalar);
    for (CodecKind kind : kKinds) {
      const auto codec = make_codec(kind);
      for (const auto& stream : streams) {
        oracle.push_back(codec->encode(stream));
      }
    }
  }
  for (util::KernelIsa isa : util::supported_isas()) {
    WithIsa forced(isa);
    std::size_t slot = 0;
    for (CodecKind kind : kKinds) {
      const auto codec = make_codec(kind);
      for (const auto& stream : streams) {
        const auto coded = codec->encode(stream);
        ASSERT_EQ(coded, oracle[slot])
            << codec_name(kind) << " under " << util::isa_name(isa)
            << " diverged from scalar on stream of " << stream.size();
        // encode() may return spare capacity past the payload; decoding an
        // exact-size copy lets ASan flag any load past the payload's end.
        const std::vector<std::uint8_t> exact(coded);
        EXPECT_EQ(codec->decode(exact, stream.size()), stream)
            << codec_name(kind) << " round trip under "
            << util::isa_name(isa);
        ++slot;
      }
    }
  }
}

TEST(CodecIsaEquivalence, FramedStreamsCrossDecodeBetweenIsas) {
  const auto streams = all_streams();
  const auto isas = util::supported_isas();
  for (CodecKind kind : kKinds) {
    const auto codec = make_codec(kind);
    for (std::size_t s = 0; s < streams.size(); ++s) {
      // Encode under one ISA, decode under another (round-robin pairing
      // keeps the test linear in #streams while covering all ISA pairs).
      const util::KernelIsa enc_isa = isas[s % isas.size()];
      const util::KernelIsa dec_isa = isas[(s + 1) % isas.size()];
      std::vector<std::uint8_t> framed;
      {
        WithIsa forced(enc_isa);
        framed = encode_framed(*codec, streams[s]);
      }
      WithIsa forced(dec_isa);
      EXPECT_EQ(decode_framed(*codec, framed, streams[s].size()), streams[s])
          << codec_name(kind) << " framed " << util::isa_name(enc_isa)
          << " -> " << util::isa_name(dec_isa);
    }
  }
}

TEST(CodecIsaEquivalence, RunScanPrimitivesMatchScalar) {
  const CodecOps& oracle = scalar_codec_ops();
  util::Rng rng(271828);
  std::vector<Value> buf(513);
  for (Value& v : buf) {
    v = rng.uniform() < 0.5 ? Value{0}
                            : static_cast<Value>(rng.uniform_int(1, 9));
  }
  for (util::KernelIsa isa : util::supported_isas()) {
    const CodecOps& ops = codec_ops_for(isa);
    // Every start offset x a few lengths: exercises all lane alignments
    // and the scalar tails.
    for (std::size_t start = 0; start < buf.size(); ++start) {
      for (std::size_t len :
           {std::size_t{0}, std::size_t{5}, std::size_t{17},
            buf.size() - start}) {
        const std::size_t n = std::min(len, buf.size() - start);
        ASSERT_EQ(ops.zero_run(buf.data() + start, n),
                  oracle.zero_run(buf.data() + start, n))
            << util::isa_name(isa) << " zero_run at " << start;
        ASSERT_EQ(ops.nonzero_run(buf.data() + start, n),
                  oracle.nonzero_run(buf.data() + start, n))
            << util::isa_name(isa) << " nonzero_run at " << start;
      }
    }
  }
}

TEST(CodecIsaEquivalence, BitmaskPrimitivesMatchScalar) {
  const CodecOps& oracle = scalar_codec_ops();
  for (util::KernelIsa isa : util::supported_isas()) {
    const CodecOps& ops = codec_ops_for(isa);
    std::uint64_t seed = 99;
    for (std::size_t n = 0; n <= 264; n += 8) {
      for (double sparsity : {0.0, 0.2, 0.5, 1.0}) {
        const auto values = random_stream(n, sparsity, seed++);
        const auto nonzeros = static_cast<std::size_t>(
            std::count_if(values.begin(), values.end(),
                          [](Value v) { return v != 0; }));
        // Exact-size buffers: under ASan, a store past the documented
        // slack or a load past the payload fails the test.
        std::vector<std::uint8_t> want_mask(n / 8);
        std::vector<std::uint8_t> got_mask(n / 8);
        std::vector<std::uint8_t> want_data(2 * nonzeros + kBitmaskPackSlack);
        std::vector<std::uint8_t> got_data(want_data.size());
        ASSERT_EQ(oracle.bitmask_pack(values.data(), n, want_mask.data(),
                                      want_data.data()),
                  nonzeros);
        ASSERT_EQ(ops.bitmask_pack(values.data(), n, got_mask.data(),
                                   got_data.data()),
                  nonzeros)
            << util::isa_name(isa) << " pack of " << n;
        ASSERT_EQ(got_mask, want_mask)
            << util::isa_name(isa) << " mask of " << n;
        ASSERT_TRUE(std::equal(want_data.begin(),
                               want_data.begin() + 2 * nonzeros,
                               got_data.begin()))
            << util::isa_name(isa) << " words of " << n;
        const std::vector<std::uint8_t> payload(
            want_data.begin(), want_data.begin() + 2 * nonzeros);
        std::vector<Value> back(n, Value{1});  // every lane must be written
        ASSERT_EQ(ops.bitmask_unpack(want_mask.data(), n / 8, payload.data(),
                                     payload.size(), back.data()),
                  payload.size())
            << util::isa_name(isa) << " unpack of " << n;
        ASSERT_EQ(back, values) << util::isa_name(isa) << " unpack of " << n;
      }
    }
  }
}

TEST(CodecIsaEquivalence, LaneFnvDetectsEverySingleByteChange) {
  // The framed checksum's whole job: any change confined to one byte flips
  // the hash. Exhaustive over positions for a small buffer.
  std::vector<std::uint8_t> bytes(64);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  const std::uint32_t base = fnv1a_lanes(bytes.data(), bytes.size());
  EXPECT_EQ(base, fnv1a_lanes(bytes.data(), bytes.size()));  // deterministic
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto damaged = bytes;
      damaged[i] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(fnv1a_lanes(damaged.data(), damaged.size()), base)
          << "byte " << i << " bit " << bit;
    }
  }
  // Length changes (truncation / extension) change the hash too.
  EXPECT_NE(fnv1a_lanes(bytes.data(), bytes.size() - 1), base);
}

}  // namespace
}  // namespace mocha::compress
