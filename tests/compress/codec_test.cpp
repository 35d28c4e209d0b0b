#include "compress/codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "compress/bitmask.hpp"
#include "compress/huffman.hpp"
#include "compress/simd.hpp"
#include "nn/generate.hpp"
#include "util/rng.hpp"

namespace mocha::compress {
namespace {

using nn::Value;

std::vector<Value> random_stream(std::size_t n, double sparsity,
                                 std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Value> out(n);
  for (Value& v : out) {
    if (rng.bernoulli(sparsity)) {
      v = 0;
    } else {
      v = static_cast<Value>(rng.uniform_int(-96, 96));
      if (v == 0) v = 1;
    }
  }
  return out;
}

// ---- Parameterized round-trip property over (codec, sparsity, length) ----

// No padding, so the case's ctest name (built from its raw bytes) holds no
// stack garbage; `zero` fills the slot between `kind` and `sparsity`.
struct RoundTripCase {
  RoundTripCase(CodecKind k, double s, std::size_t n)
      : kind(k), sparsity(s), length(n) {}
  CodecKind kind;
  std::int32_t zero = 0;
  double sparsity;
  std::size_t length;
};
static_assert(sizeof(RoundTripCase) == sizeof(CodecKind) +
                                           sizeof(std::int32_t) +
                                           sizeof(double) +
                                           sizeof(std::size_t));

class CodecRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(CodecRoundTrip, EncodeDecodeIsIdentity) {
  const RoundTripCase& param = GetParam();
  const auto codec = make_codec(param.kind);
  const std::vector<Value> values =
      random_stream(param.length, param.sparsity, 1234 + param.length);
  const auto coded = codec->encode(values);
  const auto back = codec->decode(coded, values.size());
  EXPECT_EQ(back, values);
}

std::vector<RoundTripCase> round_trip_cases() {
  std::vector<RoundTripCase> cases;
  for (CodecKind kind : kAllCodecKinds) {
    for (double sparsity : {0.0, 0.1, 0.5, 0.9, 1.0}) {
      for (std::size_t length : {std::size_t{1}, std::size_t{7},
                                 std::size_t{256}, std::size_t{10000}}) {
        cases.push_back({kind, sparsity, length});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, CodecRoundTrip, ::testing::ValuesIn(round_trip_cases()),
    [](const ::testing::TestParamInfo<RoundTripCase>& info) {
      return std::string(codec_name(info.param.kind)) + "_s" +
             std::to_string(static_cast<int>(info.param.sparsity * 100)) +
             "_n" + std::to_string(info.param.length);
    });

// ---- Codec-specific behaviour ----

TEST(NullCodec, SizeIsExactlyRaw) {
  const auto codec = make_codec(CodecKind::None);
  const auto values = random_stream(100, 0.5, 1);
  EXPECT_EQ(codec->encode(values).size(), 200u);
}

TEST(ZrleCodec, AllZerosCompressMassively) {
  const auto codec = make_codec(CodecKind::Zrle);
  const std::vector<Value> zeros(10000, 0);
  const auto coded = codec->encode(zeros);
  // 10000 zeros = 40 runs of 256 => ~45 bytes.
  EXPECT_LT(coded.size(), 64u);
  EXPECT_EQ(codec->decode(coded, zeros.size()), zeros);
}

TEST(ZrleCodec, DenseStreamsExpandOnlySlightly) {
  const auto codec = make_codec(CodecKind::Zrle);
  const auto values = random_stream(1000, 0.0, 2);
  // 17 bits per literal vs 16 raw: <= 7% expansion.
  EXPECT_LE(codec->encode(values).size(), 1000u * 2 * 17 / 16 + 8);
}

TEST(ZrleCodec, ExactRunBoundaries) {
  const auto codec = make_codec(CodecKind::Zrle);
  for (std::size_t run : {255u, 256u, 257u, 512u}) {
    std::vector<Value> values(run, 0);
    values.push_back(42);
    const auto coded = codec->encode(values);
    EXPECT_EQ(codec->decode(coded, values.size()), values) << "run " << run;
  }
}

TEST(ZrleCodec, NegativeValuesSurvive) {
  const auto codec = make_codec(CodecKind::Zrle);
  const std::vector<Value> values = {-32768, -1, 0, 1, 32767};
  EXPECT_EQ(codec->decode(codec->encode(values), values.size()), values);
}

TEST(BitmaskCodec, SizeFormulaExact) {
  const auto values = random_stream(1000, 0.7, 3);
  std::int64_t nonzeros = 0;
  for (Value v : values) nonzeros += v != 0;
  const auto codec = make_codec(CodecKind::Bitmask);
  EXPECT_EQ(static_cast<std::int64_t>(codec->encode(values).size()),
            BitmaskCodec::exact_coded_bytes(
                static_cast<std::int64_t>(values.size()), nonzeros));
}

TEST(BitmaskCodec, TruncatedPayloadThrows) {
  const auto codec = make_codec(CodecKind::Bitmask);
  const std::vector<Value> values = {1, 2, 3, 4};
  auto coded = codec->encode(values);
  coded.pop_back();
  EXPECT_THROW(codec->decode(coded, values.size()), util::CheckFailure);
}

void expect_decode_check(const Codec& codec,
                         const std::vector<std::uint8_t>& coded,
                         std::size_t count, const std::string& message) {
  try {
    (void)codec.decode(coded, count);
    ADD_FAILURE() << "decode of " << coded.size() << " bytes, count " << count
                  << " did not throw " << message;
  } catch (const util::CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
        << e.what();
  }
}

// Pins the Bitmask wire format to bytes recorded from the per-element
// reference encoder, plus the decoder's edge contract. CodecIsaEquivalence
// holds every ISA to the scalar oracle, so only this test notices a change
// to the oracle itself.
TEST(BitmaskCodec, WireFormatAndEdgesPinned) {
  const auto codec = make_codec(CodecKind::Bitmask);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 40; ++n) lengths.push_back(n);
  for (std::size_t n = 4095; n <= 4105; ++n) lengths.push_back(n);
  for (std::size_t k : {6u, 64u, 511u, 1024u}) lengths.push_back(8 * k);

  util::Rng rng(2024);
  const auto nonzero = [&rng] {
    const auto v = static_cast<Value>(rng.uniform_int(-32768, 32767));
    return v != 0 ? v : Value{1};
  };
  std::vector<std::uint8_t> all_coded;
  for (std::size_t n : lengths) {
    // All zero, all non-zero, the int16 extremes, and 80 % dense like the
    // FC weights.
    std::vector<std::vector<Value>> streams(4, std::vector<Value>(n, 0));
    for (std::size_t i = 0; i < n; ++i) {
      streams[1][i] = nonzero();
      streams[2][i] = i % 3 == 0   ? Value{INT16_MIN}
                      : i % 3 == 1 ? Value{INT16_MAX}
                                   : Value{0};
      streams[3][i] = rng.bernoulli(0.2) ? Value{0} : nonzero();
    }
    for (const auto& stream : streams) {
      const auto coded = codec->encode(stream);
      const auto nonzeros = static_cast<std::int64_t>(
          n - static_cast<std::size_t>(
                  std::count(stream.begin(), stream.end(), Value{0})));
      EXPECT_EQ(static_cast<std::int64_t>(coded.size()),
                BitmaskCodec::exact_coded_bytes(
                    static_cast<std::int64_t>(n), nonzeros))
          << n;
      EXPECT_EQ(codec->decode(coded, n), stream) << n;
      all_coded.insert(all_coded.end(), coded.begin(), coded.end());
    }
  }
  EXPECT_EQ(all_coded.size(), 319354u);
  EXPECT_EQ(fnv1a_lanes(all_coded.data(), all_coded.size()), 1420814209u);

  // 13 values: one full mask byte and a 5-bit tail byte.
  const std::vector<Value> values = {0, 5, 0, -7, 9, 0, 0, 1,
                                     2, 0, 0, 3, INT16_MIN};
  const auto coded = codec->encode(values);
  auto stray = coded;
  stray[1] |= 0xE0;  // bits 13–15 lie past `count`
  EXPECT_EQ(codec->decode(stray, values.size()), values);
  auto padded = coded;
  padded.insert(padded.end(), {0xAB, 0xCD, 0xEF});
  EXPECT_EQ(codec->decode(padded, values.size()), values);
  expect_decode_check(*codec, {coded.begin(), coded.end() - 1}, values.size(),
                      "bitmask payload truncated (data)");
  expect_decode_check(*codec, {coded.begin(), coded.begin() + 1},
                      values.size(), "bitmask payload truncated (mask)");
  for (std::size_t n : {1u, 8u, 16u, 17u, 40u, 4104u, 4111u}) {
    const std::vector<Value> dense(n, Value{-3});
    const auto full = codec->encode(dense);
    expect_decode_check(*codec, {full.begin(), full.end() - 1}, n,
                        "bitmask payload truncated (data)");
  }
}

TEST(HuffmanCodec, SkewedDistributionBeatsRaw) {
  // 95% zeros, a handful of distinct non-zeros: entropy far below 16 bits.
  const auto values = random_stream(20000, 0.95, 4);
  const auto codec = make_codec(CodecKind::Huffman);
  const auto coded = codec->encode(values);
  EXPECT_LT(coded.size(), values.size() * 2 / 4);  // >4x compression
}

TEST(HuffmanCodec, SingleSymbolStream) {
  const std::vector<Value> values(100, 7);
  const auto codec = make_codec(CodecKind::Huffman);
  const auto coded = codec->encode(values);
  EXPECT_EQ(codec->decode(coded, values.size()), values);
  // Header + 100 single-bit codes: well under the 200-byte raw size.
  EXPECT_LT(coded.size(), 32u);
}

TEST(HuffmanCodec, CodeLengthsSatisfyKraft) {
  // Kraft: sum 2^-len <= 1 for any prefix code; Huffman achieves equality.
  const std::vector<std::uint64_t> freqs = {1, 1, 2, 4, 8, 16, 32};
  const auto lengths = HuffmanCodec::code_lengths(freqs);
  double kraft = 0;
  for (int len : lengths) kraft += std::pow(2.0, -len);
  EXPECT_NEAR(kraft, 1.0, 1e-12);
}

TEST(HuffmanCodec, CodeLengthsOrderedByFrequency) {
  const std::vector<std::uint64_t> freqs = {100, 1, 50};
  const auto lengths = HuffmanCodec::code_lengths(freqs);
  EXPECT_LE(lengths[0], lengths[2]);
  EXPECT_LE(lengths[2], lengths[1]);
}

TEST(HuffmanCodec, WithinOneBitOfEntropy) {
  // Shannon: H <= E[len] < H + 1 for Huffman codes.
  const std::vector<std::uint64_t> freqs = {5, 9, 12, 13, 16, 45};
  const auto lengths = HuffmanCodec::code_lengths(freqs);
  const double total = 100.0;
  double entropy = 0, expected_len = 0;
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    const double p = static_cast<double>(freqs[i]) / total;
    entropy -= p * std::log2(p);
    expected_len += p * lengths[i];
  }
  EXPECT_GE(expected_len, entropy - 1e-9);
  EXPECT_LT(expected_len, entropy + 1.0);
}

TEST(Codec, EmptyStreamRoundTrips) {
  for (CodecKind kind : kAllCodecKinds) {
    const auto codec = make_codec(kind);
    const std::vector<Value> empty;
    const auto coded = codec->encode(empty);
    EXPECT_TRUE(codec->decode(coded, 0).empty()) << codec_name(kind);
  }
}

TEST(Codec, NamesAreDistinct) {
  EXPECT_STREQ(codec_name(CodecKind::None), "none");
  EXPECT_STREQ(codec_name(CodecKind::Zrle), "zrle");
  EXPECT_STREQ(codec_name(CodecKind::Bitmask), "bitmask");
  EXPECT_STREQ(codec_name(CodecKind::Huffman), "huffman");
}

TEST(Codec, FactoryReturnsMatchingKind) {
  for (CodecKind kind : kAllCodecKinds) {
    EXPECT_EQ(make_codec(kind)->kind(), kind);
  }
}

}  // namespace
}  // namespace mocha::compress
