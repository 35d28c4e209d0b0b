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
#include "util/parallel.hpp"
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

/// Sets the global pool width for one scope and restores the previous one.
class PoolWidth {
 public:
  explicit PoolWidth(int lanes) : saved_(util::ThreadPool::global_threads()) {
    util::ThreadPool::set_global_threads(lanes);
  }
  ~PoolWidth() { util::ThreadPool::set_global_threads(saved_); }
  PoolWidth(const PoolWidth&) = delete;
  PoolWidth& operator=(const PoolWidth&) = delete;

 private:
  int saved_;
};

/// Folds one coded stream (its bytes and its length) into a running digest.
std::uint64_t fold_digest(std::uint64_t digest,
                          const std::vector<std::uint8_t>& coded) {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  digest = (digest ^ fnv1a_lanes(coded.data(), coded.size())) * kPrime;
  return (digest ^ coded.size()) * kPrime;
}

// Pins the Bitmask coded bytes of long streams, whose lengths straddle
// 32 Ki-value blocks and the 256 Ki-value stream length from which a
// stream's blocks may be coded on the thread pool: one below it, at it,
// one partial mask byte past it, and three blocks plus five values. Each
// length runs all-zero, all-non-zero and 20 %-sparse streams, plus one
// whose blocks cycle through those three kinds, at pool widths 1 and 4.
TEST(BitmaskCodec, LongStreamBytesAndEdgesPinned) {
  constexpr std::size_t kBlock = 32768;
  constexpr std::size_t kParallel = 262144;
  const std::vector<std::size_t> lengths = {kParallel - 1, kParallel,
                                            kParallel + 7, 3 * kBlock + 5};
  const auto codec = make_codec(CodecKind::Bitmask);
  for (int lanes : {1, 4}) {
    const PoolWidth width(lanes);
    util::Rng rng(77);
    const auto nonzero = [&rng] {
      const auto v = static_cast<Value>(rng.uniform_int(-32768, 32767));
      return v != 0 ? v : Value{1};
    };
    std::uint64_t digest = 14695981039346656037ull;
    for (std::size_t n : lengths) {
      std::vector<std::vector<Value>> streams(4, std::vector<Value>(n, 0));
      for (std::size_t i = 0; i < n; ++i) {
        streams[1][i] = nonzero();
        streams[2][i] = rng.bernoulli(0.2) ? Value{0} : nonzero();
        streams[3][i] = (i / kBlock) % 3 == 0   ? Value{0}
                        : (i / kBlock) % 3 == 1 ? streams[1][i]
                                                : streams[2][i];
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
        digest = fold_digest(digest, coded);
      }

      // Edge contract on the 20 %-sparse stream.
      const std::vector<Value>& sparse = streams[2];
      const auto coded = codec->encode(sparse);
      const std::size_t mask_bytes = (n + 7) / 8;
      if (n % 8 != 0) {
        auto stray = coded;
        stray[mask_bytes - 1] |= static_cast<std::uint8_t>(0xFFu << (n % 8));
        EXPECT_EQ(codec->decode(stray, n), sparse) << n;
      }
      auto padded = coded;
      padded.insert(padded.end(), {0xAB, 0xCD, 0xEF});
      EXPECT_EQ(codec->decode(padded, n), sparse) << n;
      expect_decode_check(*codec, {coded.begin(), coded.end() - 1}, n,
                          "bitmask payload truncated (data)");
      expect_decode_check(*codec,
                          {coded.begin(), coded.begin() + mask_bytes}, n,
                          "bitmask payload truncated (data)");
      expect_decode_check(*codec,
                          {coded.begin(), coded.begin() + mask_bytes - 1}, n,
                          "bitmask payload truncated (mask)");
    }
    EXPECT_EQ(digest, 12705102732238796958ull) << "pool width " << lanes;
  }
}

// Pins the Huffman coded bytes over a fixed seeded set of streams: empty,
// tiny, in-cache and 256 Ki-value lengths at several sparsities, plus a
// skewed alphabet wide enough to need codes past the decode table.
TEST(HuffmanCodec, CodedBytesPinned) {
  const auto codec = make_codec(CodecKind::Huffman);
  std::uint64_t digest = 14695981039346656037ull;
  std::size_t total = 0;
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                        std::size_t{1000}, std::size_t{65536},
                        std::size_t{262151}}) {
    for (double sparsity : {0.0, 0.5, 0.9, 1.0}) {
      const std::vector<Value> values =
          random_stream(n, sparsity, 31 * n + static_cast<std::size_t>(
                                                   sparsity * 100));
      const auto coded = codec->encode(values);
      EXPECT_EQ(codec->decode(coded, n), values) << n << " " << sparsity;
      digest = fold_digest(digest, coded);
      total += coded.size();
    }
  }
  util::Rng rng(5);
  std::vector<Value> skewed(50000);
  for (Value& v : skewed) {
    // Geometric-ish magnitudes over ~4 Ki symbols: long codes for the tail.
    const auto mag = static_cast<int>(rng.uniform_int(0, 4095) *
                                      rng.uniform() * rng.uniform());
    v = static_cast<Value>(rng.bernoulli(0.5) ? mag : -mag);
  }
  const auto coded = codec->encode(skewed);
  EXPECT_EQ(codec->decode(coded, skewed.size()), skewed);
  digest = fold_digest(digest, coded);
  total += coded.size();
  EXPECT_EQ(total, 715016u);
  EXPECT_EQ(digest, 12402394664821298028ull);
}

// The pinned long-stream lengths above straddle the codec's block size and
// its pool threshold.
static_assert(BitmaskCodec::kBlockValues == 32768);
static_assert(BitmaskCodec::kParallelValues == 262144);

// A 64-block stream runs several blocks per pool chunk at every width, so
// encode packs most blocks in place and lets their store slack spill into
// later blocks of the same chunk. The block kinds cycle through payloads
// shorter than that slack (none, one word, seven words) next to long ones,
// so some spills would cross a chunk boundary unless staged. The coded
// bytes must equal a per-element encoding of the wire format.
TEST(BitmaskCodec, BlockParallelEncodeMatchesPerElementFormat) {
  constexpr std::size_t kBlock = BitmaskCodec::kBlockValues;
  const std::size_t n = 64 * kBlock + 3;
  util::Rng rng(19);
  std::vector<Value> stream(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t at = i % kBlock;
    const auto v = static_cast<Value>(rng.uniform_int(1, 32767));
    switch ((i / kBlock) % 5) {
      case 0:  // all non-zero
        stream[i] = v;
        break;
      case 1:  // all zero
        break;
      case 2:  // one word, at the block's end
        stream[i] = at == kBlock - 1 ? v : Value{0};
        break;
      case 3:  // seven words
        stream[i] = at % 4096 == 0 && at > 0 ? v : Value{0};
        break;
      default:  // 20 % zeros
        stream[i] = rng.bernoulli(0.2) ? Value{0} : v;
    }
  }
  std::vector<std::uint8_t> want((n + 7) / 8, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (stream[i] == 0) continue;
    want[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
    const auto u = static_cast<std::uint16_t>(stream[i]);
    want.push_back(static_cast<std::uint8_t>(u));
    want.push_back(static_cast<std::uint8_t>(u >> 8));
  }
  const auto codec = make_codec(CodecKind::Bitmask);
  for (int lanes : {1, 2, 3, 4, 8}) {
    const PoolWidth width(lanes);
    const auto coded = codec->encode(stream);
    EXPECT_EQ(coded, want) << "pool width " << lanes;
    EXPECT_EQ(codec->first_mismatch(coded, stream), std::nullopt)
        << "pool width " << lanes;
  }
}

// ---- Codec::first_mismatch contract, for every codec ----

/// Lengths below and above the Bitmask pool threshold (neither a multiple
/// of 8, so the last block ends in a partial mask byte).
const std::size_t kMismatchLengths[] = {1003,
                                        BitmaskCodec::kParallelValues + 13};

TEST(CodecFirstMismatch, CleanRoundTripIsNullopt) {
  const PoolWidth width(4);
  for (CodecKind kind : kAllCodecKinds) {
    const auto codec = make_codec(kind);
    for (std::size_t n : kMismatchLengths) {
      const std::vector<Value> values = random_stream(n, 0.3, 17 + n);
      EXPECT_EQ(codec->first_mismatch(codec->encode(values), values),
                std::nullopt)
          << codec_name(kind) << " n=" << n;
    }
    EXPECT_EQ(codec->first_mismatch(codec->encode({}), {}), std::nullopt)
        << codec_name(kind);
  }
}

TEST(CodecFirstMismatch, ReportsSmallestDifferingIndex) {
  constexpr std::size_t kBlock = BitmaskCodec::kBlockValues;
  for (int lanes : {1, 4}) {
    const PoolWidth width(lanes);
    for (CodecKind kind : kAllCodecKinds) {
      const auto codec = make_codec(kind);
      for (std::size_t n : kMismatchLengths) {
        const std::vector<Value> values = random_stream(n, 0.3, 23 + n);
        const auto coded = codec->encode(values);
        // Differences in several blocks, latest first; each new one is
        // the smallest so far, and the last lies in the stream's tail.
        std::vector<std::size_t> at = {n - 1, n / 2 + 1};
        if (n > 3 * kBlock) at.insert(at.end(), {2 * kBlock + 9, kBlock - 1});
        at.push_back(5);
        std::vector<Value> changed = values;
        for (std::size_t i : at) {
          changed[i] = static_cast<Value>(changed[i] + 1);
          EXPECT_EQ(codec->first_mismatch(coded, changed), i)
              << codec_name(kind) << " n=" << n << " lanes=" << lanes;
        }
      }
    }
  }
}

/// Decoding `coded` and verifying it against `values` must fail alike.
void expect_same_failure(const Codec& codec,
                         const std::vector<std::uint8_t>& coded,
                         const std::vector<Value>& values) {
  std::string decode_error;
  try {
    (void)codec.decode(coded, values.size());
  } catch (const util::CheckFailure& e) {
    decode_error = e.what();
  }
  ASSERT_FALSE(decode_error.empty())
      << codec.name() << ": decode of " << coded.size() << " bytes passed";
  try {
    (void)codec.first_mismatch(coded, values);
    ADD_FAILURE() << codec.name() << ": first_mismatch did not throw "
                  << decode_error;
  } catch (const util::CheckFailure& e) {
    EXPECT_EQ(std::string(e.what()), decode_error) << codec.name();
  }
}

TEST(CodecFirstMismatch, TruncatedStreamThrowsDecodersFailure) {
  const PoolWidth width(4);
  for (CodecKind kind : kAllCodecKinds) {
    const auto codec = make_codec(kind);
    for (std::size_t n : kMismatchLengths) {
      const std::vector<Value> values = random_stream(n, 0.5, 29 + n);
      const auto coded = codec->encode(values);
      // Short payload, then a stream cut inside Bitmask's mask.
      expect_same_failure(*codec, {coded.begin(), coded.end() - 1}, values);
      expect_same_failure(*codec,
                          {coded.begin(), coded.begin() + (n + 7) / 8 - 1},
                          values);
    }
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
