// Calibration tests: the analytical size estimators the cost model uses
// must track the real codecs, or the morph controller would optimize for a
// fiction.
#include <gtest/gtest.h>

#include "compress/codec.hpp"
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

// gtest names each case after the raw bytes of its parameter, so the struct
// must have no padding: uninitialized padding would put stack garbage into
// the test names and change them from run to run. `zero` fills the slot the
// compiler would otherwise pad between `kind` and `sparsity`.
struct EstimateCase {
  EstimateCase(CodecKind k, double s, double tol)
      : kind(k), sparsity(s), tolerance(tol) {}
  CodecKind kind;
  std::int32_t zero = 0;
  double sparsity;
  double tolerance;  // relative error allowed vs the real codec
};
static_assert(sizeof(EstimateCase) ==
              sizeof(CodecKind) + sizeof(std::int32_t) + 2 * sizeof(double));

class EstimateAccuracy : public ::testing::TestWithParam<EstimateCase> {};

TEST_P(EstimateAccuracy, TracksRealCodec) {
  const auto& param = GetParam();
  const std::size_t n = 50000;
  const auto values = random_stream(n, param.sparsity, 99);
  const auto codec = make_codec(param.kind);
  const auto actual = static_cast<double>(codec->encode(values).size());
  const auto estimate = static_cast<double>(estimate_coded_bytes(
      param.kind, static_cast<std::int64_t>(n), param.sparsity));
  EXPECT_NEAR(estimate / actual, 1.0, param.tolerance)
      << codec_name(param.kind) << " sparsity " << param.sparsity
      << " actual " << actual << " estimate " << estimate;
}

INSTANTIATE_TEST_SUITE_P(
    Codecs, EstimateAccuracy,
    ::testing::Values(
        EstimateCase{CodecKind::None, 0.0, 0.001},
        EstimateCase{CodecKind::None, 0.8, 0.001},
        EstimateCase{CodecKind::Zrle, 0.0, 0.10},
        EstimateCase{CodecKind::Zrle, 0.3, 0.10},
        EstimateCase{CodecKind::Zrle, 0.6, 0.10},
        EstimateCase{CodecKind::Zrle, 0.9, 0.15},
        EstimateCase{CodecKind::Bitmask, 0.0, 0.05},
        EstimateCase{CodecKind::Bitmask, 0.5, 0.05},
        EstimateCase{CodecKind::Bitmask, 0.9, 0.05},
        // Entropy model: looser band, still must be in the right regime.
        EstimateCase{CodecKind::Huffman, 0.0, 0.25},
        EstimateCase{CodecKind::Huffman, 0.5, 0.25},
        EstimateCase{CodecKind::Huffman, 0.9, 0.30}),
    [](const ::testing::TestParamInfo<EstimateCase>& info) {
      return std::string(codec_name(info.param.kind)) + "_s" +
             std::to_string(static_cast<int>(info.param.sparsity * 100));
    });

TEST(Estimate, ZeroElementsCostNothing) {
  for (CodecKind kind : kAllCodecKinds) {
    EXPECT_EQ(estimate_coded_bytes(kind, 0, 0.5), 0) << codec_name(kind);
  }
}

TEST(Estimate, NoneIsExactlyRaw) {
  EXPECT_EQ(estimate_coded_bytes(CodecKind::None, 1000, 0.99), 2000);
}

TEST(Estimate, MonotoneInSparsityForSparseCodecs) {
  for (CodecKind kind : {CodecKind::Zrle, CodecKind::Bitmask}) {
    const std::int64_t lo = estimate_coded_bytes(kind, 100000, 0.8);
    const std::int64_t hi = estimate_coded_bytes(kind, 100000, 0.2);
    EXPECT_LT(lo, hi) << codec_name(kind);
  }
}

TEST(Estimate, InvalidArgumentsThrow) {
  EXPECT_THROW(estimate_coded_bytes(CodecKind::Zrle, -1, 0.5),
               util::CheckFailure);
  EXPECT_THROW(estimate_coded_bytes(CodecKind::Zrle, 10, 1.5),
               util::CheckFailure);
}

TEST(Estimate, CompressionRatioHelper) {
  EXPECT_DOUBLE_EQ(compression_ratio(100, 50), 2.0);
  EXPECT_DOUBLE_EQ(compression_ratio(100, 0), 1.0);  // degenerate guard
}

}  // namespace
}  // namespace mocha::compress
