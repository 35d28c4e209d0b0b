// AVX2 kernel primitives. This translation unit is compiled with -mavx2
// (per-file, see src/CMakeLists.txt) and must only be *called* after the
// runtime dispatch confirmed AVX2 — the rest of the binary stays portable.
//
// Bit-exactness argument, per primitive: products are of two int16-range
// values, so _mm256_mul_epi32 (int64 product of the low signed 32 bits)
// and _mm256_mullo_epi32 (int32 product, which fits) both give the true
// product, and accumulation is int64 lanes that cannot overflow, so any
// lane split + horizontal fold equals the scalar left-to-right sum.
// _mm256_madd_epi16 would be faster but sums pairs of products in int32,
// which overflows at full int16 range (two 2^30 products).
//
// Keep this file intrinsics-only: no STL, no MOCHA_CHECK. Any inline
// symbol shared with portable TUs could be resolved to this TU's AVX2
// codegen by the linker and crash pre-AVX2 hosts.
#include <immintrin.h>

#include "nn/kernels_ops.hpp"

namespace mocha::nn::kernels {

namespace {

/// Output positions one register block covers: 2 accumulators each, plus
/// the tap's two weight vectors and the broadcast input, fill 15 of the 16
/// ymm registers.
constexpr int kPositions = 6;

/// XB output positions x 8 maps. Each tap loads the 8 packed int32 weights
/// once; _mm256_mul_epi32 multiplies the low signed 32 bits of each 64-bit
/// lane, so `we` supplies maps 0, 2, 4, 6 and `we >> 32` maps 1, 3, 5, 7,
/// each against the input value broadcast to every lane: exact int64
/// products, added into int64 register accumulators.
template <int XB>
void conv_positions(Accum* acc, const std::int32_t* in, Index stride,
                    const Index* off, Index taps, const std::int32_t* w) {
  // The XB loops are fully unrolled so the accumulators live in registers.
  __m256i even[XB];
  __m256i odd[XB];
  const std::int32_t* p[XB];
#pragma GCC unroll 8
  for (int x = 0; x < XB; ++x) {
    even[x] = _mm256_setzero_si256();
    odd[x] = _mm256_setzero_si256();
    p[x] = in + x * stride;
  }
  for (Index t = 0; t < taps; ++t, w += 8) {
    const __m256i we = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w));
    const __m256i wo = _mm256_srli_epi64(we, 32);
    const Index o = off[t];
#pragma GCC unroll 8
    for (int x = 0; x < XB; ++x) {
      const __m256i v = _mm256_set1_epi32(p[x][o]);
      even[x] = _mm256_add_epi64(even[x], _mm256_mul_epi32(v, we));
      odd[x] = _mm256_add_epi64(odd[x], _mm256_mul_epi32(v, wo));
    }
  }
#pragma GCC unroll 8
  for (int x = 0; x < XB; ++x) {
    const __m256i m0145 = _mm256_unpacklo_epi64(even[x], odd[x]);
    const __m256i m2367 = _mm256_unpackhi_epi64(even[x], odd[x]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + x * 8),
                        _mm256_permute2x128_si256(m0145, m2367, 0x20));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + x * 8 + 4),
                        _mm256_permute2x128_si256(m0145, m2367, 0x31));
  }
}

void conv_block_avx2(Accum* acc, Index xspan, const std::int32_t* in,
                     Index stride, const Index* off, Index taps,
                     const std::int32_t* w) {
  Index x = 0;
  for (; x + kPositions <= xspan; x += kPositions) {
    conv_positions<kPositions>(acc + x * 8, in + x * stride, stride, off,
                               taps, w);
  }
  acc += x * 8;
  in += x * stride;
  switch (xspan - x) {
    case 5:
      return conv_positions<5>(acc, in, stride, off, taps, w);
    case 4:
      return conv_positions<4>(acc, in, stride, off, taps, w);
    case 3:
      return conv_positions<3>(acc, in, stride, off, taps, w);
    case 2:
      return conv_positions<2>(acc, in, stride, off, taps, w);
    case 1:
      return conv_positions<1>(acc, in, stride, off, taps, w);
    default:
      return;
  }
}

/// Folds 4 int64 lanes into one sum.
inline Accum hsum_epi64(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i s = _mm_add_epi64(lo, hi);
  return _mm_cvtsi128_si64(s) + _mm_extract_epi64(s, 1);
}

Accum fc_dot_dense_avx2(const Value* x, const Value* w, Index n) {
  __m256i acc = _mm256_setzero_si256();
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i xv = _mm256_cvtepi16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + i)));
    const __m256i wv = _mm256_cvtepi16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + i)));
    const __m256i prod = _mm256_mullo_epi32(xv, wv);
    acc = _mm256_add_epi64(
        acc, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(prod)));
    acc = _mm256_add_epi64(
        acc, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(prod, 1)));
  }
  Accum sum = hsum_epi64(acc);
  for (; i < n; ++i) {
    sum += static_cast<Accum>(x[i]) * static_cast<Accum>(w[i]);
  }
  return sum;
}

Accum fc_dot_sparse_avx2(const std::int32_t* idx, const std::int32_t* val,
                         Index nnz, const Value* w, Index fan_in) {
  // Each 32-bit gather lane reads w[idx] plus the 16 bits of w[idx + 1],
  // so a lane with idx == fan_in - 1 would read 2 bytes past the weight
  // row. Indices ascend: peel trailing entries into the scalar tail.
  Index vec_n = nnz;
  while (vec_n > 0 && idx[vec_n - 1] + 1 >= fan_in) --vec_n;

  __m256i acc = _mm256_setzero_si256();
  Index i = 0;
  for (; i + 8 <= vec_n; i += 8) {
    const __m256i vi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + i));
    const __m256i g = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(w), vi, 2);
    // Low 16 bits of each gathered dword hold w[idx]; sign-extend in lane.
    const __m256i wv =
        _mm256_srai_epi32(_mm256_slli_epi32(g, 16), 16);
    const __m256i vv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(val + i));
    const __m256i prod = _mm256_mullo_epi32(wv, vv);
    acc = _mm256_add_epi64(
        acc, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(prod)));
    acc = _mm256_add_epi64(
        acc, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(prod, 1)));
  }
  Accum sum = hsum_epi64(acc);
  for (; i < nnz; ++i) {
    sum += static_cast<Accum>(val[i]) * static_cast<Accum>(w[idx[i]]);
  }
  return sum;
}

}  // namespace

// The depthwise row pass runs the scalar oracle: no benchmark workload
// runs a depthwise layer to show a vector variant pays for itself.
const KernelOps& avx2_kernel_ops() {
  static const KernelOps ops = {
      util::KernelIsa::Avx2,         conv_block_avx2,
      scalar_kernel_ops().conv_row,  fc_dot_dense_avx2,
      fc_dot_sparse_avx2,
  };
  return ops;
}

}  // namespace mocha::nn::kernels
