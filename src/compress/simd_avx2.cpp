// AVX2 codec primitives: 16-lane compare + movemask run scans, and the
// bitmask pack/unpack as one pshufb per mask byte. Compiled with -mavx2
// (per-file); intrinsics-only, same ODR rules as nn/kernels_avx2.cpp. Run
// lengths are exact positions and mask bytes are the scalar ones, so the
// streams built on top are byte-identical to the scalar encoder's.
#include <immintrin.h>

#include "compress/simd.hpp"

namespace mocha::compress {

namespace {

// _mm256_cmpeq_epi16 yields all-ones per equal lane; movemask_epi8 turns
// that into 2 identical mask bits per 16-bit lane, so a bit index halves
// into a lane index.

std::size_t zero_run_avx2(const nn::Value* p, std::size_t n) {
  const __m256i zero = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    const unsigned mask = static_cast<unsigned>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi16(v, zero)));
    if (mask != 0xFFFFFFFFu) {
      return i + (static_cast<unsigned>(__builtin_ctz(~mask)) >> 1);
    }
  }
  while (i < n && p[i] == 0) ++i;
  return i;
}

std::size_t nonzero_run_avx2(const nn::Value* p, std::size_t n) {
  const __m256i zero = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    const unsigned mask = static_cast<unsigned>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi16(v, zero)));
    if (mask != 0u) {
      return i + (static_cast<unsigned>(__builtin_ctz(mask)) >> 1);
    }
  }
  while (i < n && p[i] != 0) ++i;
  return i;
}

// pshufb controls for the 8 16-bit lanes of one mask byte m, indexed by m.
// Compress moves the set lanes, in order, to the front (the bytes after
// them are don't-care and land in the pack slack). Expand moves the k-th
// payload word to the k-th set lane and zeroes clear lanes (a control byte
// with its top bit set makes pshufb write 0).
struct LaneShuffles {
  alignas(16) std::uint8_t ctrl[256][16];
};

constexpr LaneShuffles make_lane_shuffles(bool expand) {
  LaneShuffles t{};
  for (unsigned m = 0; m < 256; ++m) {
    for (unsigned b = 0; b < 16; ++b) t.ctrl[m][b] = 0x80;
    unsigned k = 0;
    for (unsigned lane = 0; lane < 8; ++lane) {
      if (((m >> lane) & 1u) == 0) continue;
      const unsigned to = expand ? lane : k;
      const unsigned from = expand ? k : lane;
      t.ctrl[m][2 * to] = static_cast<std::uint8_t>(2 * from);
      t.ctrl[m][2 * to + 1] = static_cast<std::uint8_t>(2 * from + 1);
      ++k;
    }
  }
  return t;
}

constexpr LaneShuffles kCompress = make_lane_shuffles(false);
constexpr LaneShuffles kExpand = make_lane_shuffles(true);

__m128i lane_shuffle(const LaneShuffles& table, unsigned m) {
  return _mm_load_si128(reinterpret_cast<const __m128i*>(table.ctrl[m]));
}

/// Appends the set lanes of v (mask byte m) at word `words` of data.
std::size_t compress_lanes(__m128i v, unsigned m, std::uint8_t* data,
                           std::size_t words) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(data + 2 * words),
                   _mm_shuffle_epi8(v, lane_shuffle(kCompress, m)));
  return words + static_cast<std::size_t>(__builtin_popcount(m));
}

std::size_t bitmask_pack_avx2(const nn::Value* values, std::size_t n,
                              std::uint8_t* mask, std::uint8_t* data) {
  std::size_t words = 0;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
    // packs_epi16 narrows within each 128-bit half, so movemask bits 0-7
    // hold lanes 0-7 and bits 16-23 hold lanes 8-15 (both set on zero).
    const __m256i eq = _mm256_cmpeq_epi16(v, _mm256_setzero_si256());
    const unsigned nonzero = ~static_cast<unsigned>(
        _mm256_movemask_epi8(_mm256_packs_epi16(eq, eq)));
    const unsigned lo = nonzero & 0xFFu;
    const unsigned hi = (nonzero >> 16) & 0xFFu;
    mask[i / 8] = static_cast<std::uint8_t>(lo);
    mask[i / 8 + 1] = static_cast<std::uint8_t>(hi);
    words = compress_lanes(_mm256_castsi256_si128(v), lo, data, words);
    words = compress_lanes(_mm256_extracti128_si256(v, 1), hi, data, words);
  }
  if (i < n) {  // n % 16 == 8: one 8-lane step
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(values + i));
    const __m128i eq = _mm_cmpeq_epi16(v, _mm_setzero_si128());
    const unsigned m = ~static_cast<unsigned>(
                           _mm_movemask_epi8(_mm_packs_epi16(eq, eq))) &
                       0xFFu;
    mask[i / 8] = static_cast<std::uint8_t>(m);
    words = compress_lanes(v, m, data, words);
  }
  return words;
}

std::size_t bitmask_unpack_avx2(const std::uint8_t* mask,
                                std::size_t mask_bytes,
                                const std::uint8_t* data,
                                std::size_t data_len, nn::Value* out) {
  std::size_t pos = 0;
  std::size_t b = 0;
  // One mask byte takes at most 16 payload bytes; load a whole register
  // only while 16 remain, so no load runs past the payload.
  for (; b < mask_bytes && data_len - pos >= 16; ++b) {
    const unsigned m = mask[b];
    const __m128i words =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + pos));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 8 * b),
                     _mm_shuffle_epi8(words, lane_shuffle(kExpand, m)));
    pos += 2 * static_cast<std::size_t>(__builtin_popcount(m));
  }
  return pos + scalar_codec_ops().bitmask_unpack(mask + b, mask_bytes - b,
                                                 data + pos, data_len - pos,
                                                 out + 8 * b);
}

constexpr CodecOps kAvx2Ops = {
    util::KernelIsa::Avx2,
    zero_run_avx2,
    nonzero_run_avx2,
    bitmask_pack_avx2,
    bitmask_unpack_avx2,
};

}  // namespace

const CodecOps& avx2_codec_ops() { return kAvx2Ops; }

}  // namespace mocha::compress
