// NEON codec scan primitives: 8-lane compare, narrowed to a nibble mask
// (vshrn) so a single ctz yields the first differing lane. AdvSIMD is
// baseline on AArch64 — no special flags, just arch-gated in CMake.
#include <arm_neon.h>

#include "compress/simd.hpp"

namespace mocha::compress {

namespace {

// vceqq_s16 yields all-ones per equal lane; vshrn_n_u16(·, 4) narrows each
// 16-bit lane to a 4-bit nibble, giving a 64-bit mask where a bit index
// divides by 4 into a lane index.

std::size_t zero_run_neon(const nn::Value* p, std::size_t n) {
  const int16x8_t zero = vdupq_n_s16(0);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const uint16x8_t eq = vceqq_s16(vld1q_s16(p + i), zero);
    const std::uint64_t m =
        vget_lane_u64(vreinterpret_u64_u8(vshrn_n_u16(eq, 4)), 0);
    if (m != ~std::uint64_t{0}) {
      return i + (static_cast<unsigned>(__builtin_ctzll(~m)) >> 2);
    }
  }
  while (i < n && p[i] == 0) ++i;
  return i;
}

std::size_t nonzero_run_neon(const nn::Value* p, std::size_t n) {
  const int16x8_t zero = vdupq_n_s16(0);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const uint16x8_t eq = vceqq_s16(vld1q_s16(p + i), zero);
    const std::uint64_t m =
        vget_lane_u64(vreinterpret_u64_u8(vshrn_n_u16(eq, 4)), 0);
    if (m != 0u) {
      return i + (static_cast<unsigned>(__builtin_ctzll(m)) >> 2);
    }
  }
  while (i < n && p[i] != 0) ++i;
  return i;
}

}  // namespace

// The bitmask pack/unpack pair runs the scalar oracle on NEON: with no
// AArch64 toolchain or CI to build and test a vector variant against it,
// a NEON pack/unpack is left for a follow-up.
const CodecOps& neon_codec_ops() {
  static const CodecOps ops = {
      util::KernelIsa::Neon,
      zero_run_neon,
      nonzero_run_neon,
      scalar_codec_ops().bitmask_pack,
      scalar_codec_ops().bitmask_unpack,
  };
  return ops;
}

}  // namespace mocha::compress
