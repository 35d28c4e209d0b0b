// Dispatched primitives for the codec hot loops, behind the same runtime
// ISA switch as the nn microkernels (util/cpuid.hpp).
//
// The codecs own all stream framing and token layout. The run scans only
// answer "how long is the zero / nonzero run starting here", and the
// bitmask pair packs and expands whole mask bytes in the one layout
// BitmaskCodec defines, so an ISA variant can never change a coded byte.
// The per-ISA equivalence suite in tests/compress/isa_equivalence_test.cpp
// enforces this.
//
// ISA translation units must stay intrinsics-only (no STL, no MOCHA_CHECK);
// see nn/kernels_ops.hpp for the ODR rationale.
#pragma once

#include <cstddef>
#include <cstdint>

#include "nn/tensor.hpp"
#include "util/cpuid.hpp"

namespace mocha::compress {

struct CodecOps {
  util::KernelIsa isa;

  /// Length of the zero run starting at p, capped at n.
  std::size_t (*zero_run)(const nn::Value* p, std::size_t n);

  /// Length of the nonzero run starting at p, capped at n.
  std::size_t (*nonzero_run)(const nn::Value* p, std::size_t n);

  /// Bitmask-packs n values, n % 8 == 0: writes n/8 mask bytes (bit j of
  /// byte b set <=> values[8b+j] != 0) and the non-zeros, in order, as
  /// 16-bit little-endian words to `data`. Returns the words written.
  /// `data` must extend kBitmaskPackSlack bytes past the last word: vector
  /// variants store whole registers.
  std::size_t (*bitmask_pack)(const nn::Value* values, std::size_t n,
                              std::uint8_t* mask, std::uint8_t* data);

  /// Expands 8*mask_bytes values into `out` (0 where a mask bit is clear,
  /// the next word of `data` where it is set). Returns the payload bytes
  /// consumed. The caller has checked that data_len covers every set bit;
  /// no variant reads past data + data_len.
  std::size_t (*bitmask_unpack)(const std::uint8_t* mask,
                                std::size_t mask_bytes,
                                const std::uint8_t* data,
                                std::size_t data_len, nn::Value* out);
};

/// Bytes bitmask_pack may write past its last word.
inline constexpr std::size_t kBitmaskPackSlack = 16;

/// The always-present oracle variant.
const CodecOps& scalar_codec_ops();

#if MOCHA_KERNEL_AVX2
const CodecOps& avx2_codec_ops();  // simd_avx2.cpp, built with -mavx2
#endif
#if MOCHA_KERNEL_NEON
const CodecOps& neon_codec_ops();  // simd_neon.cpp (AArch64 baseline)
#endif

/// Ops for a specific ISA; MOCHA_CHECKs that it is runnable here.
const CodecOps& codec_ops_for(util::KernelIsa isa);

/// Ops for util::active_isa() — what the codec hot loops dispatch through.
const CodecOps& active_codec_ops();

/// 8-lane interleaved FNV-1a over bytes (the framed-stream checksum). Lane
/// j hashes bytes j, j+8, j+16, …; the lanes are folded FNV-style at the
/// end. Breaking the serial xor-multiply dependency chain into 8
/// independent chains lets the multiplies pipeline, which is the whole
/// speedup — the function is portable and ISA-independent, and any change
/// confined to a single byte still changes exactly one lane and therefore
/// the folded hash (every per-lane and fold step is a bijection of state).
std::uint32_t fnv1a_lanes(const std::uint8_t* p, std::size_t n);

}  // namespace mocha::compress
