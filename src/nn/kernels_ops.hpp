// The inner-loop primitives a kernel ISA variant provides — the interface
// behind the runtime CPU dispatch (util/cpuid.hpp).
//
// kernels.cpp owns all geometry (the zero-haloed input copy, weight
// packing, map blocks, zero-skip flags, requantization) and calls these
// primitives on raw pointers into buffers it has already bounds-checked;
// each entry is a straight-line loop an ISA file (kernels_avx2.cpp,
// kernels_neon.cpp) can implement with intrinsics. Every variant MUST be
// bit-identical to the scalar one: Accum is int64, every product is of two
// int16-range values (|product| ≤ 2^30) and no region sums anywhere near
// 2^33 terms, so integer summation is exact under any reassociation — a
// vector variant that widens, blocks, or reorders lanes still produces the
// same bits. The per-ISA oracle sweeps in tests/nn/kernels_test.cpp enforce
// this.
//
// ISA translation units must stay intrinsics-only (no STL, no MOCHA_CHECK):
// they are compiled with wider ISA flags than the rest of the tree, and any
// inline/template symbol they share with portable TUs could be chosen by
// the linker, leaking illegal instructions into the portable binary.
#pragma once

#include <cstdint>

#include "nn/tensor.hpp"
#include "util/cpuid.hpp"

namespace mocha::nn::kernels {

struct KernelOps {
  util::KernelIsa isa;

  /// Conv row block: `xspan` output positions of one output row x the 8
  /// maps of one packed weight block,
  ///   acc[x * 8 + j] = Σ_{t < taps} in[off[t] + x * stride] · w[t * 8 + j]
  /// for x in [0, xspan), j in [0, 8) (acc is overwritten). `in` is the
  /// zero-haloed int32 input copy at the row's first receptive field, `off`
  /// each (c, ky, kx) tap's offset into it, `w` the block's packed int32
  /// lanes; `in` and `w` hold int16-range values.
  void (*conv_block)(Accum* acc, Index xspan, const std::int32_t* in,
                     Index stride, const Index* off, Index taps,
                     const std::int32_t* w);

  /// Depthwise row pass over one halo row:
  ///   acc[x] += Σ_kx in_row[x * stride + kx] · w[kx]
  /// for x in [0, xspan), skipping zero weights. `in_row` must be readable
  /// over [0, (xspan - 1) * stride + kernel).
  void (*conv_row)(Accum* acc, Index xspan, const std::int32_t* in_row,
                   const Value* w, Index kernel, Index stride);

  /// Dense FC kernel: Σ_i x[i] · w[i] over n contiguous values.
  Accum (*fc_dot_dense)(const Value* x, const Value* w, Index n);

  /// FC nonzero-gather kernel: Σ_i val[i] · w[idx[i]] over an ascending
  /// nonzero (index, value) list. `fan_in` bounds the weight row so a
  /// vector gather can guard its trailing over-read.
  Accum (*fc_dot_sparse)(const std::int32_t* idx, const std::int32_t* val,
                         Index nnz, const Value* w, Index fan_in);
};

/// The always-present oracle variant.
const KernelOps& scalar_kernel_ops();

#if MOCHA_KERNEL_AVX2
const KernelOps& avx2_kernel_ops();  // kernels_avx2.cpp, built with -mavx2
#endif
#if MOCHA_KERNEL_NEON
const KernelOps& neon_kernel_ops();  // kernels_neon.cpp (AArch64 baseline)
#endif

/// Ops for a specific ISA; MOCHA_CHECKs that it is runnable here.
const KernelOps& kernel_ops_for(util::KernelIsa isa);

/// Ops for util::active_isa() — what the compute kernels dispatch through.
const KernelOps& active_kernel_ops();

}  // namespace mocha::nn::kernels
