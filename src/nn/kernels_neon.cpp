// NEON (AArch64 AdvSIMD) kernel primitives. AdvSIMD is architecturally
// baseline on AArch64, so this file needs no special flags — it is simply
// only added to the build on AArch64 targets (see src/CMakeLists.txt).
//
// Exactness mirrors the AVX2 variant: vmull_s16 produces the true int32
// product of int16 operands, and accumulation is int64 lanes folded at the
// end — bit-identical to the scalar oracle. Intrinsics-only, no STL.
#include <arm_neon.h>

#include "nn/kernels_ops.hpp"

namespace mocha::nn::kernels {

namespace {

Accum fc_dot_dense_neon(const Value* x, const Value* w, Index n) {
  int64x2_t acc = vdupq_n_s64(0);
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    const int16x8_t xv = vld1q_s16(x + i);
    const int16x8_t wv = vld1q_s16(w + i);
    const int32x4_t lo = vmull_s16(vget_low_s16(xv), vget_low_s16(wv));
    const int32x4_t hi = vmull_s16(vget_high_s16(xv), vget_high_s16(wv));
    acc = vpadalq_s32(acc, lo);
    acc = vpadalq_s32(acc, hi);
  }
  Accum sum = vgetq_lane_s64(acc, 0) + vgetq_lane_s64(acc, 1);
  for (; i < n; ++i) {
    sum += static_cast<Accum>(x[i]) * static_cast<Accum>(w[i]);
  }
  return sum;
}

Accum fc_dot_sparse_neon(const std::int32_t* idx, const std::int32_t* val,
                         Index nnz, const Value* w, Index /*fan_in*/) {
  // AdvSIMD has no gather; the scattered weight reads stay scalar but the
  // compacted (index, value) stream still skips every zero input.
  Accum acc = 0;
  for (Index i = 0; i < nnz; ++i) {
    acc += static_cast<Accum>(val[i]) * static_cast<Accum>(w[idx[i]]);
  }
  return acc;
}

}  // namespace

// The conv block and the depthwise row pass run the scalar oracle on NEON:
// there is no AArch64 toolchain or CI to build and test vector variants
// against it, and no benchmark workload runs a depthwise layer.
const KernelOps& neon_kernel_ops() {
  static const KernelOps ops = {
      util::KernelIsa::Neon,          scalar_kernel_ops().conv_block,
      scalar_kernel_ops().conv_row,   fc_dot_dense_neon,
      fc_dot_sparse_neon,
  };
  return ops;
}

}  // namespace mocha::nn::kernels
