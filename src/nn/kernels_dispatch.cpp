// Scalar kernel primitives (the bit-exactness oracle) and the ISA dispatch
// table. The vector variants live in kernels_avx2.cpp / kernels_neon.cpp,
// compiled with per-file ISA flags; this file stays portable.
#include "nn/kernels_ops.hpp"

#include "util/assert.hpp"

namespace mocha::nn::kernels {

namespace {

void conv_block_scalar(Accum* acc, Index xspan, const std::int32_t* in,
                       Index stride, const Index* off, Index taps,
                       const std::int32_t* w) {
  for (Index x = 0; x < xspan; ++x) {
    Accum* a = acc + x * 8;
    for (Index j = 0; j < 8; ++j) a[j] = 0;
    const std::int32_t* p = in + x * stride;
    for (Index t = 0; t < taps; ++t) {
      const Accum v = p[off[t]];
      for (Index j = 0; j < 8; ++j) a[j] += v * w[t * 8 + j];
    }
  }
}

void conv_row_scalar(Accum* acc, Index xspan, const std::int32_t* in_row,
                     const Value* w, Index kernel, Index stride) {
  for (Index kx = 0; kx < kernel; ++kx) {
    const Accum wv = w[kx];
    if (wv == 0) continue;
    const std::int32_t* p = in_row + kx;
    for (Index x = 0; x < xspan; ++x) {
      acc[x] += static_cast<Accum>(p[x * stride]) * wv;
    }
  }
}

Accum fc_dot_dense_scalar(const Value* x, const Value* w, Index n) {
  Accum acc = 0;
  for (Index i = 0; i < n; ++i) {
    acc += static_cast<Accum>(x[i]) * static_cast<Accum>(w[i]);
  }
  return acc;
}

Accum fc_dot_sparse_scalar(const std::int32_t* idx, const std::int32_t* val,
                           Index nnz, const Value* w, Index /*fan_in*/) {
  Accum acc = 0;
  for (Index i = 0; i < nnz; ++i) {
    acc += static_cast<Accum>(val[i]) * static_cast<Accum>(w[idx[i]]);
  }
  return acc;
}

constexpr KernelOps kScalarOps = {
    util::KernelIsa::Scalar, conv_block_scalar,    conv_row_scalar,
    fc_dot_dense_scalar,     fc_dot_sparse_scalar,
};

}  // namespace

const KernelOps& scalar_kernel_ops() { return kScalarOps; }

const KernelOps& kernel_ops_for(util::KernelIsa isa) {
  MOCHA_CHECK(util::isa_supported(isa),
              "kernel ISA " << util::isa_name(isa)
                            << " not runnable on this host/build");
  switch (isa) {
    case util::KernelIsa::Scalar:
      return scalar_kernel_ops();
    case util::KernelIsa::Avx2:
#if MOCHA_KERNEL_AVX2
      return avx2_kernel_ops();
#else
      break;
#endif
    case util::KernelIsa::Neon:
#if MOCHA_KERNEL_NEON
      return neon_kernel_ops();
#else
      break;
#endif
  }
  MOCHA_UNREACHABLE("isa_supported admitted an uncompiled variant");
}

const KernelOps& active_kernel_ops() {
  return kernel_ops_for(util::active_isa());
}

}  // namespace mocha::nn::kernels
