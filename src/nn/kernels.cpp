#include "nn/kernels.hpp"

#include <algorithm>
#include <limits>

#include "nn/kernels_ops.hpp"
#include "obs/metrics.hpp"

namespace mocha::nn::kernels {

PaddedInput PaddedInput::full(const ValueTensor& t, Index full_h,
                              Index full_w) {
  MOCHA_CHECK(t.shape().n == 1, "padded input wants a [1,C,H,W] tensor");
  MOCHA_CHECK(t.shape().h == full_h && t.shape().w == full_w,
              "full view shape mismatch: " << t.shape().h << "x"
                                           << t.shape().w << " vs " << full_h
                                           << "x" << full_w);
  PaddedInput v;
  v.base = t.data();
  v.c_stride = t.shape().h * t.shape().w;
  v.row_stride = t.shape().w;
  v.view_h = t.shape().h;
  v.view_w = t.shape().w;
  v.full_h = full_h;
  v.full_w = full_w;
  return v;
}

PaddedInput PaddedInput::local(const ValueTensor& t, Index origin_y,
                               Index origin_x, Index full_h, Index full_w) {
  MOCHA_CHECK(t.shape().n == 1, "padded input wants a [1,C,H,W] tensor");
  PaddedInput v;
  v.base = t.data();
  v.c_stride = t.shape().h * t.shape().w;
  v.row_stride = t.shape().w;
  v.origin_y = origin_y;
  v.origin_x = origin_x;
  v.view_h = t.shape().h;
  v.view_w = t.shape().w;
  v.full_h = full_h;
  v.full_w = full_w;
  return v;
}

namespace {

/// Throws the fused-pyramid geometry CheckFailure unless rows [y_lo, y_hi)
/// x columns [x_lo, x_hi) of the logical map lie inside the buffer behind
/// `in`. Callers check each region's window once, then read raw pointers.
void check_in_buffer(const PaddedInput& in, Index y_lo, Index y_hi,
                     Index x_lo, Index x_hi) {
  MOCHA_CHECK(y_lo >= in.origin_y && y_hi <= in.origin_y + in.view_h &&
                  x_lo >= in.origin_x && x_hi <= in.origin_x + in.view_w,
              "fused pyramid geometry bug: window rows ["
                  << y_lo << "," << y_hi << ") cols [" << x_lo << "," << x_hi
                  << ") outside tile buffer at origin (" << in.origin_y << ","
                  << in.origin_x << ") size " << in.view_h << "x"
                  << in.view_w);
}

/// The zero-haloed int32 copy of the input window a conv or depthwise
/// region reads: channels [c_begin, c_end) x rows [y0, y0 + rows) x
/// columns [x0, x0 + cols) of the logical map, in map coordinates that may
/// run past its edges. Elements outside the map stay zero — that is the
/// padding — so the kernels read every tap of every output position
/// unconditionally; in-map elements must lie in the buffer (the fused-
/// pyramid check). int32 lanes let the conv block primitive broadcast an
/// input value straight from memory. The copy also flags each row holding
/// a nonzero value, for the depthwise row skip.
class Halo {
 public:
  Halo(const PaddedInput& in, Index c_begin, Index c_end, Index y0,
       Index rows, Index x0, Index cols)
      : rows_(rows),
        cols_(cols),
        data_(static_cast<std::size_t>((c_end - c_begin) * rows * cols), 0),
        nonzero_(static_cast<std::size_t>((c_end - c_begin) * rows), 0) {
    const Index y_lo = std::max<Index>(y0, 0);
    const Index y_hi = std::min(y0 + rows, in.full_h);
    const Index x_lo = std::max<Index>(x0, 0);
    const Index x_hi = std::min(x0 + cols, in.full_w);
    if (y_lo >= y_hi || x_lo >= x_hi) return;  // all padding
    check_in_buffer(in, y_lo, y_hi, x_lo, x_hi);
    for (Index c = 0; c < c_end - c_begin; ++c) {
      for (Index gy = y_lo; gy < y_hi; ++gy) {
        const Value* src = in.row_at(c_begin + c, gy) + (x_lo - in.origin_x);
        std::int32_t* dst = row_data(c, gy - y0) + (x_lo - x0);
        Value any = 0;
        for (Index x = 0; x < x_hi - x_lo; ++x) {
          dst[x] = src[x];
          any |= src[x];
        }
        nonzero_[static_cast<std::size_t>(c * rows_ + gy - y0)] = any != 0;
      }
    }
  }

  /// Row `r` (0-based in the window) of window channel `c`.
  const std::int32_t* row(Index c, Index r) const {
    return data_.data() + (c * rows_ + r) * cols_;
  }
  bool row_nonzero(Index c, Index r) const {
    return nonzero_[static_cast<std::size_t>(c * rows_ + r)] != 0;
  }
  Index c_stride() const { return rows_ * cols_; }
  Index row_stride() const { return cols_; }

 private:
  std::int32_t* row_data(Index c, Index r) {
    return data_.data() + (c * rows_ + r) * cols_;
  }

  Index rows_;
  Index cols_;
  std::vector<std::int32_t> data_;
  std::vector<std::uint8_t> nonzero_;
};

/// The halo window of output window (out_y, out_x) under `layer`'s
/// geometry, over channels [c_begin, c_end).
Halo halo_for(const LayerSpec& layer, const PaddedInput& in, Span out_y,
              Span out_x, Index c_begin, Index c_end) {
  return Halo(in, c_begin, c_end, out_y.begin * layer.stride - layer.pad,
              (out_y.size - 1) * layer.stride + layer.kernel,
              out_x.begin * layer.stride - layer.pad,
              (out_x.size - 1) * layer.stride + layer.kernel);
}

}  // namespace

// The packed lanes, the conv_block primitive (kernels_ops.hpp) and every
// ISA variant of it are laid out for 8 maps per block.
static_assert(kMapBlock == 8, "conv_block computes 8 maps per block");

PackedWeights::PackedWeights(const LayerSpec& layer,
                             const ValueTensor& weights) {
  if (!layer.has_weights()) return;
  MOCHA_CHECK(weights.shape() == layer.weight_shape(),
              layer.name << ": weight shape mismatch");
  raw_ = &weights;
  if (layer.kind != LayerKind::Conv) return;
  // [out_c][taps] -> [block][taps][kMapBlock]; lanes past out_c stay zero.
  const Index taps = layer.in_c * layer.kernel * layer.kernel;
  const Index blocks = (layer.out_c + kMapBlock - 1) / kMapBlock;
  block_elems_ = taps * kMapBlock;
  lanes_.resize(static_cast<std::size_t>(blocks * block_elems_));
  for (Index b = 0; b < blocks; ++b) {
    const Index maps = std::min(kMapBlock, layer.out_c - b * kMapBlock);
    const Value* src = weights.data() + b * kMapBlock * taps;
    std::int32_t* dst = lanes_.data() + b * block_elems_;
    for (Index t = 0; t < taps; ++t) {
      for (Index j = 0; j < maps; ++j) {
        dst[t * kMapBlock + j] = src[j * taps + t];
      }
    }
  }
}

const ValueTensor& PackedWeights::raw() const {
  MOCHA_CHECK(raw_ != nullptr, "pool layers have no weights");
  return *raw_;
}

void conv_region(const LayerSpec& layer, const PaddedInput& in,
                 const PackedWeights& weights, Span out_y, Span out_x,
                 Index m_begin, Index m_end, const Quant& quant,
                 ValueTensor* out, Index out_oy, Index out_ox) {
  MOCHA_CHECK(weights.raw().shape() == layer.weight_shape() &&
                  weights.block_elems() ==
                      layer.in_c * layer.kernel * layer.kernel * kMapBlock &&
                  m_begin >= 0 && m_end <= layer.out_c,
              layer.name << ": packed conv weights or map range do not match");
  const Index stride = layer.stride;
  const Index kernel = layer.kernel;
  const Halo halo = halo_for(layer, in, out_y, out_x, 0, layer.in_c);
  // Each (c, ky, kx) tap's offset into the halo, in packed-lane order.
  std::vector<Index> offsets;
  offsets.reserve(static_cast<std::size_t>(layer.in_c * kernel * kernel));
  for (Index c = 0; c < layer.in_c; ++c) {
    for (Index ky = 0; ky < kernel; ++ky) {
      for (Index kx = 0; kx < kernel; ++kx) {
        offsets.push_back(c * halo.c_stride() + ky * halo.row_stride() + kx);
      }
    }
  }
  const auto taps = static_cast<Index>(offsets.size());
  const KernelOps& ops = active_kernel_ops();
  std::vector<Accum> acc(static_cast<std::size_t>(out_x.size * kMapBlock));
  for (Index y = 0; y < out_y.size; ++y) {
    const std::int32_t* row = halo.row(0, y * stride);
    for (Index mb = m_begin / kMapBlock; mb * kMapBlock < m_end; ++mb) {
      ops.conv_block(acc.data(), out_x.size, row, stride, offsets.data(), taps,
                     weights.conv_block(mb));
      // Write only the maps this range owns.
      const Index m_lo = std::max(m_begin, mb * kMapBlock);
      const Index m_hi = std::min(m_end, (mb + 1) * kMapBlock);
      for (Index m = m_lo; m < m_hi; ++m) {
        Value* o = &out->at_unchecked(0, m, out_oy + y, out_ox);
        const Accum* a = acc.data() + (m - mb * kMapBlock);
        for (Index x = 0; x < out_x.size; ++x) {
          o[x] = quant.requantize(a[x * kMapBlock], layer.relu);
        }
      }
    }
  }
}

void depthwise_region(const LayerSpec& layer, const PaddedInput& in,
                      const ValueTensor& weights, Span out_y, Span out_x,
                      Index c_begin, Index c_end, const Quant& quant,
                      ValueTensor* out, Index out_oy, Index out_ox) {
  const Index kernel = layer.kernel;
  const Index stride = layer.stride;
  const Halo halo = halo_for(layer, in, out_y, out_x, c_begin, c_end);
  const KernelOps& ops = active_kernel_ops();
  std::vector<Accum> acc(static_cast<std::size_t>(out_x.size));
  std::int64_t rows_skipped = 0;
  for (Index c = c_begin; c < c_end; ++c) {
    for (Index y = 0; y < out_y.size; ++y) {
      std::fill(acc.begin(), acc.end(), Accum{0});
      for (Index ky = 0; ky < kernel; ++ky) {
        const Index r = y * stride + ky;
        if (!halo.row_nonzero(c - c_begin, r)) {
          ++rows_skipped;
          continue;
        }
        ops.conv_row(acc.data(), out_x.size, halo.row(c - c_begin, r),
                     &weights.at_unchecked(c, 0, ky, 0), kernel, stride);
      }
      Value* orow = &out->at_unchecked(0, c, out_oy + y, out_ox);
      for (Index x = 0; x < out_x.size; ++x) {
        orow[x] = quant.requantize(acc[static_cast<std::size_t>(x)],
                                   layer.relu);
      }
    }
  }
  if (rows_skipped > 0) {
    MOCHA_METRIC_ADD("kernels.zero_rows_skipped", rows_skipped);
  }
}

void pool_region(const LayerSpec& layer, const PaddedInput& in, Span out_y,
                 Span out_x, Index c_begin, Index c_end, ValueTensor* out,
                 Index out_oy, Index out_ox) {
  const Index kernel = layer.kernel;
  const Index stride = layer.stride;
  const Index window = kernel * kernel;
  const bool max_pool = layer.pool_op == PoolOp::Max;
  const Index xspan = out_x.size;

  // Pooling is unpadded: the whole window must lie in the buffer, checked
  // once, and is then read in place.
  const Index gy_lo = out_y.begin * stride;
  const Index gx_lo = out_x.begin * stride;
  check_in_buffer(in, gy_lo, gy_lo + (out_y.size - 1) * stride + kernel,
                  gx_lo, gx_lo + (xspan - 1) * stride + kernel);

  std::vector<Accum> sum(static_cast<std::size_t>(xspan));
  std::vector<Value> best(static_cast<std::size_t>(xspan));
  const Index in_x0 = gx_lo - in.origin_x;
  for (Index c = c_begin; c < c_end; ++c) {
    for (Index y = 0; y < out_y.size; ++y) {
      const Index gy0 = gy_lo + y * stride;
      Value* orow = &out->at_unchecked(0, c, out_oy + y, out_ox);
      if (max_pool) {
        std::fill(best.begin(), best.end(), std::numeric_limits<Value>::min());
        for (Index ky = 0; ky < kernel; ++ky) {
          const Value* in_row = in.row_at(c, gy0 + ky) + in_x0;
          for (Index kx = 0; kx < kernel; ++kx) {
            const Value* p = in_row + kx;
            for (Index x = 0; x < xspan; ++x) {
              best[static_cast<std::size_t>(x)] =
                  std::max(best[static_cast<std::size_t>(x)], p[x * stride]);
            }
          }
        }
        std::copy(best.begin(), best.end(), orow);
      } else {
        std::fill(sum.begin(), sum.end(), Accum{0});
        for (Index ky = 0; ky < kernel; ++ky) {
          const Value* in_row = in.row_at(c, gy0 + ky) + in_x0;
          for (Index kx = 0; kx < kernel; ++kx) {
            const Value* p = in_row + kx;
            for (Index x = 0; x < xspan; ++x) {
              sum[static_cast<std::size_t>(x)] += p[x * stride];
            }
          }
        }
        for (Index x = 0; x < xspan; ++x) {
          // Truncating division toward zero: what a shift-free hardware
          // divider-by-constant emits for the small windows used here.
          orow[x] =
              static_cast<Value>(sum[static_cast<std::size_t>(x)] / window);
        }
      }
    }
  }
}

void fc_region(const LayerSpec& layer, const Value* flat_in,
               const ValueTensor& weights, Index m_begin, Index m_end,
               const Quant& quant, ValueTensor* out) {
  const Index fan_in = layer.in_c * layer.in_h * layer.in_w;
  const bool relu = layer.relu;
  const KernelOps& ops = active_kernel_ops();

  // Nonzero (index, value) list in 32-bit lanes (what the gather variants
  // load directly): zero inputs never enter the MAC stream, so FC compute
  // cost tracks ifmap sparsity exactly like the codecs do. Indices ascend.
  std::vector<std::int32_t> nz_idx;
  std::vector<std::int32_t> nz_val;
  nz_idx.reserve(static_cast<std::size_t>(fan_in));
  nz_val.reserve(static_cast<std::size_t>(fan_in));
  for (Index i = 0; i < fan_in; ++i) {
    if (flat_in[i] != 0) {
      nz_idx.push_back(static_cast<std::int32_t>(i));
      nz_val.push_back(flat_in[i]);
    }
  }
  const auto nnz = static_cast<Index>(nz_idx.size());

  // Near-dense ifmaps take the contiguous dot product: zero inputs add
  // exact +0 terms, so the sum is unchanged, and sequential loads beat the
  // gather once fewer than ~1/8 of the inputs are zero. The zero-skip
  // metric only counts work the sparse path actually elided.
  const bool dense = nnz * 8 >= fan_in * 7;
  if (!dense && fan_in > nnz) {
    MOCHA_METRIC_ADD("kernels.fc_zero_inputs_skipped", fan_in - nnz);
  }

  for (Index m0 = m_begin; m0 < m_end; m0 += kMapBlock) {
    const Index mcnt = std::min<Index>(kMapBlock, m_end - m0);
    for (Index mi = 0; mi < mcnt; ++mi) {
      const Value* w = &weights.at_unchecked(m0 + mi, 0, 0, 0);
      const Accum acc = dense ? ops.fc_dot_dense(flat_in, w, fan_in)
                              : ops.fc_dot_sparse(nz_idx.data(),
                                                  nz_val.data(), nnz, w,
                                                  fan_in);
      out->at_unchecked(0, m0 + mi, 0, 0) = quant.requantize(acc, relu);
    }
  }
}

void run_layer_region(const LayerSpec& layer, const PaddedInput& in,
                      const PackedWeights& weights, Span out_y, Span out_x,
                      Index m_begin, Index m_end, const Quant& quant,
                      ValueTensor* out, Index out_oy, Index out_ox) {
  if (out_y.size <= 0 || out_x.size <= 0 || m_begin >= m_end) return;

  switch (layer.kind) {
    case LayerKind::Conv:
      conv_region(layer, in, weights, out_y, out_x, m_begin, m_end, quant,
                  out, out_oy, out_ox);
      return;
    case LayerKind::DepthwiseConv:
      depthwise_region(layer, in, weights.raw(), out_y, out_x, m_begin, m_end,
                       quant, out, out_oy, out_ox);
      return;
    case LayerKind::Pool:
      pool_region(layer, in, out_y, out_x, m_begin, m_end, out, out_oy,
                  out_ox);
      return;
    case LayerKind::FullyConnected:
      MOCHA_CHECK(in.origin_y == 0 && in.origin_x == 0 &&
                      in.view_h == in.full_h && in.view_w == in.full_w,
                  "FC layers read the whole (flattened) ifmap");
      fc_region(layer, in.base, weights.raw(), m_begin, m_end, quant, out);
      return;
  }
  MOCHA_UNREACHABLE("bad LayerKind");
}

}  // namespace mocha::nn::kernels
