#include "nn/kernels.hpp"

#include <algorithm>

#include "nn/kernels_ops.hpp"
#include "obs/metrics.hpp"

namespace mocha::nn::kernels {

namespace {

Index ceil_div(Index a, Index b) { return (a + b - 1) / b; }

/// The padding-free output rectangle of (layer geometry, output window):
/// every read of an output position inside it lands in the physical buffer
/// AND inside the logical map, so the inner loops can run on raw row
/// pointers with no bounds or padding branch.
struct InteriorRect {
  Index y0 = 0, y1 = 0;  // interior output rows  [y0, y1)
  Index x0 = 0, x1 = 0;  // interior output cols  [x0, x1)

  Index xspan() const { return x1 - x0; }
  bool contains_row(Index y) const { return y >= y0 && y < y1; }
};

InteriorRect interior_rect(const PaddedInput& in, Span out_y, Span out_x,
                           Index stride, Index kernel, Index pad) {
  // Readable input extent: inside the logical map and inside the buffer.
  const Index ly = std::max<Index>(0, in.origin_y);
  const Index ry = std::min(in.full_h, in.origin_y + in.view_h);
  const Index lx = std::max<Index>(0, in.origin_x);
  const Index rx = std::min(in.full_w, in.origin_x + in.view_w);

  InteriorRect r;
  r.y0 = std::max(out_y.begin, ceil_div(ly + pad, stride));
  r.x0 = std::max(out_x.begin, ceil_div(lx + pad, stride));
  const Index ny = ry - kernel + pad;  // last admissible in_y0 numerator
  const Index nx = rx - kernel + pad;
  r.y1 = ny < 0 ? r.y0 : std::min(out_y.end(), ny / stride + 1);
  r.x1 = nx < 0 ? r.x0 : std::min(out_x.end(), nx / stride + 1);
  // An empty dimension empties the rectangle; normalize so the border
  // enumeration degenerates to the whole window.
  if (r.y1 <= r.y0 || r.x1 <= r.x0) {
    r.y0 = r.y1 = out_y.begin;
    r.x0 = r.x1 = out_x.begin;
  }
  return r;
}

/// Calls cell(y, x) for every output position of the window that is NOT in
/// the interior rectangle: the top band, the bottom band, and the left and
/// right columns of the interior rows.
template <typename Cell>
void for_border(Span out_y, Span out_x, const InteriorRect& r, Cell&& cell) {
  for (Index y = out_y.begin; y < out_y.end(); ++y) {
    if (r.contains_row(y)) {
      for (Index x = out_x.begin; x < r.x0; ++x) cell(y, x);
      for (Index x = r.x1; x < out_x.end(); ++x) cell(y, x);
    } else {
      for (Index x = out_x.begin; x < out_x.end(); ++x) cell(y, x);
    }
  }
}

}  // namespace

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

Value PaddedInput::read_checked(Index c, Index gy, Index gx) const {
  if (gy < 0 || gy >= full_h || gx < 0 || gx >= full_w) {
    return 0;  // zero padding
  }
  MOCHA_CHECK(gy >= origin_y && gy < origin_y + view_h && gx >= origin_x &&
                  gx < origin_x + view_w,
              "fused pyramid geometry bug: read (" << gy << "," << gx
                  << ") outside tile buffer at origin (" << origin_y << ","
                  << origin_x << ") size " << view_h << "x" << view_w);
  return base[c * c_stride + (gy - origin_y) * row_stride + (gx - origin_x)];
}

void RowNonzero::build(const PaddedInput& in, Index channels, Index y0,
                       Index rows, Index x_lo, Index x_hi) {
  y0_ = y0;
  n_rows_ = rows;
  rows_.assign(static_cast<std::size_t>(channels * rows), 0);
  channels_.assign(static_cast<std::size_t>(channels), 0);

  const Index buf_y_lo = std::max<Index>(0, in.origin_y);
  const Index buf_y_hi = std::min(in.full_h, in.origin_y + in.view_h);
  // Column window clamped to the map, then to the buffer. If the in-map
  // part of the window sticks out of the buffer, a row cannot be proven
  // zero — mark it nonzero so the checked border path still fires the
  // geometry verification instead of silently skipping the read.
  const Index map_x_lo = std::max<Index>(0, x_lo);
  const Index map_x_hi = std::min(in.full_w, x_hi);
  const Index scan_x_lo = std::max(map_x_lo, in.origin_x);
  const Index scan_x_hi = std::min(map_x_hi, in.origin_x + in.view_w);
  const bool cols_escape_buffer =
      map_x_lo < scan_x_lo || map_x_hi > scan_x_hi;

  for (Index c = 0; c < channels; ++c) {
    std::uint8_t any = 0;
    for (Index gy = y0; gy < y0 + rows; ++gy) {
      std::uint8_t flag;
      if (gy < 0 || gy >= in.full_h) {
        flag = 0;  // padding row: always skippable
      } else if (gy < buf_y_lo || gy >= buf_y_hi || cols_escape_buffer) {
        flag = 1;  // in-map but not provably in-buffer: conservative
      } else {
        const Value* row = in.row_at(c, gy) + (scan_x_lo - in.origin_x);
        flag = active_kernel_ops().any_nonzero(row, scan_x_hi - scan_x_lo)
                   ? 1
                   : 0;
      }
      rows_[static_cast<std::size_t>(c * rows + (gy - y0))] = flag;
      any |= flag;
    }
    channels_[static_cast<std::size_t>(c)] = any;
  }
}

void conv_region(const LayerSpec& layer, const PaddedInput& in,
                 const ValueTensor& weights, const RowNonzero& nz, Span out_y,
                 Span out_x, Index m_begin, Index m_end, const Quant& quant,
                 ValueTensor* out, Index out_oy, Index out_ox) {
  const Index kernel = layer.kernel;
  const Index stride = layer.stride;
  const Index pad = layer.pad;
  const Index in_c = layer.in_c;
  const bool relu = layer.relu;

  const InteriorRect it = interior_rect(in, out_y, out_x, stride, kernel, pad);
  const Index xspan = it.xspan();
  std::int64_t rows_skipped = 0;

  if (xspan > 0) {
    // Interior: raw row pointers, register-blocked over output maps, the
    // contiguous (stride 1) x walk handed to the dispatched ISA variant.
    const KernelOps& ops = active_kernel_ops();
    std::vector<Accum> acc(static_cast<std::size_t>(kMapBlock * xspan));
    const Value* wrow[kMapBlock] = {};
    // Buffer-local column of the first interior read.
    const Index in_x0 = it.x0 * stride - pad - in.origin_x;
    for (Index m0 = m_begin; m0 < m_end; m0 += kMapBlock) {
      const Index mcnt = std::min<Index>(kMapBlock, m_end - m0);
      for (Index y = it.y0; y < it.y1; ++y) {
        std::fill(acc.begin(), acc.begin() + mcnt * xspan, Accum{0});
        const Index gy0 = y * stride - pad;
        for (Index c = 0; c < in_c; ++c) {
          if (!nz.channel_nonzero(c)) {
            rows_skipped += kernel;
            continue;
          }
          for (Index ky = 0; ky < kernel; ++ky) {
            const Index gy = gy0 + ky;
            if (!nz.row_nonzero(c, gy)) {
              ++rows_skipped;
              continue;
            }
            const Value* in_row = in.row_at(c, gy) + in_x0;
            for (Index mi = 0; mi < mcnt; ++mi) {
              wrow[mi] = &weights.at_unchecked(m0 + mi, c, ky, 0);
            }
            ops.conv_rows(acc.data(), xspan, in_row, wrow, mcnt, kernel,
                          stride);
          }
        }
        for (Index mi = 0; mi < mcnt; ++mi) {
          Value* orow = &out->at_unchecked(0, m0 + mi, y - out_y.begin + out_oy,
                                           it.x0 - out_x.begin + out_ox);
          const Accum* a = acc.data() + mi * xspan;
          for (Index x = 0; x < xspan; ++x) {
            orow[x] = quant.requantize(a[x], relu);
          }
        }
      }
    }
  }

  // Border ring: receptive fields that touch padding (or would leave the
  // tile buffer) take the checked per-element path.
  for_border(out_y, out_x, it, [&](Index y, Index x) {
    const Index gy0 = y * stride - pad;
    const Index gx0 = x * stride - pad;
    for (Index m = m_begin; m < m_end; ++m) {
      Accum acc = 0;
      for (Index c = 0; c < in_c; ++c) {
        if (!nz.channel_nonzero(c)) continue;
        for (Index ky = 0; ky < kernel; ++ky) {
          if (!nz.row_nonzero(c, gy0 + ky)) continue;
          const Value* wrow = &weights.at_unchecked(m, c, ky, 0);
          for (Index kx = 0; kx < kernel; ++kx) {
            const Accum wv = wrow[kx];
            if (wv == 0) continue;
            acc += static_cast<Accum>(in.read_checked(c, gy0 + ky, gx0 + kx)) *
                   wv;
          }
        }
      }
      out->at_unchecked(0, m, y - out_y.begin + out_oy,
                        x - out_x.begin + out_ox) =
          quant.requantize(acc, relu);
    }
  });
  if (rows_skipped > 0) {
    MOCHA_METRIC_ADD("kernels.zero_rows_skipped", rows_skipped);
  }
}

void depthwise_region(const LayerSpec& layer, const PaddedInput& in,
                      const ValueTensor& weights, const RowNonzero& nz,
                      Span out_y, Span out_x, Index c_begin, Index c_end,
                      const Quant& quant, ValueTensor* out, Index out_oy,
                      Index out_ox) {
  const Index kernel = layer.kernel;
  const Index stride = layer.stride;
  const Index pad = layer.pad;
  const bool relu = layer.relu;

  const InteriorRect it = interior_rect(in, out_y, out_x, stride, kernel, pad);
  const Index xspan = it.xspan();
  std::int64_t rows_skipped = 0;

  if (xspan > 0) {
    const KernelOps& ops = active_kernel_ops();
    std::vector<Accum> acc(static_cast<std::size_t>(xspan));
    const Index in_x0 = it.x0 * stride - pad - in.origin_x;
    for (Index c = c_begin; c < c_end; ++c) {
      for (Index y = it.y0; y < it.y1; ++y) {
        std::fill(acc.begin(), acc.end(), Accum{0});
        const Index gy0 = y * stride - pad;
        for (Index ky = 0; ky < kernel; ++ky) {
          const Index gy = gy0 + ky;
          if (!nz.row_nonzero(c, gy)) {
            ++rows_skipped;
            continue;
          }
          const Value* in_row = in.row_at(c, gy) + in_x0;
          const Value* wk = &weights.at_unchecked(c, 0, ky, 0);
          ops.conv_rows(acc.data(), xspan, in_row, &wk, 1, kernel, stride);
        }
        Value* orow = &out->at_unchecked(0, c, y - out_y.begin + out_oy,
                                         it.x0 - out_x.begin + out_ox);
        for (Index x = 0; x < xspan; ++x) {
          orow[x] = quant.requantize(acc[static_cast<std::size_t>(x)], relu);
        }
      }
    }
  }

  for_border(out_y, out_x, it, [&](Index y, Index x) {
    const Index gy0 = y * stride - pad;
    const Index gx0 = x * stride - pad;
    for (Index c = c_begin; c < c_end; ++c) {
      Accum acc = 0;
      for (Index ky = 0; ky < kernel; ++ky) {
        if (!nz.row_nonzero(c, gy0 + ky)) continue;
        const Value* wrow = &weights.at_unchecked(c, 0, ky, 0);
        for (Index kx = 0; kx < kernel; ++kx) {
          const Accum wv = wrow[kx];
          if (wv == 0) continue;
          acc += static_cast<Accum>(in.read_checked(c, gy0 + ky, gx0 + kx)) *
                 wv;
        }
      }
      out->at_unchecked(0, c, y - out_y.begin + out_oy,
                        x - out_x.begin + out_ox) =
          quant.requantize(acc, relu);
    }
  });
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

  // Pooling is unpadded, so for a correctly sized buffer the whole window
  // is interior; the border path only exists for safety at buffer edges.
  const InteriorRect it = interior_rect(in, out_y, out_x, stride, kernel,
                                        /*pad=*/0);
  const Index xspan = it.xspan();

  if (xspan > 0) {
    std::vector<Accum> sum(static_cast<std::size_t>(xspan));
    std::vector<Value> best(static_cast<std::size_t>(xspan));
    const Index in_x0 = it.x0 * stride - in.origin_x;
    for (Index c = c_begin; c < c_end; ++c) {
      for (Index y = it.y0; y < it.y1; ++y) {
        const Index gy0 = y * stride;
        if (max_pool) {
          std::fill(best.begin(), best.end(),
                    std::numeric_limits<Value>::min());
          for (Index ky = 0; ky < kernel; ++ky) {
            const Value* in_row = in.row_at(c, gy0 + ky) + in_x0;
            for (Index kx = 0; kx < kernel; ++kx) {
              const Value* p = in_row + kx;
              for (Index x = 0; x < xspan; ++x) {
                best[static_cast<std::size_t>(x)] = std::max(
                    best[static_cast<std::size_t>(x)], p[x * stride]);
              }
            }
          }
          Value* orow = &out->at_unchecked(0, c, y - out_y.begin + out_oy,
                                           it.x0 - out_x.begin + out_ox);
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
          Value* orow = &out->at_unchecked(0, c, y - out_y.begin + out_oy,
                                           it.x0 - out_x.begin + out_ox);
          for (Index x = 0; x < xspan; ++x) {
            // Truncating division toward zero: what a shift-free hardware
            // divider-by-constant emits for the small windows used here.
            orow[x] = static_cast<Value>(sum[static_cast<std::size_t>(x)] /
                                         window);
          }
        }
      }
    }
  }

  for_border(out_y, out_x, it, [&](Index y, Index x) {
    for (Index c = c_begin; c < c_end; ++c) {
      if (max_pool) {
        Value bestv = std::numeric_limits<Value>::min();
        for (Index ky = 0; ky < kernel; ++ky) {
          for (Index kx = 0; kx < kernel; ++kx) {
            bestv = std::max(bestv, in.read_checked(c, y * stride + ky,
                                                    x * stride + kx));
          }
        }
        out->at_unchecked(0, c, y - out_y.begin + out_oy,
                          x - out_x.begin + out_ox) = bestv;
      } else {
        Accum s = 0;
        for (Index ky = 0; ky < kernel; ++ky) {
          for (Index kx = 0; kx < kernel; ++kx) {
            s += in.read_checked(c, y * stride + ky, x * stride + kx);
          }
        }
        out->at_unchecked(0, c, y - out_y.begin + out_oy,
                          x - out_x.begin + out_ox) =
            static_cast<Value>(s / window);
      }
    }
  });
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
                      const ValueTensor& weights, Span out_y, Span out_x,
                      Index m_begin, Index m_end, const Quant& quant,
                      ValueTensor* out, Index out_oy, Index out_ox) {
  if (out_y.size <= 0 || out_x.size <= 0 || m_begin >= m_end) return;

  RowNonzero nz;
  if (layer.kind == LayerKind::Conv ||
      layer.kind == LayerKind::DepthwiseConv) {
    // Row window the kernels may read (unclamped; padding rows flag zero).
    const Index y_lo = out_y.begin * layer.stride - layer.pad;
    const Index rows = (out_y.size - 1) * layer.stride + layer.kernel;
    const Index x_lo = out_x.begin * layer.stride - layer.pad;
    const Index x_hi = x_lo + (out_x.size - 1) * layer.stride + layer.kernel;
    nz.build(in, layer.in_c, y_lo, rows, x_lo, x_hi);
  }

  switch (layer.kind) {
    case LayerKind::Conv:
      conv_region(layer, in, weights, nz, out_y, out_x, m_begin, m_end, quant,
                  out, out_oy, out_ox);
      return;
    case LayerKind::DepthwiseConv:
      depthwise_region(layer, in, weights, nz, out_y, out_x, m_begin, m_end,
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
      fc_region(layer, in.base, weights, m_begin, m_end, quant, out);
      return;
  }
  MOCHA_UNREACHABLE("bad LayerKind");
}

}  // namespace mocha::nn::kernels
