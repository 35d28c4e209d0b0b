// Packed compute microkernels — the single compute backend for both the
// naive reference path (nn/reference.cpp) and the tiled functional executor
// (dataflow/executor.cpp).
//
// Three levers, all bit-identical to the plain loop nests they replace
// (integer arithmetic is exact, so reassociation cannot change results):
//
//  * interior/border split — the padding-free output rectangle of a
//    (layer, tile) pair is precomputed once and run with raw row-pointer
//    loops: no per-element padding branch, contiguous over kx and x so the
//    compiler can autovectorize. Only the border ring (receptive fields
//    touching padding or leaving the tile buffer) takes the checked
//    per-element path, which also keeps the executor's fused-pyramid
//    geometry verification alive.
//  * register blocking — a small block of output channels is computed per
//    input-row pass with explicit accumulator arrays, so each loaded ifmap
//    row is reused across maps instead of being re-streamed per map.
//  * compression-aware zero skipping — per-(channel, input row) nonzero
//    metadata lets conv/FC kernels skip all-zero rows and channels, tying
//    compute cost to the same sparsity the stream codecs exploit.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layer.hpp"
#include "nn/quant.hpp"
#include "nn/tensor.hpp"

namespace mocha::nn::kernels {

/// Output-channel register block: ifmap rows loaded once are reused across
/// this many maps' accumulators before the next row pass. Callers that
/// split a layer's channels cut them on multiples of this block.
inline constexpr Index kMapBlock = 4;

/// Half-open 1-D output window [begin, begin + size). Mirrors
/// dataflow::Range (nn cannot depend on dataflow).
struct Span {
  Index begin = 0;
  Index size = 0;

  Index end() const { return begin + size; }
};

/// A zero-padded logical input map backed by a physical buffer.
///
/// The buffer covers rows [origin_y, origin_y + view_h) and columns
/// [origin_x, origin_x + view_w) of a logical full_h x full_w feature map.
/// Reads outside the logical map are zero padding (legal); reads inside the
/// map but outside the buffer are a geometry bug (fatal) — the executor's
/// fused-pyramid verification. A full-tensor view has origin 0 and
/// view == full, so the bug case is unreachable by construction.
struct PaddedInput {
  const Value* base = nullptr;  // element (c = 0, origin_y, origin_x)
  Index c_stride = 0;           // elements between channels
  Index row_stride = 0;         // elements between rows
  Index origin_y = 0;
  Index origin_x = 0;
  Index view_h = 0;
  Index view_w = 0;
  Index full_h = 0;
  Index full_w = 0;

  /// View over a whole [1, C, full_h, full_w] tensor.
  static PaddedInput full(const ValueTensor& t, Index full_h, Index full_w);

  /// View over a tile-local buffer whose (0, 0) element is logical
  /// (origin_y, origin_x) of a full_h x full_w map.
  static PaddedInput local(const ValueTensor& t, Index origin_y,
                           Index origin_x, Index full_h, Index full_w);

  /// Pointer to the first buffered element of row `gy` (i.e. global column
  /// origin_x). Callers index with `gx - origin_x`.
  const Value* row_at(Index c, Index gy) const {
    return base + c * c_stride + (gy - origin_y) * row_stride;
  }

  /// Checked read: padding returns 0, in-map reads outside the buffer die.
  Value read_checked(Index c, Index gy, Index gx) const;
};

/// Per-(channel, input row) nonzero flags over the row window a region
/// kernel will read, plus per-channel any-nonzero rollups. Built once per
/// (layer, tile) and shared across every output-channel pass.
class RowNonzero {
 public:
  /// Scans rows [y0, y0 + rows) x columns [x_lo, x_hi) of `channels`
  /// channels. Rows fully outside the logical map are zero (padding); rows
  /// whose in-buffer intersection with the column window is all zero are
  /// marked skippable.
  void build(const PaddedInput& in, Index channels, Index y0, Index rows,
             Index x_lo, Index x_hi);

  bool row_nonzero(Index c, Index gy) const {
    return rows_[static_cast<std::size_t>(c * n_rows_ + (gy - y0_))] != 0;
  }
  bool channel_nonzero(Index c) const {
    return channels_[static_cast<std::size_t>(c)] != 0;
  }

 private:
  std::vector<std::uint8_t> rows_;      // [channels x n_rows], 1 = has nonzero
  std::vector<std::uint8_t> channels_;  // any row nonzero
  Index y0_ = 0;
  Index n_rows_ = 0;
};

/// Conv / FC partial: output maps [m_begin, m_end) over output window
/// (out_y, out_x), written into `out` at offset (out_oy, out_ox). The
/// caller may shard [0, out_channels) across threads — disjoint map slices
/// make the parallel result bit-identical to the serial walk.
void conv_region(const LayerSpec& layer, const PaddedInput& in,
                 const ValueTensor& weights, const RowNonzero& nz, Span out_y,
                 Span out_x, Index m_begin, Index m_end, const Quant& quant,
                 ValueTensor* out, Index out_oy, Index out_ox);

/// Depthwise conv partial over channels [c_begin, c_end).
void depthwise_region(const LayerSpec& layer, const PaddedInput& in,
                      const ValueTensor& weights, const RowNonzero& nz,
                      Span out_y, Span out_x, Index c_begin, Index c_end,
                      const Quant& quant, ValueTensor* out, Index out_oy,
                      Index out_ox);

/// Max/average pool partial over channels [c_begin, c_end).
void pool_region(const LayerSpec& layer, const PaddedInput& in, Span out_y,
                 Span out_x, Index c_begin, Index c_end, ValueTensor* out,
                 Index out_oy, Index out_ox);

/// Fully connected partial: `flat_in` is the flattened ifmap (fan-in
/// contiguous values). Skips zero inputs via a nonzero (index, value) list
/// built once per call block.
void fc_region(const LayerSpec& layer, const Value* flat_in,
               const ValueTensor& weights, Index m_begin, Index m_end,
               const Quant& quant, ValueTensor* out);

/// The one compute entry point both the reference kernels and the
/// executor's work items go through: output channels [m_begin, m_end) of
/// the output window (out_y, out_x), written into `out` at offset
/// (out_oy, out_ox). Builds the zero-skip metadata, then dispatches on
/// layer.kind. Runs serially on the calling thread; callers split the
/// channels across the pool, and disjoint slices make any split
/// bit-identical to one call over every channel.
void run_layer_region(const LayerSpec& layer, const PaddedInput& in,
                      const ValueTensor& weights, Span out_y, Span out_x,
                      Index m_begin, Index m_end, const Quant& quant,
                      ValueTensor* out, Index out_oy, Index out_ox);

}  // namespace mocha::nn::kernels
