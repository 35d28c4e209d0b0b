// Packed compute microkernels — the single compute backend for both the
// naive reference path (nn/reference.cpp) and the tiled functional executor
// (dataflow/executor.cpp).
//
// Every path is bit-identical to the plain loop nests it replaces: Accum is
// int64 and integer summation is exact under any reassociation.
//
//  * conv — one kernel for every layer shape, vectorized over output
//    channels. A layer's weights are packed once per run into kMapBlock-map
//    int32 lanes (PackedWeights); each region copies its input window into
//    a zero-haloed int32 buffer, so padding is plain zeros and the kernel
//    has no border path; a dispatched block primitive then accumulates a
//    few output positions x 8 maps in int64 registers. Dense: AlexNet's
//    13-27-wide maps run as fast as 224-wide ones.
//  * depthwise — reads the same halo copy one channel at a time and runs a
//    row primitive across each output row, skipping all-zero input rows
//    (flagged while copying), the compute-side twin of the stream codecs'
//    zero compression.
//  * pool — unpadded, so it checks its window against the buffer once and
//    reads in place.
//
// The halo copy and the pool's window check are where the executor's
// fused-pyramid geometry verification lives: a tile-local buffer that does
// not cover an in-map element a region reads is a hard error, never a
// silent zero.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layer.hpp"
#include "nn/quant.hpp"
#include "nn/tensor.hpp"

namespace mocha::nn::kernels {

/// Output maps per packed weight lane group: the conv block primitive
/// computes this many maps at once. Callers that split a layer's channels
/// cut them on multiples of this block.
inline constexpr Index kMapBlock = 8;

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
};

/// A layer's weights in the layout its kernel reads, built once per layer
/// per run and shared by every work item (never packed per item).
///
/// Conv weights are packed into kMapBlock-map lanes, [⌈out_c / 8⌉][in_c]
/// [k][k][8] int32, lanes past out_c zero: the block primitive loads the 8
/// maps of one (c, ky, kx) tap with one vector load. Other kinds read the
/// caller's tensor in place, which must outlive this object.
class PackedWeights {
 public:
  /// Pool layers: no weights.
  PackedWeights() = default;
  /// Packs (conv) or views (depthwise, FC) `weights`, which must match
  /// layer.weight_shape(); pool layers ignore them.
  PackedWeights(const LayerSpec& layer, const ValueTensor& weights);
  PackedWeights(const LayerSpec&, ValueTensor&&) = delete;  // would dangle

  /// The unpacked tensor (depthwise and FC kernels).
  const ValueTensor& raw() const;

  /// The [in_c][k][k][8] lanes of conv map block `block`.
  const std::int32_t* conv_block(Index block) const {
    return lanes_.data() + block * block_elems_;
  }
  /// Lanes per conv map block: in_c * k * k * kMapBlock, 0 unless conv.
  Index block_elems() const { return block_elems_; }

 private:
  const ValueTensor* raw_ = nullptr;
  std::vector<std::int32_t> lanes_;
  Index block_elems_ = 0;
};

/// Conv partial: output maps [m_begin, m_end) over output window
/// (out_y, out_x), written into `out` at offset (out_oy, out_ox). A range
/// that starts or ends inside a kMapBlock block computes the whole block
/// and writes only its own maps.
void conv_region(const LayerSpec& layer, const PaddedInput& in,
                 const PackedWeights& weights, Span out_y, Span out_x,
                 Index m_begin, Index m_end, const Quant& quant,
                 ValueTensor* out, Index out_oy, Index out_ox);

/// Depthwise conv partial over channels [c_begin, c_end).
void depthwise_region(const LayerSpec& layer, const PaddedInput& in,
                      const ValueTensor& weights, Span out_y, Span out_x,
                      Index c_begin, Index c_end, const Quant& quant,
                      ValueTensor* out, Index out_oy, Index out_ox);

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
/// (out_oy, out_ox), dispatched on layer.kind. Runs serially on the calling
/// thread; callers split the channels across the pool, and disjoint slices
/// make any split bit-identical to one call over every channel.
void run_layer_region(const LayerSpec& layer, const PaddedInput& in,
                      const PackedWeights& weights, Span out_y, Span out_x,
                      Index m_begin, Index m_end, const Quant& quant,
                      ValueTensor* out, Index out_oy, Index out_ox);

}  // namespace mocha::nn::kernels
