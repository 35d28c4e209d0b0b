// Packed-kernel equivalence: the packed-weight, halo-copy microkernels
// (nn/kernels.hpp) must be *bit-identical* to a naive loop nest over every
// geometry — integer arithmetic is exact, so any mismatch is a real
// indexing, blocking or skipping bug, not rounding. The oracle
// below is the pre-packing reference implementation, kept serial on
// purpose; the packed side runs with a 4-thread pool so the map-sharding
// path is exercised (and raced under the tsan preset).
#include "nn/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "dataflow/executor.hpp"
#include "nn/generate.hpp"
#include "nn/reference.hpp"
#include "util/cpuid.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace mocha::nn {
namespace {

/// Sets the pool width for the test body and restores serial afterwards.
class WithThreads {
 public:
  explicit WithThreads(int n) { util::ThreadPool::set_global_threads(n); }
  ~WithThreads() { util::ThreadPool::set_global_threads(1); }
};

/// Forces the kernel dispatch to one ISA and restores the default after.
/// The oracle sweeps below run once per supported ISA: the oracles are
/// naive loop nests that never touch the dispatch, so each pass checks one
/// vectorized variant (and forced-scalar) for bit-identical output.
class WithIsa {
 public:
  explicit WithIsa(util::KernelIsa isa) { util::force_isa(isa); }
  ~WithIsa() { util::force_isa(util::best_supported_isa()); }
};

ValueTensor oracle_conv(const ValueTensor& input, const ValueTensor& weights,
                        const LayerSpec& layer, const Quant& quant) {
  ValueTensor out(layer.output_shape());
  for (Index m = 0; m < layer.out_c; ++m) {
    for (Index y = 0; y < layer.out_h(); ++y) {
      for (Index x = 0; x < layer.out_w(); ++x) {
        Accum acc = 0;
        for (Index c = 0; c < layer.in_c; ++c) {
          for (Index ky = 0; ky < layer.kernel; ++ky) {
            const Index iy = y * layer.stride + ky - layer.pad;
            if (iy < 0 || iy >= layer.in_h) continue;
            for (Index kx = 0; kx < layer.kernel; ++kx) {
              const Index ix = x * layer.stride + kx - layer.pad;
              if (ix < 0 || ix >= layer.in_w) continue;
              acc += static_cast<Accum>(input.at_unchecked(0, c, iy, ix)) *
                     static_cast<Accum>(weights.at_unchecked(m, c, ky, kx));
            }
          }
        }
        out.at_unchecked(0, m, y, x) = quant.requantize(acc, layer.relu);
      }
    }
  }
  return out;
}

ValueTensor oracle_depthwise(const ValueTensor& input,
                             const ValueTensor& weights,
                             const LayerSpec& layer, const Quant& quant) {
  ValueTensor out(layer.output_shape());
  for (Index c = 0; c < layer.in_c; ++c) {
    for (Index y = 0; y < layer.out_h(); ++y) {
      for (Index x = 0; x < layer.out_w(); ++x) {
        Accum acc = 0;
        for (Index ky = 0; ky < layer.kernel; ++ky) {
          const Index iy = y * layer.stride + ky - layer.pad;
          if (iy < 0 || iy >= layer.in_h) continue;
          for (Index kx = 0; kx < layer.kernel; ++kx) {
            const Index ix = x * layer.stride + kx - layer.pad;
            if (ix < 0 || ix >= layer.in_w) continue;
            acc += static_cast<Accum>(input.at_unchecked(0, c, iy, ix)) *
                   static_cast<Accum>(weights.at_unchecked(c, 0, ky, kx));
          }
        }
        out.at_unchecked(0, c, y, x) = quant.requantize(acc, layer.relu);
      }
    }
  }
  return out;
}

ValueTensor oracle_pool(const ValueTensor& input, const LayerSpec& layer) {
  ValueTensor out(layer.output_shape());
  const Index window = layer.kernel * layer.kernel;
  for (Index c = 0; c < layer.in_c; ++c) {
    for (Index y = 0; y < layer.out_h(); ++y) {
      for (Index x = 0; x < layer.out_w(); ++x) {
        if (layer.pool_op == PoolOp::Max) {
          Value best = std::numeric_limits<Value>::min();
          for (Index ky = 0; ky < layer.kernel; ++ky) {
            for (Index kx = 0; kx < layer.kernel; ++kx) {
              best = std::max(
                  best, input.at_unchecked(0, c, y * layer.stride + ky,
                                           x * layer.stride + kx));
            }
          }
          out.at_unchecked(0, c, y, x) = best;
        } else {
          Accum sum = 0;
          for (Index ky = 0; ky < layer.kernel; ++ky) {
            for (Index kx = 0; kx < layer.kernel; ++kx) {
              sum += input.at_unchecked(0, c, y * layer.stride + ky,
                                        x * layer.stride + kx);
            }
          }
          out.at_unchecked(0, c, y, x) = static_cast<Value>(sum / window);
        }
      }
    }
  }
  return out;
}

ValueTensor oracle_fc(const ValueTensor& input, const ValueTensor& weights,
                      const LayerSpec& layer, const Quant& quant) {
  ValueTensor out(layer.output_shape());
  const Value* flat = input.data();
  for (Index m = 0; m < layer.out_c; ++m) {
    Accum acc = 0;
    for (Index i = 0; i < layer.ifmap_elems(); ++i) {
      acc += static_cast<Accum>(flat[i]) *
             static_cast<Accum>(weights.at_unchecked(m, i, 0, 0));
    }
    out.at_unchecked(0, m, 0, 0) = quant.requantize(acc, layer.relu);
  }
  return out;
}

void expect_identical(const ValueTensor& got, const ValueTensor& want,
                      const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (Index i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.data()[i], want.data()[i]) << what << " at flat index " << i;
  }
}

/// Largest |accumulator| the conv oracle forms over the whole layer.
Accum max_abs_conv_sum(const ValueTensor& input, const ValueTensor& weights,
                       const LayerSpec& layer) {
  Accum max_abs = 0;
  for (Index m = 0; m < layer.out_c; ++m) {
    for (Index y = 0; y < layer.out_h(); ++y) {
      for (Index x = 0; x < layer.out_w(); ++x) {
        Accum acc = 0;
        for (Index c = 0; c < layer.in_c; ++c) {
          for (Index ky = 0; ky < layer.kernel; ++ky) {
            const Index iy = y * layer.stride + ky - layer.pad;
            if (iy < 0 || iy >= layer.in_h) continue;
            for (Index kx = 0; kx < layer.kernel; ++kx) {
              const Index ix = x * layer.stride + kx - layer.pad;
              if (ix < 0 || ix >= layer.in_w) continue;
              acc += static_cast<Accum>(input.at_unchecked(0, c, iy, ix)) *
                     static_cast<Accum>(weights.at_unchecked(m, c, ky, kx));
            }
          }
        }
        max_abs = std::max(max_abs, acc < 0 ? -acc : acc);
      }
    }
  }
  return max_abs;
}

/// Rows [y0, y1) x columns [x0, x1) of every channel of `input`, as the
/// tile-local buffer a fused stage hands the next one.
ValueTensor copy_window(const ValueTensor& input, Index y0, Index y1,
                        Index x0, Index x1) {
  ValueTensor local({1, input.shape().c, y1 - y0, x1 - x0});
  for (Index c = 0; c < input.shape().c; ++c) {
    for (Index y = y0; y < y1; ++y) {
      for (Index x = x0; x < x1; ++x) {
        local.at_unchecked(0, c, y - y0, x - x0) =
            input.at_unchecked(0, c, y, x);
      }
    }
  }
  return local;
}

/// Runs channels [m_begin, m_end) of the output window (ys, xs) through
/// run_layer_region into a sentinel-filled tile and checks the owned
/// channels against the oracle's slice and every other channel untouched.
void expect_region(const LayerSpec& layer, const kernels::PaddedInput& in,
                   const ValueTensor& weights, kernels::Span ys,
                   kernels::Span xs, Index m_begin, Index m_end,
                   const Quant& quant, const ValueTensor& want,
                   const std::string& what) {
  constexpr Value kSentinel = 12345;
  ValueTensor tile({1, layer.out_channels(), ys.size, xs.size});
  tile.fill(kSentinel);
  kernels::run_layer_region(layer, in, kernels::PackedWeights(layer, weights),
                            ys, xs, m_begin, m_end, quant, &tile, 0, 0);
  for (Index m = 0; m < layer.out_channels(); ++m) {
    const bool owned = m >= m_begin && m < m_end;
    for (Index y = 0; y < ys.size; ++y) {
      for (Index x = 0; x < xs.size; ++x) {
        const Value expected =
            owned ? want.at_unchecked(0, m, ys.begin + y, xs.begin + x)
                  : kSentinel;
        ASSERT_EQ(tile.at_unchecked(0, m, y, x), expected)
            << what << " m=" << m << " y=" << y << " x=" << x;
      }
    }
  }
}

TEST(KernelsVsOracle, ConvSweepsGeometryAndSparsityPerIsa) {
  WithThreads threads(4);
  const Quant quant;
  for (util::KernelIsa isa : util::supported_isas()) {
    WithIsa forced(isa);
    util::Rng rng(101);  // same data per ISA: outputs must agree bit-exactly
    for (Index kernel : {1, 3, 5, 7}) {
      for (Index stride : {1, 2}) {
        for (Index pad : {0, 1, 2}) {
          for (double sparsity : {0.0, 0.5, 0.9}) {
            LayerSpec layer = conv_layer("conv", 5, 13, 11, 9, kernel, stride,
                                         pad, /*relu=*/true);
            if (layer.out_h() < 1 || layer.out_w() < 1) continue;
            const ValueTensor input =
                random_tensor(layer.input_shape(), sparsity, rng);
            const ValueTensor weights =
                random_tensor(layer.weight_shape(), 0.25, rng, -8, 8);
            const std::string what =
                std::string("isa=") + util::isa_name(isa) + " conv k=" +
                std::to_string(kernel) + " s=" + std::to_string(stride) +
                " p=" + std::to_string(pad) + " sparsity=" +
                std::to_string(sparsity);
            expect_identical(conv2d_ref(input, weights, layer, quant),
                             oracle_conv(input, weights, layer, quant), what);
          }
        }
      }
    }
  }
}

/// Inputs and weights over the whole int16 range: products reach 2^30 and
/// the sums leave int32, so only a kernel that accumulates in int64 end to
/// end matches the oracle. frac_shift is raised so the requantized outputs
/// keep most of their bits instead of saturating.
TEST(KernelsVsOracle, FullInt16RangePerIsa) {
  WithThreads threads(4);
  Quant quant;
  quant.frac_shift = 20;
  constexpr Value kLo = std::numeric_limits<Value>::min();
  constexpr Value kHi = std::numeric_limits<Value>::max();
  for (util::KernelIsa isa : util::supported_isas()) {
    WithIsa forced(isa);
    util::Rng rng(108);
    Accum max_abs = 0;
    Index unsaturated = 0;
    Index outputs = 0;
    for (Index in_c : {1, 3, 17}) {
      for (Index out_c : {5, 9}) {
        for (Index kernel : {1, 3, 5}) {
          for (Index stride : {1, 2}) {
            for (Index pad : {0, 2}) {
              const LayerSpec layer =
                  conv_layer("conv", in_c, 11, 13, out_c, kernel, stride, pad,
                             /*relu=*/(in_c + kernel) % 2 == 0);
              const ValueTensor input =
                  random_tensor(layer.input_shape(), 0.1, rng, kLo, kHi);
              const ValueTensor weights =
                  random_tensor(layer.weight_shape(), 0.1, rng, kLo, kHi);
              const ValueTensor want =
                  oracle_conv(input, weights, layer, quant);
              expect_identical(
                  conv2d_ref(input, weights, layer, quant), want,
                  std::string("isa=") + util::isa_name(isa) +
                      " full-range conv in_c=" + std::to_string(in_c) +
                      " out_c=" + std::to_string(out_c) + " k=" +
                      std::to_string(kernel) + " s=" + std::to_string(stride) +
                      " p=" + std::to_string(pad));
              max_abs = std::max(max_abs,
                                 max_abs_conv_sum(input, weights, layer));
              for (Index i = 0; i < want.size(); ++i) {
                const Value v = want.data()[i];
                unsaturated += v != kLo && v != kHi;
              }
              outputs += want.size();
            }
          }
        }
      }
    }
    EXPECT_GT(max_abs, Accum{1} << 32) << "sums must leave int32";
    EXPECT_GT(unsaturated * 2, outputs) << "most outputs must not saturate";
  }
}

/// Shapes around the output-channel blocking: map counts below, at and
/// past one block and two, 1/3/17 input channels, map widths 7-28, and the
/// strided shapes (AlexNet conv1's k 11 / s 4; a stride past the kernel).
TEST(KernelsVsOracle, MapBlockShapesPerIsa) {
  WithThreads threads(4);
  const Quant quant;
  struct Shape {
    Index in_c, h, w, out_c, kernel, stride, pad;
  };
  std::vector<Shape> shapes;
  const Index widths[] = {7, 13, 28};
  Index wi = 0;
  for (Index out_c : {1, 7, 8, 9, 17}) {
    for (Index in_c : {1, 3, 17}) {
      const Index w = widths[wi++ % 3];
      shapes.push_back({in_c, w + 1, w, out_c, 3, 1, 1});
    }
  }
  for (Index w = 7; w <= 28; w += 3) shapes.push_back({3, 9, w, 9, 3, 1, 1});
  shapes.push_back({3, 39, 35, 17, 11, 4, 0});  // conv1: k 11, s 4
  shapes.push_back({3, 27, 27, 9, 11, 4, 2});
  shapes.push_back({5, 13, 12, 9, 1, 2, 0});  // stride past the kernel
  shapes.push_back({5, 14, 15, 7, 1, 3, 1});
  shapes.push_back({4, 17, 17, 11, 5, 1, 2});
  for (util::KernelIsa isa : util::supported_isas()) {
    WithIsa forced(isa);
    util::Rng rng(109);
    for (const Shape& s : shapes) {
      const LayerSpec layer = conv_layer("conv", s.in_c, s.h, s.w, s.out_c,
                                         s.kernel, s.stride, s.pad);
      const ValueTensor input = random_tensor(layer.input_shape(), 0.3, rng);
      const ValueTensor weights =
          random_tensor(layer.weight_shape(), 0.25, rng, -8, 8);
      expect_identical(conv2d_ref(input, weights, layer, quant),
                       oracle_conv(input, weights, layer, quant),
                       std::string("isa=") + util::isa_name(isa) + " conv " +
                           layer.summary() + " out_c=" +
                           std::to_string(s.out_c));
    }
  }
}

TEST(KernelsVsOracle, DepthwiseSweepPerIsa) {
  WithThreads threads(4);
  const Quant quant;
  for (util::KernelIsa isa : util::supported_isas()) {
    WithIsa forced(isa);
    util::Rng rng(102);
    for (Index kernel : {3, 5}) {
      for (Index stride : {1, 2}) {
        for (double sparsity : {0.0, 0.9}) {
          const LayerSpec layer = depthwise_layer("dw", 7, 12, 14, kernel,
                                                  stride, kernel / 2);
          const ValueTensor input =
              random_tensor(layer.input_shape(), sparsity, rng);
          const ValueTensor weights =
              random_tensor(layer.weight_shape(), 0.25, rng, -8, 8);
          expect_identical(depthwise_ref(input, weights, layer, quant),
                           oracle_depthwise(input, weights, layer, quant),
                           std::string("isa=") + util::isa_name(isa) +
                               " depthwise k=" + std::to_string(kernel));
        }
      }
    }
  }
}

TEST(KernelsVsOracle, PoolMaxAndAverage) {
  WithThreads threads(4);
  util::Rng rng(103);
  for (PoolOp op : {PoolOp::Max, PoolOp::Average}) {
    for (double sparsity : {0.0, 0.5}) {
      const LayerSpec layer = pool_layer("pool", 6, 12, 12, 2, 2, op);
      const ValueTensor input =
          random_tensor(layer.input_shape(), sparsity, rng);
      expect_identical(pool_ref(input, layer), oracle_pool(input, layer),
                       op == PoolOp::Max ? "max pool" : "avg pool");
    }
  }
}

TEST(KernelsVsOracle, FullyConnectedPerIsa) {
  WithThreads threads(4);
  const Quant quant;
  for (util::KernelIsa isa : util::supported_isas()) {
    WithIsa forced(isa);
    util::Rng rng(104);
    // The sparsity points straddle the dense/sparse path threshold, so both
    // the contiguous dot product and the nonzero gather run on every ISA.
    for (double sparsity : {0.0, 0.05, 0.5, 0.9, 1.0}) {
      const LayerSpec layer = fc_layer("fc", 6 * 5 * 5, 33, /*relu=*/true);
      const ValueTensor input =
          random_tensor({1, 6, 5, 5}, sparsity, rng);
      const ValueTensor weights =
          random_tensor(layer.weight_shape(), 0.25, rng, -8, 8);
      expect_identical(fc_ref(input, weights, layer, quant),
                       oracle_fc(input, weights, layer, quant),
                       std::string("isa=") + util::isa_name(isa) +
                           " fc sparsity=" + std::to_string(sparsity));
    }
  }
}

/// A region call over an output sub-rectangle must reproduce the matching
/// slice of the full-output oracle (the executor computes tiles this way).
TEST(KernelsRegion, SubRectangleMatchesOracleSlice) {
  WithThreads threads(4);
  util::Rng rng(105);
  const Quant quant;
  const LayerSpec layer = conv_layer("conv", 4, 16, 16, 6, 3, 1, 1);
  const ValueTensor input = random_tensor(layer.input_shape(), 0.4, rng);
  const ValueTensor weights =
      random_tensor(layer.weight_shape(), 0.25, rng, -8, 8);
  const ValueTensor want = oracle_conv(input, weights, layer, quant);

  const kernels::Span ys{3, 7};
  const kernels::Span xs{0, 9};  // touches the left border column
  ValueTensor tile({1, layer.out_channels(), ys.size, xs.size});
  kernels::run_layer_region(
      layer, kernels::PaddedInput::full(input, layer.in_h, layer.in_w),
      kernels::PackedWeights(layer, weights), ys, xs, 0,
      layer.out_channels(), quant, &tile, 0, 0);
  for (Index m = 0; m < layer.out_channels(); ++m) {
    for (Index y = 0; y < ys.size; ++y) {
      for (Index x = 0; x < xs.size; ++x) {
        ASSERT_EQ(tile.at_unchecked(0, m, y, x),
                  want.at_unchecked(0, m, ys.begin + y, xs.begin + x))
            << "m=" << m << " y=" << y << " x=" << x;
      }
    }
  }
}

/// A tile-local input buffer (origin-offset view of the logical map, as the
/// fused-pyramid walk produces) must compute the same outputs as the full
/// view, including where the receptive field overlaps the padding ring.
TEST(KernelsRegion, LocalBufferMatchesFullView) {
  WithThreads threads(4);
  util::Rng rng(106);
  const Quant quant;
  const LayerSpec layer = conv_layer("conv", 3, 16, 16, 5, 3, 1, 1);
  const ValueTensor input = random_tensor(layer.input_shape(), 0.4, rng);
  const ValueTensor weights =
      random_tensor(layer.weight_shape(), 0.25, rng, -8, 8);
  const ValueTensor want = oracle_conv(input, weights, layer, quant);

  // Output rows [4,8) x cols [3,7) need input rows [3,9) x cols [2,8).
  const Index iy0 = 3, iy1 = 9, ix0 = 2, ix1 = 8;
  ValueTensor local({1, layer.in_c, iy1 - iy0, ix1 - ix0});
  for (Index c = 0; c < layer.in_c; ++c) {
    for (Index y = iy0; y < iy1; ++y) {
      for (Index x = ix0; x < ix1; ++x) {
        local.at_unchecked(0, c, y - iy0, x - ix0) =
            input.at_unchecked(0, c, y, x);
      }
    }
  }
  const kernels::Span ys{4, 4};
  const kernels::Span xs{3, 4};
  ValueTensor tile({1, layer.out_channels(), ys.size, xs.size});
  kernels::run_layer_region(
      layer, kernels::PaddedInput::local(local, iy0, ix0, layer.in_h,
                                         layer.in_w),
      kernels::PackedWeights(layer, weights), ys, xs, 0,
      layer.out_channels(), quant, &tile, 0, 0);
  for (Index m = 0; m < layer.out_channels(); ++m) {
    for (Index y = 0; y < ys.size; ++y) {
      for (Index x = 0; x < xs.size; ++x) {
        ASSERT_EQ(tile.at_unchecked(0, m, y, x),
                  want.at_unchecked(0, m, ys.begin + y, xs.begin + x))
            << "m=" << m << " y=" << y << " x=" << x;
      }
    }
  }
}

/// Channel ranges that start or end inside an output-channel block (what a
/// caller's slicing may hand the kernel) must produce exactly the owned
/// maps and leave every other map of the output untouched.
TEST(KernelsRegion, ChannelRangesInsideBlocksPerIsa) {
  const Quant quant;
  const std::pair<Index, Index> ranges[] = {{3, 13}, {0, 5},  {9, 17},
                                            {13, 14}, {7, 9}, {0, 17}};
  for (util::KernelIsa isa : util::supported_isas()) {
    WithIsa forced(isa);
    util::Rng rng(110);
    for (Index stride : {1, 2}) {
      const LayerSpec layer =
          conv_layer("conv", 3, 15, 14, 17, 3, stride, 1, /*relu=*/false);
      const ValueTensor input = random_tensor(layer.input_shape(), 0.3, rng);
      const ValueTensor weights =
          random_tensor(layer.weight_shape(), 0.25, rng, -8, 8);
      const ValueTensor want = oracle_conv(input, weights, layer, quant);
      const kernels::PaddedInput full =
          kernels::PaddedInput::full(input, layer.in_h, layer.in_w);
      for (const auto& [m_begin, m_end] : ranges) {
        const std::string what = std::string("isa=") + util::isa_name(isa) +
                                 " s=" + std::to_string(stride) + " maps [" +
                                 std::to_string(m_begin) + "," +
                                 std::to_string(m_end) + ")";
        expect_region(layer, full, weights, {0, layer.out_h()},
                      {0, layer.out_w()}, m_begin, m_end, quant, want, what);
        expect_region(layer, full, weights, {2, 3}, {1, 4}, m_begin, m_end,
                      quant, want, what + " sub-window");
      }
    }
  }
}

/// Tile-local buffers (PaddedInput::local) at each map edge, where part of
/// the window is padding, and strictly inside the map, for conv and
/// depthwise, with channel counts that do not fill a whole block.
TEST(KernelsRegion, LocalBuffersAtEdgesAndInsidePerIsa) {
  const Quant quant;
  const LayerSpec conv = conv_layer("conv", 3, 16, 15, 9, 3, 1, 1);
  const LayerSpec conv_s2 = conv_layer("conv_s2", 3, 16, 15, 9, 5, 2, 2);
  const LayerSpec dw = depthwise_layer("dw", 9, 16, 15, 3, 1, 1);
  struct Window {
    kernels::Span ys, xs;
  };
  for (util::KernelIsa isa : util::supported_isas()) {
    WithIsa forced(isa);
    util::Rng rng(111);
    for (const LayerSpec* layer : {&conv, &conv_s2, &dw}) {
      const ValueTensor input = random_tensor(layer->input_shape(), 0.3, rng);
      const ValueTensor weights =
          random_tensor(layer->weight_shape(), 0.25, rng, -8, 8);
      const ValueTensor want =
          layer->kind == LayerKind::Conv
              ? oracle_conv(input, weights, *layer, quant)
              : oracle_depthwise(input, weights, *layer, quant);
      const Index oh = layer->out_h(), ow = layer->out_w();
      const Window windows[] = {
          {{0, 3}, {0, 4}},                  // top-left corner
          {{oh - 3, 3}, {ow - 4, 4}},        // bottom-right corner
          {{0, oh}, {0, ow}},                // the whole map
          {{1, oh - 2}, {0, 3}},             // left edge
          {{oh / 2 - 1, 2}, {ow / 2 - 1, 3}},  // strictly inside
      };
      for (const Window& w : windows) {
        // The exact clamped input window the executor's pyramid buffers.
        const Index iy0 = std::max<Index>(
            0, w.ys.begin * layer->stride - layer->pad);
        const Index iy1 = std::min<Index>(
            layer->in_h,
            (w.ys.end() - 1) * layer->stride - layer->pad + layer->kernel);
        const Index ix0 = std::max<Index>(
            0, w.xs.begin * layer->stride - layer->pad);
        const Index ix1 = std::min<Index>(
            layer->in_w,
            (w.xs.end() - 1) * layer->stride - layer->pad + layer->kernel);
        const ValueTensor local = copy_window(input, iy0, iy1, ix0, ix1);
        const std::string what =
            std::string("isa=") + util::isa_name(isa) + " " + layer->name +
            " window y=" + std::to_string(w.ys.begin) + "+" +
            std::to_string(w.ys.size) + " x=" + std::to_string(w.xs.begin) +
            "+" + std::to_string(w.xs.size);
        expect_region(*layer,
                      kernels::PaddedInput::local(local, iy0, ix0,
                                                  layer->in_h, layer->in_w),
                      weights, w.ys, w.xs, 0, layer->out_channels(), quant,
                      want, what);
        expect_region(*layer,
                      kernels::PaddedInput::local(local, iy0, ix0,
                                                  layer->in_h, layer->in_w),
                      weights, w.ys, w.xs, 2, 7, quant, want,
                      what + " maps [2,7)");
      }
    }
  }
}

/// A tile-local buffer one row or one column short of the window the
/// region reads is a fused-pyramid geometry bug: the kernels must throw,
/// never read past the buffer or substitute zeros.
TEST(KernelsRegion, ShortTileBufferThrowsGeometryCheck) {
  const Quant quant;
  util::Rng rng(112);
  const LayerSpec conv = conv_layer("conv", 3, 16, 16, 9, 3, 1, 1);
  const LayerSpec dw = depthwise_layer("dw", 3, 16, 16, 3, 1, 1);
  const LayerSpec pool = pool_layer("pool", 3, 16, 16, 2, 2);
  // Output rows [4,8) x cols [3,7): conv and depthwise read input rows
  // [3,9) x cols [2,8); the pool reads rows [8,16) x cols [6,14).
  struct Case {
    const LayerSpec* layer;
    Index iy0, iy1, ix0, ix1;
  };
  const Case cases[] = {
      {&conv, 3, 8, 2, 8}, {&conv, 4, 9, 2, 8}, {&conv, 3, 9, 2, 7},
      {&conv, 3, 9, 3, 8}, {&dw, 3, 8, 2, 8},   {&dw, 3, 9, 3, 8},
      {&pool, 8, 15, 6, 14}, {&pool, 8, 16, 7, 14},
  };
  for (util::KernelIsa isa : util::supported_isas()) {
    WithIsa forced(isa);
    for (const Case& c : cases) {
      const LayerSpec& layer = *c.layer;
      // Dense weights: no zero-weight skip can hide the missing element.
      const ValueTensor input = random_tensor(layer.input_shape(), 0.0, rng);
      const ValueTensor weights =
          layer.has_weights()
              ? random_tensor(layer.weight_shape(), 0.0, rng, -8, 8)
              : ValueTensor{};
      const ValueTensor local = copy_window(input, c.iy0, c.iy1, c.ix0, c.ix1);
      ValueTensor tile({1, layer.out_channels(), 4, 4});
      const std::string what =
          std::string("isa=") + util::isa_name(isa) + " " + layer.name +
          " buffer rows [" + std::to_string(c.iy0) + "," +
          std::to_string(c.iy1) + ") cols [" + std::to_string(c.ix0) + "," +
          std::to_string(c.ix1) + ")";
      try {
        kernels::run_layer_region(
            layer,
            kernels::PaddedInput::local(local, c.iy0, c.ix0, layer.in_h,
                                        layer.in_w),
            kernels::PackedWeights(layer, weights), {4, 4}, {3, 4}, 0,
            layer.out_channels(), quant, &tile, 0, 0);
        ADD_FAILURE() << what << ": no CheckFailure";
      } catch (const util::CheckFailure& e) {
        EXPECT_NE(std::string(e.what()).find("fused pyramid geometry bug"),
                  std::string::npos)
            << what << ": " << e.what();
      }
    }
  }
}

/// End-to-end: a fused conv-conv-pool group executed in tiles through the
/// packed kernels matches the layer-at-a-time reference, element-exact.
TEST(KernelsFused, TiledFusedGroupMatchesReference) {
  WithThreads threads(4);
  const nn::Network net =
      nn::make_synthetic("fused_net", 20, 20, {8, 12}, 3, true);
  util::Rng rng(107);
  const ValueTensor input =
      random_tensor(net.layers.front().input_shape(), 0.4, rng);
  const auto weights = random_weights(net, 0.25, rng);

  dataflow::NetworkPlan plan;
  for (const LayerSpec& layer : net.layers) {
    dataflow::LayerPlan lp;
    lp.tile = {layer.out_h(), layer.out_w(), layer.in_c,
               layer.out_channels()};
    plan.layers.push_back(lp);
  }
  // Fuse each conv into its trailing layer and tile the tails into quarters
  // so every fused pyramid walks tile-local stage buffers.
  for (std::size_t i = 0; i + 1 < net.layers.size(); i += 2) {
    plan.layers[i].fuse_with_next = true;
    const LayerSpec& tail = net.layers[i + 1];
    plan.layers[i + 1].tile.th = std::max<Index>(1, (tail.out_h() + 1) / 2);
    plan.layers[i + 1].tile.tw = std::max<Index>(1, (tail.out_w() + 1) / 2);
  }

  const dataflow::FunctionalResult result =
      dataflow::run_functional(net, plan, input, weights);
  const auto reference = run_network_ref(net, input, weights, Quant{});
  ASSERT_EQ(result.outputs.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    expect_identical(result.outputs[i], reference[i],
                     "layer " + net.layers[i].name);
  }
}

}  // namespace
}  // namespace mocha::nn
