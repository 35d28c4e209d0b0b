// Packed-kernel equivalence: the interior/border-split, register-blocked,
// zero-skipping microkernels (nn/kernels.hpp) must be *bit-identical* to a
// naive loop nest over every geometry — integer arithmetic is exact, so any
// mismatch is a real indexing or skipping bug, not rounding. The oracle
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
      weights, ys, xs, 0, layer.out_channels(), quant, &tile, 0, 0);
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
      weights, ys, xs, 0, layer.out_channels(), quant, &tile, 0, 0);
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
