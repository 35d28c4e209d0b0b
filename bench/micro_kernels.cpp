// E10c — google-benchmark microbenchmarks of the packed compute kernels
// (nn/kernels.hpp): whole conv layers at 13-, 27-, 56- and 224-wide output
// maps plus AlexNet conv1's k 11 / s 4, and the FC dot-product kernels at
// dense and 90%-sparse inputs — each run once per ISA the host can dispatch
// to (scalar always, then avx2/neon when supported). The conv cases time
// run_layer_region over the whole output with the weights packed once
// outside the loop, as the executor does; the per-MAC gap between
// conv/scalar/... and conv/<vector-isa>/... is the SIMD win the dispatch
// layer buys without MOCHA_NATIVE. Channel counts of the larger layers are
// cut so that the forced-scalar and sanitizer runs stay short; the map
// width, kernel and stride are the real layers'.
//
// Before benchmarking, main() runs every vector ISA against the scalar
// oracle on every workload and aborts on any output mismatch, so a
// miscompiled or subtly-wrong SIMD variant fails this binary loudly
// instead of publishing fast-but-wrong numbers.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "nn/generate.hpp"
#include "nn/kernels.hpp"
#include "nn/layer.hpp"
#include "util/cpuid.hpp"
#include "util/rng.hpp"

namespace {

using mocha::nn::Index;
using mocha::nn::LayerSpec;
using mocha::nn::Quant;
using mocha::nn::ValueTensor;
namespace kernels = mocha::nn::kernels;
namespace util = mocha::util;

/// One conv layer of the sweep: the real layer's map width, kernel and
/// stride.
struct ConvCase {
  const char* name;
  Index in_c, in_hw, out_c, kernel, stride, pad;
};

constexpr ConvCase kConvCases[] = {
    {"alexnet_conv5_w13", 384, 13, 256, 3, 1, 1},
    {"alexnet_conv2_w27", 96, 27, 64, 5, 1, 2},
    {"vgg16_w56", 64, 56, 64, 3, 1, 1},
    {"vgg16_conv1_w224", 3, 224, 64, 3, 1, 1},
    {"alexnet_conv1_k11s4", 3, 227, 96, 11, 4, 0},
};

struct ConvSetup {
  LayerSpec layer;
  ValueTensor input;
  ValueTensor weights;
  ValueTensor out;
};

/// 5%-sparse input, 20%-sparse weights in -8..8 (the exec workload's
/// densities; the conv kernel is dense, so they change no timing).
ConvSetup make_conv(const ConvCase& c) {
  ConvSetup setup;
  setup.layer = mocha::nn::conv_layer(c.name, c.in_c, c.in_hw, c.in_hw,
                                      c.out_c, c.kernel, c.stride, c.pad);
  mocha::util::Rng rng(29);
  setup.input =
      mocha::nn::random_tensor(setup.layer.input_shape(), 0.05, rng);
  setup.weights =
      mocha::nn::random_tensor(setup.layer.weight_shape(), 0.2, rng, -8, 8);
  setup.out = ValueTensor(setup.layer.output_shape());
  return setup;
}

/// The whole output of one layer through run_layer_region, one lane.
void run_conv(const ConvSetup& s, const kernels::PackedWeights& packed,
              ValueTensor* out) {
  kernels::run_layer_region(
      s.layer, kernels::PaddedInput::full(s.input, s.layer.in_h, s.layer.in_w),
      packed, {0, s.layer.out_h()}, {0, s.layer.out_w()}, 0,
      s.layer.out_channels(), Quant{}, out, 0, 0);
}

struct FcSetup {
  LayerSpec layer;
  ValueTensor input;
  ValueTensor weights;
  ValueTensor out;
};

FcSetup make_fc(double input_sparsity) {
  FcSetup setup;
  setup.layer = mocha::nn::fc_layer("bench_fc", 4096, 1024);
  mocha::util::Rng rng(31);
  setup.input = mocha::nn::random_tensor(setup.layer.input_shape(),
                                         input_sparsity, rng);
  setup.weights =
      mocha::nn::random_tensor(setup.layer.weight_shape(), 0.25, rng, -8, 8);
  setup.out = ValueTensor(setup.layer.output_shape());
  return setup;
}

void conv_layer(benchmark::State& state, util::KernelIsa isa,
                const ConvCase& c) {
  util::force_isa(isa);
  ConvSetup s = make_conv(c);
  const kernels::PackedWeights packed(s.layer, s.weights);
  for (auto _ : state) {
    run_conv(s, packed, &s.out);
    benchmark::DoNotOptimize(s.out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * s.layer.macs());
}

/// Fully connected layer: dense input takes fc_dot_dense, 90%-sparse input
/// drops under the density threshold and takes the nonzero-gather path.
void fc_full(benchmark::State& state, util::KernelIsa isa, double sparsity) {
  util::force_isa(isa);
  FcSetup s = make_fc(sparsity);
  for (auto _ : state) {
    kernels::fc_region(s.layer, s.input.data(), s.weights, 0,
                       s.layer.out_channels(), Quant{}, &s.out);
    benchmark::DoNotOptimize(s.out.data());
  }
  state.SetItemsProcessed(state.iterations() * s.layer.macs());
}

/// One forced-ISA pass over every workload; returns the concatenated
/// outputs so main() can compare vector ISAs against scalar byte-for-byte.
std::vector<ValueTensor> run_all_once(util::KernelIsa isa) {
  util::force_isa(isa);
  std::vector<ValueTensor> outs;
  for (const ConvCase& c : kConvCases) {
    ConvSetup s = make_conv(c);
    run_conv(s, kernels::PackedWeights(s.layer, s.weights), &s.out);
    outs.push_back(std::move(s.out));
  }
  for (double sparsity : {0.0, 0.9}) {
    FcSetup f = make_fc(sparsity);
    kernels::fc_region(f.layer, f.input.data(), f.weights, 0,
                       f.layer.out_channels(), Quant{}, &f.out);
    outs.push_back(std::move(f.out));
  }
  return outs;
}

/// Every dispatched ISA must reproduce the scalar oracle exactly; a
/// mismatch means the benchmark numbers would be meaningless, so fail the
/// whole binary.
bool self_check() {
  const std::vector<ValueTensor> oracle = run_all_once(util::KernelIsa::Scalar);
  bool ok = true;
  for (util::KernelIsa isa : util::supported_isas()) {
    if (isa == util::KernelIsa::Scalar) continue;
    const std::vector<ValueTensor> got = run_all_once(isa);
    for (std::size_t w = 0; w < oracle.size(); ++w) {
      if (std::memcmp(got[w].data(), oracle[w].data(),
                      static_cast<std::size_t>(oracle[w].size()) *
                          sizeof(mocha::nn::Value)) != 0) {
        std::fprintf(stderr,
                     "micro_kernels: self-check FAILED: %s workload %zu "
                     "diverges from scalar\n",
                     util::isa_name(isa), w);
        ok = false;
      }
    }
  }
  return ok;
}

void register_benches() {
  for (util::KernelIsa isa : util::supported_isas()) {
    const std::string tag = util::isa_name(isa);
    for (const ConvCase& c : kConvCases) {
      benchmark::RegisterBenchmark(
          ("conv/" + tag + "/" + c.name).c_str(),
          [isa, &c](benchmark::State& st) { conv_layer(st, isa, c); })
          ->Unit(benchmark::kMillisecond);
    }
    for (double sparsity : {0.0, 0.9}) {
      const std::string density = sparsity == 0 ? "dense" : "sparse90";
      benchmark::RegisterBenchmark(("fc/" + tag + "/" + density).c_str(),
                                   [isa, sparsity](benchmark::State& st) {
                                     fc_full(st, isa, sparsity);
                                   });
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (!self_check()) return 1;
  util::force_isa(util::best_supported_isa());
  register_benches();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
