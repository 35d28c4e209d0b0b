// E10c — google-benchmark microbenchmarks of the packed compute kernels
// (nn/kernels.hpp): the padding-free interior fast path vs the checked
// border ring, at dense and 90%-sparse inputs, plus the FC dot-product
// kernels — each run once per ISA the host can dispatch to (scalar always,
// then avx2/neon when supported). The per-MAC gap between
// conv_interior/scalar and conv_interior/<vector-isa> is the SIMD win the
// dispatch layer buys without MOCHA_NATIVE.
//
// Before benchmarking, main() runs every vector ISA against the scalar
// oracle on all four workloads and aborts on any output mismatch, so a
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

struct ConvSetup {
  LayerSpec layer;
  ValueTensor input;
  ValueTensor weights;
  ValueTensor out;
};

ConvSetup make_conv(double input_sparsity, Index pad) {
  ConvSetup setup;
  setup.layer =
      mocha::nn::conv_layer("bench_conv", 32, 56, 56, 32, 3, 1, pad);
  mocha::util::Rng rng(29);
  setup.input = mocha::nn::random_tensor(setup.layer.input_shape(),
                                         input_sparsity, rng);
  setup.weights =
      mocha::nn::random_tensor(setup.layer.weight_shape(), 0.25, rng, -8, 8);
  setup.out = ValueTensor(setup.layer.output_shape());
  return setup;
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

/// Padding-free conv: every output position sits on the packed interior
/// path (raw row pointers, register-blocked accumulators).
void conv_interior(benchmark::State& state, util::KernelIsa isa,
                   double sparsity) {
  util::force_isa(isa);
  ConvSetup s = make_conv(sparsity, /*pad=*/0);
  const kernels::PaddedInput in =
      kernels::PaddedInput::full(s.input, s.layer.in_h, s.layer.in_w);
  for (auto _ : state) {
    kernels::run_layer_region(s.layer, in, s.weights, {0, s.layer.out_h()},
                              {0, s.layer.out_w()}, 0, s.layer.out_channels(),
                              Quant{}, &s.out, 0, 0);
    benchmark::DoNotOptimize(s.out.data());
  }
  state.SetItemsProcessed(state.iterations() * s.layer.macs());
}

/// Top output row of a padded conv: every position's receptive field
/// touches the zero-padding ring, so the whole region runs on the checked
/// border path — the per-MAC gap to conv_interior is the price of the
/// bounds/padding checks the interior split removes. The dispatch layer
/// does not vectorize this path, so it is also the per-ISA control.
void conv_border(benchmark::State& state, util::KernelIsa isa,
                 double sparsity) {
  util::force_isa(isa);
  ConvSetup s = make_conv(sparsity, /*pad=*/1);
  const kernels::PaddedInput in =
      kernels::PaddedInput::full(s.input, s.layer.in_h, s.layer.in_w);
  ValueTensor row_out({1, s.layer.out_channels(), 1, s.layer.out_w()});
  for (auto _ : state) {
    kernels::run_layer_region(s.layer, in, s.weights, {0, 1},
                              {0, s.layer.out_w()}, 0, s.layer.out_channels(),
                              Quant{}, &row_out, 0, 0);
    benchmark::DoNotOptimize(row_out.data());
  }
  state.SetItemsProcessed(state.iterations() * s.layer.macs() /
                          s.layer.out_h());
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

/// One forced-ISA pass over all four workloads; returns the concatenated
/// outputs so main() can compare vector ISAs against scalar byte-for-byte.
std::vector<ValueTensor> run_all_once(util::KernelIsa isa) {
  util::force_isa(isa);
  std::vector<ValueTensor> outs;
  for (double sparsity : {0.0, 0.9}) {
    ConvSetup c = make_conv(sparsity, /*pad=*/1);
    const kernels::PaddedInput in =
        kernels::PaddedInput::full(c.input, c.layer.in_h, c.layer.in_w);
    kernels::run_layer_region(c.layer, in, c.weights, {0, c.layer.out_h()},
                              {0, c.layer.out_w()}, 0, c.layer.out_channels(),
                              Quant{}, &c.out, 0, 0);
    outs.push_back(std::move(c.out));
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
    for (double sparsity : {0.0, 0.9}) {
      const std::string density = sparsity == 0 ? "dense" : "sparse90";
      benchmark::RegisterBenchmark(
          ("conv_interior/" + tag + "/" + density).c_str(),
          [isa, sparsity](benchmark::State& st) {
            conv_interior(st, isa, sparsity);
          });
      benchmark::RegisterBenchmark(
          ("conv_border/" + tag + "/" + density).c_str(),
          [isa, sparsity](benchmark::State& st) {
            conv_border(st, isa, sparsity);
          });
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
