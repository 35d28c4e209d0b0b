// E10a — google-benchmark microbenchmarks of the codec implementations:
// encode/decode throughput across sparsities (the codec engines' software
// model must be fast enough to feed functional-mode sweeps). Args are
// {codec kind, sparsity %, log2 stream length}: 64 Ki-element streams fit
// in L2, and one 4 Mi-element case per codec at 20 % sparsity (AlexNet's
// FC weights) measures the out-of-cache rate kernel streams see.
#include <benchmark/benchmark.h>

#include "compress/codec.hpp"
#include "util/rng.hpp"

namespace {

using mocha::compress::CodecKind;
using mocha::nn::Value;

std::vector<Value> make_stream(std::size_t n, double sparsity) {
  mocha::util::Rng rng(42);
  std::vector<Value> out(n);
  for (Value& v : out) {
    if (rng.bernoulli(sparsity)) {
      v = 0;
    } else {
      v = static_cast<Value>(rng.uniform_int(-96, 96));
      if (v == 0) v = 1;
    }
  }
  return out;
}

void BM_Encode(benchmark::State& state) {
  const auto kind = static_cast<CodecKind>(state.range(0));
  const double sparsity = static_cast<double>(state.range(1)) / 100.0;
  const auto codec = mocha::compress::make_codec(kind);
  const auto stream = make_stream(std::size_t{1} << state.range(2), sparsity);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec->encode(stream));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream.size() * 2));
  state.SetLabel(mocha::compress::codec_name(kind));
}

void BM_Decode(benchmark::State& state) {
  const auto kind = static_cast<CodecKind>(state.range(0));
  const double sparsity = static_cast<double>(state.range(1)) / 100.0;
  const auto codec = mocha::compress::make_codec(kind);
  const auto stream = make_stream(std::size_t{1} << state.range(2), sparsity);
  const auto coded = codec->encode(stream);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec->decode(coded, stream.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream.size() * 2));
  state.SetLabel(mocha::compress::codec_name(kind));
}

void CodecArgs(benchmark::internal::Benchmark* bench) {
  for (int kind = 1; kind <= 3; ++kind) {  // skip None
    for (int sparsity : {0, 50, 90}) {
      bench->Args({kind, sparsity, 16});
    }
  }
}

void OutOfCacheArgs(benchmark::internal::Benchmark* bench) {
  for (int kind = 1; kind <= 3; ++kind) bench->Args({kind, 20, 22});
}

// The out-of-cache cases run last: freeing their 8 MB buffers raises
// glibc's dynamic mmap threshold, after which the in-cache cases' 512 KB
// Huffman tables stop being mapped and faulted in per call and read up to
// 1.9x faster.
BENCHMARK(BM_Encode)->Apply(CodecArgs)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Decode)->Apply(CodecArgs)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Encode)->Apply(OutOfCacheArgs)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Decode)->Apply(OutOfCacheArgs)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
