// Deterministic pseudo-random number generation for workload synthesis.
//
// All stochastic inputs (tensor values, sparsity masks) flow through this
// single generator type so experiments are reproducible from a seed.
#pragma once

#include <cstdint>
#include <limits>

#include "util/assert.hpp"

namespace mocha::util {

/// SplitMix64 finalizer: a bijective 64-bit mix that spreads nearby inputs
/// (consecutive seeds, ids, lattice points) across the whole range.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// xoshiro256** — small, fast, high-quality PRNG (Blackman & Vigna).
/// Satisfies UniformRandomBitGenerator so it composes with <random>,
/// but the common draws used by the generators are provided directly.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

  /// Re-initializes the state via splitmix64 so any seed (including 0)
  /// yields a well-mixed state.
  void reseed(std::uint64_t seed) {
    for (auto& word : state_) {
      seed += 0x9E3779B97F4A7C15ull;
      word = mix64(seed);
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    MOCHA_CHECK(lo <= hi, "lo=" << lo << " hi=" << hi);
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    // Modulo bias is negligible for span << 2^64; acceptable for synthesis.
    return lo + static_cast<std::int64_t>((*this)() % span);
  }

  /// Bernoulli draw with probability p of returning true.
  bool bernoulli(double p) { return uniform() < p; }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace mocha::util
