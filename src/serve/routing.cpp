#include "serve/routing.hpp"

#include <algorithm>
#include <cstdint>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace mocha::serve {

namespace {

/// FNV-1a 64-bit: the key hash behind both slots and rendezvous scores.
std::uint64_t fnv1a(std::string_view key) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : key) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// The SplitMix64 finalizer spreads the (model, slot, shard) lattice into
/// rendezvous scores.
std::uint64_t rendezvous_score(std::uint64_t model_hash, int slot, int shard) {
  const std::uint64_t slot_h = util::mix64(
      0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(slot) + 1));
  const std::uint64_t shard_h = util::mix64(
      0xc2b2ae3d27d4eb4full * (static_cast<std::uint64_t>(shard) + 1));
  return util::mix64(model_hash ^ slot_h ^ shard_h);
}

}  // namespace

int routing_slot(std::string_view key, int slots) {
  MOCHA_CHECK(slots >= 1, "routing_slot needs >= 1 slot");
  return static_cast<int>(fnv1a(key) % static_cast<std::uint64_t>(slots));
}

std::vector<int> rendezvous_replicas(std::string_view model, int slot,
                                     const std::vector<int>& members,
                                     int replicas) {
  MOCHA_CHECK(replicas >= 1, "replica set size must be >= 1");
  const std::uint64_t model_hash = fnv1a(model);
  struct Scored {
    std::uint64_t score;
    int shard;
  };
  std::vector<Scored> scored;
  scored.reserve(members.size());
  for (const int shard : members) {
    scored.push_back({rendezvous_score(model_hash, slot, shard), shard});
  }
  std::sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.shard < b.shard;
  });
  const std::size_t take =
      std::min<std::size_t>(scored.size(), static_cast<std::size_t>(replicas));
  std::vector<int> out;
  out.reserve(take);
  for (std::size_t i = 0; i < take; ++i) out.push_back(scored[i].shard);
  return out;
}

}  // namespace mocha::serve
