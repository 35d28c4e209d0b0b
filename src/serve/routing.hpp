// Replica placement for the serving fleet.
//
// Every (tenant, model) key hashes to one of a fixed number of routing
// slots, and each (model, slot) pair rendezvous-hashes to an ordered
// *replica set*: the top-R live shards, highest score first. Rendezvous
// scoring keeps disruption minimal — removing a shard only remaps the slots
// whose replica set contained it, and re-adding it restores every set
// bit-for-bit — so quarantine and readmission leave the rest of the fleet's
// plan caches warm. Both functions are pure: the router calls them per
// request over its current list of live shards.
#pragma once

#include <string_view>
#include <vector>

namespace mocha::serve {

/// Routing slot for a placement key ("tenant|model"): FNV-1a of the key
/// reduced mod `slots`.
int routing_slot(std::string_view key, int slots);

/// Ordered replica set for (model, slot) over the live shards `members`:
/// the min(replicas, members) distinct shards with the highest rendezvous
/// scores, best first, ties broken toward the lower shard id. Pure and
/// deterministic — same inputs, same set, independent of member order.
std::vector<int> rendezvous_replicas(std::string_view model, int slot,
                                     const std::vector<int>& members,
                                     int replicas);

}  // namespace mocha::serve
