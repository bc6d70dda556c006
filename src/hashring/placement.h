// Load-distribution strategy interface (paper Table II scenarios).
//
// A placement maps a hashed data key to a cache-server index, given the
// number of currently active servers. Servers are identified by their
// position in the *fixed provisioning order* (§III-A): index 0 is the first
// server to turn on and the last to turn off; with n active servers exactly
// indices {0, ..., n-1} are on.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/hash.h"

namespace proteus::ring {

using KeyHash = std::uint64_t;

// The consistent hashing ring key space. 2^62 (instead of 2^64) keeps all
// host-range arithmetic comfortably inside uint64 with no overflow special
// cases; hashes are folded into the space by a shift.
inline constexpr std::uint64_t kRingSpace = 1ULL << 62;

inline constexpr std::uint64_t ring_position(KeyHash h) noexcept {
  return h >> 2;  // uniform fold of a 64-bit hash into [0, 2^62)
}

// Fault-tolerant replication (§III-E) runs r rings that SHARE one
// placement but hash keys with r different hash functions: ring r's
// location of a key is server_for(replica_ring_hash(h, r), n). Ring 0 uses
// the key hash unchanged, so one replica is exactly the bare placement;
// ring i >= 1 re-mixes with a ring-specific seed. Eq. (3) gives the
// probability that the r locations are r distinct servers.
inline KeyHash replica_ring_hash(KeyHash key_hash, int ring) noexcept {
  return ring == 0 ? key_hash
                   : hash_u64(key_hash,
                              0xabcd1234u + static_cast<std::uint64_t>(ring));
}

class PlacementStrategy {
 public:
  virtual ~PlacementStrategy() = default;

  // Which server serves `key_hash` when servers {0..n_active-1} are on?
  // Precondition: 1 <= n_active <= max_servers().
  virtual int server_for(KeyHash key_hash, int n_active) const = 0;

  virtual int max_servers() const noexcept = 0;
  virtual std::string_view name() const noexcept = 0;
};

}  // namespace proteus::ring
