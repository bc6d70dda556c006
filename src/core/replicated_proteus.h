// Fault-tolerant Proteus — the §III-E extension.
//
// Keeps r replicas of every (key, data) pair by running r consistent
// hashing rings that share the Algorithm 1 virtual-node placement but hash
// keys with r different hash functions. A key is stored on the server its
// hash selects on EVERY ring (occasionally the same server twice — the
// Eq. (3) conflict case, which the paper accepts as rare).
//
// Reads follow the one Algorithm 2 rule (cluster/transition_read.h): ring 0
// first; only while its server is down do they fail over to the other
// rings' locations, so a single crash costs nothing but the copies that only
// lived there — no remapping, no transition. Writes go to all replica
// locations. Provisioning transitions route by ring 0's mapping and digest
// broadcast (core/transition_lifecycle.h).
//
// Failure model: fail_server() emulates a crash — the server's memory (and
// digest) is lost and routing skips it until recover_server(). This matches
// §III-A's observation that a crash loses the cache regardless, and the
// redundancy exists exactly so requests still hit a warm copy.
//
// Routing health: each server carries the same phi-accrual EndpointHealth
// detector the live client uses (core/endpoint_health.h). fail_server()
// force-quarantines the detector, recover_server() drops it into probation,
// and the read path skips quarantined servers — so the facade exercises the
// identical healthy/suspect/quarantined/probation machine the wire client
// routes by, deterministically.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cache/cache_server.h"
#include "common/rng.h"
#include "common/time.h"
#include "core/endpoint_health.h"
#include "core/transition_lifecycle.h"
#include "hashring/proteus_placement.h"
#include "hashring/replicated_ring.h"

namespace proteus {

struct ReplicatedOptions {
  int max_servers = 10;
  int initial_servers = 0;  // 0 -> max_servers
  int replicas = 2;         // r of §III-E
  cache::CacheConfig per_server;
  SimTime ttl = 60 * kSecond;
  std::size_t object_charge = 0;
  // Crash recovery (core/transition_journal.h): when non-empty, resizes are
  // write-ahead journaled and an interrupted transition is resumed (or
  // rolled forward) on construction, exactly as in Proteus.
  std::string journal_path;
};

struct ReplicatedStats {
  std::uint64_t gets = 0;
  std::uint64_t primary_ring_hits = 0;   // served by ring 0's location
  std::uint64_t replica_ring_hits = 0;   // served by ring >= 1 (failover)
  std::uint64_t old_server_hits = 0;     // Algorithm 2 on-demand migrations
  std::uint64_t backend_fetches = 0;
  std::uint64_t failed_server_skips = 0; // routing skipped a crashed server
  std::uint64_t puts = 0;

  double hit_ratio() const noexcept {
    return gets ? static_cast<double>(primary_ring_hits + replica_ring_hits +
                                      old_server_hits) /
                      static_cast<double>(gets)
                : 0.0;
  }
};

class ReplicatedProteus {
 public:
  using Backend = std::function<std::string(std::string_view)>;

  ReplicatedProteus(ReplicatedOptions options, Backend backend);

  // Algorithm 2 over the replica rings (cluster/transition_read.h). An
  // old-location hit or a backend fetch is written back to every live
  // replica location.
  std::string get(std::string_view key, SimTime now);

  // Writes to every replica location (write-all, the §III-E storage rule).
  void put(std::string_view key, std::string value, SimTime now);
  void erase(std::string_view key, SimTime now);

  // Smooth provisioning transition across all rings (§IV per ring).
  void resize(int n_active, SimTime now);
  void tick(SimTime now) { lifecycle_.tick(now); }

  // Crash / recovery injection. fail_server force-quarantines the server's
  // health detector; recover_server re-admits it through probation.
  void fail_server(int server);
  void recover_server(int server);
  bool is_failed(int server) const { return failed_.at(static_cast<std::size_t>(server)); }
  // The phi-accrual detector routing consults for `server`.
  const core::EndpointHealth& health(int server) const {
    return health_.at(static_cast<std::size_t>(server));
  }

  int active_servers() const noexcept { return lifecycle_.router().active(); }
  int replicas() const noexcept { return options_.replicas; }
  bool in_transition() const noexcept {
    return lifecycle_.router().in_transition();
  }
  // Fencing epoch, bumped on every resize and restored from the journal.
  std::uint64_t cluster_epoch() const noexcept { return lifecycle_.epoch(); }
  const core::TransitionJournal& journal() const noexcept {
    return lifecycle_.journal();
  }
  const ReplicatedStats& stats() const noexcept { return stats_; }
  const cache::CacheServer& server(int i) const { return *servers_.at(static_cast<std::size_t>(i)); }
  const ring::ProteusPlacement& placement() const noexcept { return *placement_; }

  // All replica locations for a key under the current mapping (may contain
  // duplicates — the Eq. 3 conflict case).
  std::vector<int> replica_servers(std::string_view key) const;

 private:
  cache::CacheServer& mutable_server(int i) { return *servers_[static_cast<std::size_t>(i)]; }
  bool usable(int server) const {
    return !failed_[static_cast<std::size_t>(server)] &&
           servers_[static_cast<std::size_t>(server)]->power_state() !=
               cache::PowerState::kOff;
  }
  // The read path's routing gate: power/crash state AND the health machine
  // (quarantined servers are skipped until their probe dwell elapses; the
  // admitting call itself opens probation).
  bool admit(int server, SimTime now) {
    return usable(server) &&
           health_[static_cast<std::size_t>(server)].allow(now);
  }
  void note_success(int server, SimTime now) {
    health_[static_cast<std::size_t>(server)].record_success(now, 0, rng_);
  }
  std::size_t charge_for(const std::string& value) const noexcept {
    return options_.object_charge ? options_.object_charge : value.size();
  }

  ReplicatedOptions options_;
  Backend backend_;
  std::shared_ptr<const ring::ProteusPlacement> placement_;
  std::vector<std::unique_ptr<cache::CacheServer>> servers_;
  std::vector<bool> failed_;  // the lifecycle's skip set
  core::TransitionLifecycle lifecycle_;
  std::vector<core::EndpointHealth> health_;  // routing signal per server
  Rng rng_{0x9e3779b97f4a7c15ULL};  // probe-dwell jitter, deterministic
  SimTime last_now_ = 0;  // latest caller clock, for clock-less injections
  ReplicatedStats stats_;
};

}  // namespace proteus
