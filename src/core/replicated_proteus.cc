#include "core/replicated_proteus.h"

#include <algorithm>

#include "cluster/transition_read.h"
#include "common/check.h"
#include "common/hash.h"

namespace proteus {

ReplicatedProteus::ReplicatedProteus(ReplicatedOptions options,
                                     Backend backend)
    : options_(options),
      backend_(std::move(backend)),
      placement_(std::make_shared<ring::ProteusPlacement>(options.max_servers)),
      failed_(static_cast<std::size_t>(options.max_servers), false),
      lifecycle_(servers_,
                 std::make_shared<cluster::Router>(
                     placement_, options.initial_servers > 0
                                     ? options.initial_servers
                                     : options.max_servers),
                 options.ttl, /*trace=*/nullptr, &failed_) {
  PROTEUS_CHECK(backend_ != nullptr);
  PROTEUS_CHECK(options_.max_servers >= 1);
  PROTEUS_CHECK(options_.replicas >= 1 &&
                options_.replicas <= cluster::TransitionRead::kMaxReplicas);
  servers_.reserve(static_cast<std::size_t>(options_.max_servers));
  health_.assign(static_cast<std::size_t>(options_.max_servers),
                 core::EndpointHealth{});
  for (int i = 0; i < options_.max_servers; ++i) {
    servers_.push_back(
        std::make_unique<cache::CacheServer>(options_.per_server));
    if (i >= active_servers()) servers_.back()->power_off();
  }
  lifecycle_.replay(options_.journal_path);
}

std::vector<int> ReplicatedProteus::replica_servers(
    std::string_view key) const {
  const std::uint64_t h = hash_bytes(key);
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(options_.replicas));
  for (int r = 0; r < options_.replicas; ++r) {
    out.push_back(
        placement_->server_for(ring::replica_ring_hash(h, r), active_servers()));
  }
  return out;
}

std::string ReplicatedProteus::get(std::string_view key, SimTime now) {
  using Step = cluster::TransitionRead::Step;
  using Reply = cluster::TransitionRead::Reply;
  using Outcome = cluster::TransitionRead::Outcome;
  tick(now);
  last_now_ = now;
  ++stats_.gets;
  const cluster::Router& router = lifecycle_.router();
  cluster::TransitionRead read(router, router.decide(key), key,
                               options_.replicas);
  const std::string k(key);
  std::string value;
  for (;;) {
    const Step step = read.next();
    switch (step.kind) {
      case Step::Kind::kGet: {
        // The current mapping's locations pass the health machine; an old
        // location is read whenever it is still up.
        const bool current = step.role != obs::SpanKind::kMigrationFetch;
        if (current ? !admit(step.server, now) : !usable(step.server)) {
          // Crashed, powered off, or health-quarantined — skipped either way.
          if (current) ++stats_.failed_server_skips;
          read.on_get(Reply::kDown);
          break;
        }
        auto hit = mutable_server(step.server).get(k, now);
        if (current) note_success(step.server, now);  // a miss is healthy too
        if (hit) value = std::move(*hit);
        read.on_get(hit ? Reply::kHit : Reply::kMiss);
        break;
      }
      case Step::Kind::kThrottle:
        read.on_throttle(true);
        break;
      case Step::Kind::kStore:
        // Write-all to the live replica locations: the line-12 migration
        // and the miss-path fill both repair every copy.
        for (int server : read) {
          if (usable(server)) {
            mutable_server(server).set(k, value, now, charge_for(value));
          }
        }
        break;
      case Step::Kind::kBackend:
        ++stats_.backend_fetches;
        value = backend_(key);
        read.on_backend(cluster::TransitionRead::Fetch::kFetched);
        break;
      case Step::Kind::kDone:
        if (read.outcome() == Outcome::kNewHit) ++stats_.primary_ring_hits;
        if (read.outcome() == Outcome::kFailoverHit) ++stats_.replica_ring_hits;
        if (read.outcome() == Outcome::kOldHit) ++stats_.old_server_hits;
        return value;
    }
  }
}

void ReplicatedProteus::put(std::string_view key, std::string value,
                            SimTime now) {
  tick(now);
  ++stats_.puts;
  const std::string k(key);
  const std::size_t charge = charge_for(value);

  // Write-all to the current replica locations, after invalidating every
  // OTHER powered server: copies abandoned by earlier mapping epochs (or
  // the in-flight transition's old locations) must not resurrect a stale
  // value when the mapping later returns to them.
  const std::vector<int> write_set = replica_servers(k);
  for (int i = 0; i < options_.max_servers; ++i) {
    if (std::find(write_set.begin(), write_set.end(), i) == write_set.end() &&
        servers_[static_cast<std::size_t>(i)]->power_state() !=
            cache::PowerState::kOff) {
      mutable_server(i).erase(k);
    }
  }
  for (int server : write_set) {
    if (usable(server)) mutable_server(server).set(k, value, now, charge);
  }
}

void ReplicatedProteus::erase(std::string_view key, SimTime now) {
  tick(now);
  const std::string k(key);
  for (int i = 0; i < options_.max_servers; ++i) {
    if (servers_[static_cast<std::size_t>(i)]->power_state() !=
        cache::PowerState::kOff) {
      mutable_server(i).erase(k);
    }
  }
}

void ReplicatedProteus::resize(int n_active, SimTime now) {
  tick(now);
  lifecycle_.resize(n_active, now);
}

void ReplicatedProteus::fail_server(int server) {
  PROTEUS_CHECK(server >= 0 && server < options_.max_servers);
  if (failed_[static_cast<std::size_t>(server)]) return;
  failed_[static_cast<std::size_t>(server)] = true;
  // The membership layer declared the server dead: quarantine the routing
  // detector immediately rather than waiting for errors to accrue.
  health_[static_cast<std::size_t>(server)].force_quarantine(last_now_, rng_);
  // A crash loses the in-memory cache (§III-A).
  if (mutable_server(server).power_state() != cache::PowerState::kOff) {
    mutable_server(server).power_off();
  }
}

void ReplicatedProteus::recover_server(int server) {
  PROTEUS_CHECK(server >= 0 && server < options_.max_servers);
  if (!failed_[static_cast<std::size_t>(server)]) return;
  failed_[static_cast<std::size_t>(server)] = false;
  // Operator re-admission: skip the probe dwell, prove health in probation.
  health_[static_cast<std::size_t>(server)].begin_probation();
  // Rejoin cold if the server is inside the active set.
  if (server < active_servers()) {
    mutable_server(server).power_on();
  }
}

}  // namespace proteus
