// The one Algorithm 2 read (cluster/transition_read.h): the step machine on
// its own, the same outcome sequence from the facade and the wire client at
// r = 1 and r = 2, and the §III-E rule at r = 2 pinned on the facade, the
// simulated web tier and the wire client.
#include "cluster/transition_read.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/memcache_client.h"
#include "cluster/cache_cluster.h"
#include "cluster/web_tier.h"
#include "common/rng.h"
#include "core/proteus.h"
#include "hashring/proteus_placement.h"
#include "net/memcache_daemon.h"

namespace proteus {
namespace {

using cluster::Router;
using cluster::TransitionRead;
using Kind = TransitionRead::Step::Kind;
using Reply = TransitionRead::Reply;
using Outcome = TransitionRead::Outcome;

// Ring-r location of `key` with `active` of `max` servers.
int location(std::string_view key, int ring, int active, int max = 10) {
  const ring::ProteusPlacement placement(max);
  return placement.server_for(ring::replica_ring_hash(hash_bytes(key), ring),
                              active);
}

// --- the machine -------------------------------------------------------------

TransitionRead steady_read(std::string_view key, int replicas) {
  const Router router(std::make_shared<ring::ProteusPlacement>(10), 10);
  return TransitionRead(router, router.decide(key), key, replicas);
}

TEST(TransitionRead, PrimaryHitEndsTheRead) {
  TransitionRead read = steady_read("k", 1);
  const auto step = read.next();
  EXPECT_EQ(step.kind, Kind::kGet);
  EXPECT_EQ(step.role, obs::SpanKind::kCacheGet);
  EXPECT_EQ(step.server, read.primary());
  read.on_get(Reply::kHit);
  EXPECT_EQ(read.next().kind, Kind::kDone);
  EXPECT_EQ(read.outcome(), Outcome::kNewHit);
  EXPECT_EQ(read.root_cause(), obs::SpanCause::kHit);
}

TEST(TransitionRead, ColdMissFetchesThenFillsEveryLocation) {
  TransitionRead read = steady_read("k", 1);
  read.on_get(Reply::kMiss);
  EXPECT_EQ(read.next().kind, Kind::kBackend);
  read.on_backend(TransitionRead::Fetch::kFetched);
  const auto fill = read.next();
  EXPECT_EQ(fill.kind, Kind::kStore);
  EXPECT_EQ(fill.role, obs::SpanKind::kFill);
  EXPECT_EQ(read.next().kind, Kind::kDone);
  EXPECT_EQ(read.outcome(), Outcome::kBackendFill);
  EXPECT_FALSE(read.false_positive());
}

TEST(TransitionRead, CoalescedFetchSkipsTheFill) {
  TransitionRead read = steady_read("k", 1);
  read.on_get(Reply::kMiss);
  read.on_backend(TransitionRead::Fetch::kCoalesced);
  EXPECT_EQ(read.next().kind, Kind::kDone);
  EXPECT_EQ(read.outcome(), Outcome::kBackendFill);
}

TEST(TransitionRead, ShedPrimaryNeverReachesTheBackend) {
  TransitionRead read = steady_read("k", 2);
  read.on_get(Reply::kShed);
  EXPECT_EQ(read.next().kind, Kind::kDone);
  EXPECT_EQ(read.outcome(), Outcome::kShed);
}

TEST(TransitionRead, DownPrimaryWithoutReplicasDegradesToTheBackend) {
  TransitionRead read = steady_read("k", 1);
  read.on_get(Reply::kDown);
  EXPECT_EQ(read.next().kind, Kind::kBackend);
  EXPECT_TRUE(read.degraded());
}

TEST(TransitionRead, CorruptPrimaryIsServedAsAMissAndFlagged) {
  TransitionRead read = steady_read("k", 2);
  read.on_get(Reply::kCorrupt);
  EXPECT_EQ(read.next().kind, Kind::kBackend);  // no failover: not down
  EXPECT_TRUE(read.corrupt_seen());
}

TEST(TransitionRead, ReplicaLocationsAreDistinctPrimaryFirst) {
  for (int i = 0; i < 200; ++i) {
    const std::string key = "page:" + std::to_string(i);
    const TransitionRead read = steady_read(key, 3);
    const std::vector<int> locations(read.begin(), read.end());
    ASSERT_FALSE(locations.empty());
    EXPECT_EQ(locations.front(), location(key, 0, 10));
    for (std::size_t a = 0; a < locations.size(); ++a) {
      for (std::size_t b = a + 1; b < locations.size(); ++b) {
        EXPECT_NE(locations[a], locations[b]) << key;
      }
    }
  }
}

// --- one outcome sequence from the facade and the wire client ----------------

constexpr int kFleet = 6;
constexpr SimTime kTtl = 10 * kSecond;

cache::CacheConfig fleet_cache_config() {
  cache::CacheConfig config;
  config.memory_budget_bytes = 8 << 20;  // never evicts in the script
  config.auto_size_digest = false;       // one geometry everywhere
  config.digest.num_counters = 128;  // small: false positives occur
  config.digest.counter_bits = 4;
  config.digest.num_hashes = 3;
  return config;
}

std::string backend_value(std::string_view key) {
  return "db:" + std::string(key);
}

// Loopback daemons in provisioning order.
class DaemonFleet {
 public:
  explicit DaemonFleet(int n, cache::CacheConfig config = fleet_cache_config()) {
    for (int i = 0; i < n; ++i) {
      daemons_.push_back(std::make_unique<net::MemcacheDaemon>(config, 0));
      EXPECT_TRUE(daemons_.back()->ok());
      ports_.push_back(daemons_.back()->port());
      threads_.emplace_back([d = daemons_.back().get()] { d->run(); });
    }
  }
  ~DaemonFleet() {
    for (std::size_t i = 0; i < daemons_.size(); ++i) kill(static_cast<int>(i));
  }
  void kill(int i) {
    auto& d = daemons_[static_cast<std::size_t>(i)];
    if (d == nullptr) return;
    d->stop();
    threads_[static_cast<std::size_t>(i)].join();
    d.reset();
  }
  const std::vector<std::uint16_t>& ports() const { return ports_; }
  client::MemcacheConnection connect(int i) const {
    return client::MemcacheConnection(ports_[static_cast<std::size_t>(i)]);
  }

 private:
  std::vector<std::unique_ptr<net::MemcacheDaemon>> daemons_;
  std::vector<std::uint16_t> ports_;
  std::vector<std::thread> threads_;
};

client::ProteusClient::Options client_options(
    const std::vector<std::uint16_t>& ports, int replicas) {
  client::ProteusClient::Options opt;
  opt.endpoints = ports;
  opt.ttl = kTtl;
  opt.replicas = replicas;
  opt.hedging = false;  // outcomes must not depend on wall-clock jitter
  // Generous deadlines: a slow reply under a loaded test host must not
  // turn into a down server and change the outcome being compared.
  opt.connect_timeout = 2 * kSecond;
  opt.op_timeout = 2 * kSecond;
  opt.health.min_deviation_usec = 1e9;
  return opt;
}

// Hit/miss path tags read off each front end's stats around one get.
enum : char { kNew = 'N', kFailover = 'F', kOld = 'O', kBackend = 'B' };

// A seeded script: warm six servers, shrink 6 -> 4, let the drain window
// end, shrink 4 -> 3, let it end again — gets and puts throughout. Shrinks
// only, so no front end ever routes back to a server it powered off.
// Returns one "<tag><value>" entry per get.
template <class Get, class Put, class Resize>
std::vector<std::string> run_script(Get get, Put put, Resize resize) {
  Rng rng(1302);
  std::vector<std::string> outcomes;
  SimTime now = 0;
  int puts = 0;
  const auto phase = [&](int ops) {
    for (int i = 0; i < ops; ++i) {
      now += kMillisecond;
      const std::string key =
          "key:" + std::to_string(rng.next_below(600));
      if (rng.next_below(5) == 0) {
        put(key, "put:" + std::to_string(puts++), now);
      } else {
        outcomes.push_back(get(key, now));
      }
    }
  };
  phase(600);
  resize(4, now += kSecond);
  phase(600);
  now += 2 * kTtl;
  phase(300);
  resize(3, now += kSecond);
  phase(600);
  now += 2 * kTtl;
  phase(300);
  return outcomes;
}

// FNV-1a over the joined outcome sequence.
std::uint64_t fingerprint(const std::vector<std::string>& outcomes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& o : outcomes) {
    for (const char c : o + "\n") {
      h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
  }
  return h;
}

template <class Stats>
char tag_of(const Stats& before, const Stats& after) {
  if (after.new_server_hits > before.new_server_hits) return kNew;
  if (after.failover_hits > before.failover_hits) return kFailover;
  if (after.old_server_hits > before.old_server_hits) return kOld;
  return kBackend;
}

// run_script on one front end (the facade or the wire client).
template <class FrontEnd>
std::vector<std::string> run_script_on(FrontEnd& front_end) {
  return run_script(
      [&](const std::string& key, SimTime now) {
        const auto before = front_end.stats();
        std::string value = front_end.get(key, now);
        return tag_of(before, front_end.stats()) + value;
      },
      [&](const std::string& key, const std::string& value, SimTime now) {
        front_end.put(key, value, now);
      },
      [&](int n, SimTime now) { front_end.resize(n, now); });
}

ProteusOptions fleet_facade_options(int replicas) {
  ProteusOptions opt;
  opt.max_servers = kFleet;
  opt.replicas = replicas;
  opt.per_server = fleet_cache_config();
  opt.ttl = kTtl;
  return opt;
}

void expect_same_outcomes(const std::vector<std::string>& facade,
                          const std::vector<std::string>& wire) {
  ASSERT_EQ(facade.size(), wire.size());
  for (std::size_t i = 0; i < facade.size(); ++i) {
    ASSERT_EQ(facade[i], wire[i]) << "get #" << i;
  }
}

TEST(CrossFrontEndOutcomes, FacadeAndWireClientAgreeGetForGet) {
  Proteus facade(fleet_facade_options(1), backend_value);
  const std::vector<std::string> facade_outcomes = run_script_on(facade);
  DaemonFleet fleet(kFleet);
  client::ProteusClient wire(client_options(fleet.ports(), 1), backend_value);
  const std::vector<std::string> wire_outcomes = run_script_on(wire);

  expect_same_outcomes(facade_outcomes, wire_outcomes);
  // The script exercises every r = 1 path.
  EXPECT_GT(facade.stats().new_server_hits, 0u);
  EXPECT_GT(facade.stats().old_server_hits, 0u);
  EXPECT_GT(facade.stats().backend_fetches, 0u);
  EXPECT_GT(facade.stats().digest_false_positives, 0u);
  EXPECT_EQ(facade.stats().digest_false_positives,
            wire.stats().digest_false_positives);
  // The facade's sequence as recorded from the per-front-end reads this
  // machine replaced (1921 gets: 1283 new hits, 116 old-location hits,
  // 522 backend fills, 20 digest false positives); any change to the
  // r = 1 rule moves it.
  EXPECT_EQ(fingerprint(facade_outcomes), 0x0ea613d4e302ff47ULL);
}

TEST(CrossFrontEndOutcomes, TwoReplicaFacadeAndWireClientAgreeGetForGet) {
  Proteus facade(fleet_facade_options(2), backend_value);
  const std::vector<std::string> facade_outcomes = run_script_on(facade);
  DaemonFleet fleet(kFleet);
  client::ProteusClient wire(client_options(fleet.ports(), 2), backend_value);
  const std::vector<std::string> wire_outcomes = run_script_on(wire);

  expect_same_outcomes(facade_outcomes, wire_outcomes);
  EXPECT_GT(facade.stats().new_server_hits, 0u);
  EXPECT_GT(facade.stats().old_server_hits, 0u);
  EXPECT_GT(facade.stats().backend_fetches, 0u);
  EXPECT_EQ(facade.stats().digest_false_positives,
            wire.stats().digest_false_positives);
  EXPECT_EQ(wire.stats().digest_false_positives, 34u);
  // Recorded from the separate replicated facade this one replaced (1921
  // gets: 1313 ring-0 hits, 94 old-location hits, 514 backend fills); any
  // change to the r = 2 rule or the r = 2 write set moves it.
  EXPECT_EQ(fingerprint(facade_outcomes), 0xa791a9eb012a1d67ULL);
}

// --- the r = 2 rule on the facade --------------------------------------------

ProteusOptions replicated_options() {
  ProteusOptions opt;
  opt.max_servers = 10;
  opt.replicas = 2;
  opt.per_server.memory_budget_bytes = 8 << 20;
  opt.ttl = 60 * kSecond;
  return opt;
}

cache::CacheServer& mutable_server(Proteus& cluster, int i) {
  return const_cast<cache::CacheServer&>(cluster.server(i));
}

// A key warmed under `before` active servers whose ring-0 location moved in
// the shrink to `after` (so the digest marks it hot on its old location),
// with a ring-1 location under `after` distinct from both.
struct MovedKey {
  std::string key;
  int primary = -1;   // ring 0, new mapping
  int old = -1;       // ring 0, old mapping
  int replica = -1;   // ring 1, new mapping
};

MovedKey find_moved_key(int max, int before, int after, int skip = 0) {
  for (int i = 0; i < 1000; ++i) {
    MovedKey m;
    m.key = "page:" + std::to_string(i);
    m.primary = location(m.key, 0, after, max);
    m.old = location(m.key, 0, before, max);
    m.replica = location(m.key, 1, after, max);
    if (m.primary != m.old && m.replica != m.primary && m.replica != m.old &&
        skip-- == 0) {
      return m;
    }
  }
  ADD_FAILURE() << "no moved key";
  return {};
}

TEST(ReplicatedRule, CleanRingZeroMissNeverProbesRingOne) {
  std::uint64_t backend = 0;
  Proteus cluster(replicated_options(), [&](std::string_view key) {
    ++backend;
    return backend_value(key);
  });
  std::string key;
  for (int i = 0; key.empty(); ++i) {
    const std::string candidate = "page:" + std::to_string(i);
    if (location(candidate, 0, 10) != location(candidate, 1, 10)) {
      key = candidate;
    }
  }
  const int ring0 = location(key, 0, 10);
  const int ring1 = location(key, 1, 10);
  cluster.get(key, 0);  // fills both replica locations
  ASSERT_TRUE(cluster.server(ring1).contains(key, 0));
  mutable_server(cluster, ring0).erase(key);
  const std::uint64_t ring1_gets = cluster.server(ring1).stats().gets;

  EXPECT_EQ(cluster.get(key, 1), backend_value(key));
  EXPECT_EQ(backend, 2u);
  EXPECT_EQ(cluster.stats().failover_hits, 0u);
  EXPECT_EQ(cluster.server(ring1).stats().gets, ring1_gets);
}

TEST(ReplicatedRule, DownPrimaryFailsOverThenConsultsRingZeroFallback) {
  std::uint64_t backend = 0;
  Proteus cluster(replicated_options(), [&](std::string_view key) {
    ++backend;
    return backend_value(key);
  });
  const MovedKey m = find_moved_key(10, 10, 6);
  cluster.get(m.key, 0);
  cluster.resize(6, kSecond);
  mutable_server(cluster, m.replica).erase(m.key);
  cluster.fail_server(m.primary);
  const std::uint64_t replica_gets = cluster.server(m.replica).stats().gets;
  const std::uint64_t before = backend;

  EXPECT_EQ(cluster.get(m.key, 2 * kSecond), backend_value(m.key));
  EXPECT_EQ(cluster.server(m.replica).stats().gets, replica_gets + 1);
  EXPECT_EQ(cluster.stats().old_server_hits, 1u);
  EXPECT_EQ(backend, before);
  // The write-back reached the live replica location.
  EXPECT_TRUE(cluster.server(m.replica).contains(m.key, 2 * kSecond));
}

TEST(ReplicatedRule, OldLocationHitWritesBackEveryReplicaLocation) {
  std::uint64_t backend = 0;
  Proteus cluster(replicated_options(), [&](std::string_view key) {
    ++backend;
    return backend_value(key);
  });
  const MovedKey m = find_moved_key(10, 10, 6);
  cluster.get(m.key, 0);
  cluster.resize(6, kSecond);
  mutable_server(cluster, m.replica).erase(m.key);
  const std::uint64_t before = backend;

  EXPECT_EQ(cluster.get(m.key, 2 * kSecond), backend_value(m.key));
  EXPECT_EQ(cluster.stats().old_server_hits, 1u);
  EXPECT_EQ(backend, before);
  EXPECT_TRUE(cluster.server(m.primary).contains(m.key, 2 * kSecond));
  EXPECT_TRUE(cluster.server(m.replica).contains(m.key, 2 * kSecond));
}

// --- the r = 2 rule on the simulated web tier --------------------------------

struct SimRig {
  sim::Simulation sim;
  db::Database db;
  cluster::CacheTier tier;
  std::shared_ptr<Router> router;
  cluster::CacheCluster cluster;
  cluster::WebTier web;

  SimRig()
      : db(sim, db_config()),
        tier(sim, tier_config()),
        router(std::make_shared<Router>(
            std::make_shared<ring::ProteusPlacement>(10), 10)),
        cluster(sim, tier, router,
                cluster::CacheClusterConfig{true, 60 * kSecond}),
        web(sim, cluster::WebTierConfig{}, router, tier, db, /*replicas=*/2) {}

  static db::DbConfig db_config() {
    db::DbConfig cfg;
    cfg.base_service_time = 5 * kMillisecond;
    cfg.service_jitter_mean = 0;
    return cfg;
  }
  static cluster::CacheTierConfig tier_config() {
    cluster::CacheTierConfig cfg;
    cfg.per_server.memory_budget_bytes = 8 << 20;
    return cfg;
  }
  // One request, then long enough for its fire-and-forget stores to land.
  void request(const std::string& key) {
    bool done = false;
    web.handle(key, [&] { done = true; });
    for (int guard = 0; !done && guard < 100'000; ++guard) {
      sim.run_until(sim.now() + kMillisecond);
    }
    ASSERT_TRUE(done);
    sim.run_until(sim.now() + 100 * kMillisecond);
  }
  bool holds(int server, const std::string& key) {
    return tier.server(server).contains(key, sim.now());
  }
};

TEST(WebTierReplicatedRule, CleanRingZeroMissNeverProbesRingOne) {
  SimRig rig;
  std::string key;
  for (int i = 0; key.empty(); ++i) {
    const std::string candidate = "page:" + std::to_string(i);
    if (location(candidate, 0, 10) != location(candidate, 1, 10)) {
      key = candidate;
    }
  }
  const int ring0 = location(key, 0, 10);
  const int ring1 = location(key, 1, 10);
  rig.request(key);
  ASSERT_TRUE(rig.holds(ring1, key));
  rig.tier.server(ring0).erase(key);
  const std::uint64_t ring1_gets = rig.tier.gets_served(ring1);

  rig.request(key);
  EXPECT_EQ(rig.web.stats().db_fetches, 2u);
  EXPECT_EQ(rig.web.stats().replica_hits, 0u);
  EXPECT_EQ(rig.tier.gets_served(ring1), ring1_gets);
}

TEST(WebTierReplicatedRule, DownPrimaryFailsOverThenConsultsRingZeroFallback) {
  SimRig rig;
  const MovedKey m = find_moved_key(10, 10, 6);
  rig.request(m.key);
  rig.cluster.resize(6);
  rig.tier.server(m.replica).erase(m.key);
  rig.cluster.mark_failed(m.primary);
  const std::uint64_t replica_gets = rig.tier.gets_served(m.replica);

  rig.request(m.key);
  EXPECT_EQ(rig.tier.gets_served(m.replica), replica_gets + 1);
  EXPECT_EQ(rig.web.stats().failed_server_skips, 1u);
  EXPECT_EQ(rig.web.stats().old_server_hits, 1u);
  EXPECT_EQ(rig.web.stats().db_fetches, 1u);  // only the warm-up fill
  EXPECT_TRUE(rig.holds(m.replica, m.key));
}

TEST(WebTierReplicatedRule, OldLocationHitWritesBackEveryReplicaLocation) {
  SimRig rig;
  const MovedKey m = find_moved_key(10, 10, 6);
  rig.request(m.key);
  rig.cluster.resize(6);
  rig.tier.server(m.replica).erase(m.key);

  rig.request(m.key);
  EXPECT_EQ(rig.web.stats().old_server_hits, 1u);
  EXPECT_EQ(rig.web.stats().db_fetches, 1u);
  EXPECT_TRUE(rig.holds(m.primary, m.key));
  EXPECT_TRUE(rig.holds(m.replica, m.key));
}

// --- the r = 2 rule on the wire client ---------------------------------------

constexpr int kWireFleet = 4;

std::uint64_t daemon_gets(const DaemonFleet& fleet, int i) {
  client::MemcacheConnection conn = fleet.connect(i);
  const auto stats = conn.stats();
  EXPECT_TRUE(stats.has_value());
  for (const auto& [name, value] : stats.value_or(
           std::vector<std::pair<std::string, std::string>>{})) {
    if (name == "cmd_get") return std::stoull(value);
  }
  ADD_FAILURE() << "no cmd_get";
  return 0;
}

TEST(WireClientReplicatedRule, CleanRingZeroMissNeverProbesRingOne) {
  DaemonFleet fleet(kWireFleet);
  client::ProteusClient web(client_options(fleet.ports(), 2), backend_value);
  std::string key;
  for (int i = 0; key.empty(); ++i) {
    const std::string candidate = "page:" + std::to_string(i);
    if (location(candidate, 0, kWireFleet, kWireFleet) !=
        location(candidate, 1, kWireFleet, kWireFleet)) {
      key = candidate;
    }
  }
  const int ring0 = location(key, 0, kWireFleet, kWireFleet);
  const int ring1 = location(key, 1, kWireFleet, kWireFleet);
  web.get(key, 0);
  web.flush();
  ASSERT_TRUE(fleet.connect(ring1).get(key).has_value());
  ASSERT_TRUE(fleet.connect(ring0).erase(key));
  const std::uint64_t ring1_gets = daemon_gets(fleet, ring1);

  EXPECT_EQ(web.get(key, 1), backend_value(key));
  EXPECT_EQ(web.stats().backend_fetches, 2u);
  EXPECT_EQ(web.stats().failover_hits, 0u);
  EXPECT_EQ(daemon_gets(fleet, ring1), ring1_gets);
}

TEST(WireClientReplicatedRule, DownPrimaryFailsOverThenConsultsRingZeroFallback) {
  DaemonFleet fleet(kWireFleet);
  client::ProteusClient web(client_options(fleet.ports(), 2), backend_value);
  const MovedKey m = find_moved_key(kWireFleet, kWireFleet, kWireFleet - 1);
  web.get(m.key, 0);
  ASSERT_TRUE(web.resize(kWireFleet - 1, kSecond));
  fleet.connect(m.replica).erase(m.key);
  fleet.kill(m.primary);
  const std::uint64_t replica_gets = daemon_gets(fleet, m.replica);

  EXPECT_EQ(web.get(m.key, 2 * kSecond), backend_value(m.key));
  EXPECT_EQ(daemon_gets(fleet, m.replica), replica_gets + 1);
  EXPECT_EQ(web.stats().degraded_misses, 1u);
  EXPECT_EQ(web.stats().old_server_hits, 1u);
  EXPECT_EQ(web.stats().backend_fetches, 1u);  // only the warm-up fill
  web.flush();
  EXPECT_TRUE(fleet.connect(m.replica).get(m.key).has_value());
}

TEST(WireClientReplicatedRule, OldLocationHitWritesBackEveryReplicaLocation) {
  DaemonFleet fleet(kWireFleet);
  client::ProteusClient web(client_options(fleet.ports(), 2), backend_value);
  const MovedKey m = find_moved_key(kWireFleet, kWireFleet, kWireFleet - 1);
  web.get(m.key, 0);
  ASSERT_TRUE(web.resize(kWireFleet - 1, kSecond));
  fleet.connect(m.replica).erase(m.key);

  EXPECT_EQ(web.get(m.key, 2 * kSecond), backend_value(m.key));
  EXPECT_EQ(web.stats().old_server_hits, 1u);
  EXPECT_EQ(web.stats().backend_fetches, 1u);
  web.flush();
  EXPECT_TRUE(fleet.connect(m.primary).get(m.key).has_value());
  EXPECT_TRUE(fleet.connect(m.replica).get(m.key).has_value());
}

}  // namespace
}  // namespace proteus
