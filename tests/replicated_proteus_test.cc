// The §III-E replica rings on the one Proteus facade: ProteusOptions::
// replicas = r, crash injection and health-gated failover at every r.
#include "core/proteus.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/hash.h"

namespace proteus {
namespace {

ProteusOptions small_options(int replicas = 2) {
  ProteusOptions opt;
  opt.max_servers = 10;
  opt.replicas = replicas;
  opt.per_server.memory_budget_bytes = 8 << 20;
  opt.per_server.auto_size_digest = false;
  opt.per_server.digest.num_counters = 1 << 14;
  opt.per_server.digest.counter_bits = 4;
  opt.per_server.digest.num_hashes = 4;
  opt.ttl = 10 * kSecond;
  return opt;
}

// All replica locations of `key` under the current mapping, by ring (may
// contain duplicates — the Eq. 3 conflict case).
std::vector<int> replica_servers(const Proteus& cluster, std::string_view key) {
  const std::uint64_t h = hash_bytes(key);
  std::vector<int> out;
  for (int r = 0; r < cluster.replicas(); ++r) {
    out.push_back(cluster.placement().server_for(ring::replica_ring_hash(h, r),
                                                 cluster.active_servers()));
  }
  return out;
}

struct CountingBackend {
  std::uint64_t calls = 0;
  std::string operator()(std::string_view key) {
    ++calls;
    return "v:" + std::string(key);
  }
};

TEST(ProteusReplicas, MissPathPopulatesAllReplicaLocations) {
  CountingBackend backend;
  Proteus cluster(small_options(3), std::ref(backend));
  EXPECT_EQ(cluster.get("page:1", 0), "v:page:1");
  EXPECT_EQ(backend.calls, 1u);
  for (int server : replica_servers(cluster, "page:1")) {
    EXPECT_TRUE(cluster.server(server).contains("page:1", 0)) << server;
  }
}

TEST(ProteusReplicas, SecondGetHitsPrimaryRing) {
  CountingBackend backend;
  Proteus cluster(small_options(), std::ref(backend));
  cluster.get("k", 0);
  cluster.get("k", 1);
  EXPECT_EQ(cluster.stats().new_server_hits, 1u);
  EXPECT_EQ(backend.calls, 1u);
}

TEST(ProteusReplicas, SingleFailureServedByReplica) {
  CountingBackend backend;
  Proteus cluster(small_options(2), std::ref(backend));
  for (int i = 0; i < 400; ++i) cluster.get("page:" + std::to_string(i), 0);
  ASSERT_EQ(backend.calls, 400u);

  // Crash one server. Every key whose ring-0 copy lived there should still
  // be served warm from its ring-1 replica, with no backend traffic —
  // except the rare Eq. (3) conflicts where both replicas shared the
  // crashed server.
  cluster.fail_server(3);
  const auto before = backend.calls;
  for (int i = 0; i < 400; ++i) cluster.get("page:" + std::to_string(i), kSecond);
  EXPECT_GT(cluster.stats().failover_hits, 10u);
  EXPECT_LE(backend.calls - before, 10u);  // conflicts only (~1/10 of 1/10)
}

TEST(ProteusReplicas, ReadRepairAfterFailover) {
  CountingBackend backend;
  Proteus cluster(small_options(2), std::ref(backend));
  // Find a key whose two replicas live on different servers.
  std::string key;
  for (int i = 0; i < 200; ++i) {
    const std::string candidate = "page:" + std::to_string(i);
    const auto servers = replica_servers(cluster, candidate);
    if (servers[0] != servers[1]) {
      key = candidate;
      break;
    }
  }
  ASSERT_FALSE(key.empty());
  cluster.get(key, 0);
  const int ring0_server = replica_servers(cluster, key)[0];

  cluster.fail_server(ring0_server);
  cluster.get(key, kSecond);  // served by ring 1
  EXPECT_EQ(cluster.stats().failover_hits, 1u);

  cluster.recover_server(ring0_server);
  cluster.get(key, 2 * kSecond);  // read-repairs the recovered server
  EXPECT_TRUE(cluster.server(ring0_server).contains(key, 2 * kSecond));
}

TEST(ProteusReplicas, AllReplicasFailedFallsToBackend) {
  CountingBackend backend;
  Proteus cluster(small_options(2), std::ref(backend));
  cluster.get("k", 0);
  const auto servers = replica_servers(cluster, "k");
  for (int s : servers) cluster.fail_server(s);
  const auto before = backend.calls;
  EXPECT_EQ(cluster.get("k", kSecond), "v:k");
  EXPECT_EQ(backend.calls, before + 1);
  EXPECT_GT(cluster.stats().failed_server_skips, 0u);
}

TEST(ProteusReplicas, PutWritesAllReplicas) {
  Proteus cluster(small_options(3),
                  [](std::string_view) { return std::string("db"); });
  cluster.put("k", "fresh", 0);
  std::set<int> distinct;
  for (int s : replica_servers(cluster, "k")) {
    distinct.insert(s);
    auto v = const_cast<cache::CacheServer&>(cluster.server(s)).get("k", 0);
    ASSERT_TRUE(v.has_value()) << s;
    EXPECT_EQ(*v, "fresh");
  }
  EXPECT_GE(distinct.size(), 2u);
}

TEST(ProteusReplicas, SmoothResizePreservesHotDataPerRing) {
  CountingBackend backend;
  Proteus cluster(small_options(2), std::ref(backend));
  for (int i = 0; i < 300; ++i) cluster.get("page:" + std::to_string(i), 0);
  const auto before = backend.calls;
  cluster.resize(5, kSecond);
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(cluster.get("page:" + std::to_string(i), 2 * kSecond),
              "v:page:" + std::to_string(i));
  }
  EXPECT_EQ(backend.calls, before) << "replicated shrink caused a miss storm";
}

TEST(ProteusReplicas, ResizePlusFailureStillNoBackendStorm) {
  CountingBackend backend;
  Proteus cluster(small_options(2), std::ref(backend));
  for (int i = 0; i < 300; ++i) cluster.get("page:" + std::to_string(i), 0);
  cluster.resize(6, kSecond);
  cluster.fail_server(2);
  const auto before = backend.calls;
  for (int i = 0; i < 300; ++i) cluster.get("page:" + std::to_string(i), 2 * kSecond);
  // Redundancy covers the crash; the transition covers the remap. Only keys
  // whose surviving copies BOTH sat on the crashed server refetch.
  EXPECT_LT(backend.calls - before, 40u);
}

TEST(ProteusReplicas, TransitionFinalizesAfterTtl) {
  Proteus cluster(small_options(2),
                  [](std::string_view) { return std::string("v"); });
  cluster.resize(4, 0);
  EXPECT_TRUE(cluster.in_transition());
  cluster.tick(11 * kSecond);
  EXPECT_FALSE(cluster.in_transition());
  for (int i = 4; i < 10; ++i) {
    EXPECT_EQ(cluster.server(i).power_state(), cache::PowerState::kOff) << i;
  }
}

TEST(ProteusReplicas, FailedServerExcludedFromResizePowerOn) {
  Proteus cluster(small_options(2),
                  [](std::string_view) { return std::string("v"); });
  cluster.resize(4, 0);
  cluster.tick(11 * kSecond);
  cluster.fail_server(6);
  cluster.resize(8, 12 * kSecond);
  EXPECT_EQ(cluster.server(6).power_state(), cache::PowerState::kOff);
  EXPECT_NE(cluster.server(7).power_state(), cache::PowerState::kOff);
  // Requests mapping to the failed server fail over; nothing crashes.
  for (int i = 0; i < 100; ++i) cluster.get("k" + std::to_string(i), 13 * kSecond);
}

TEST(ProteusReplicas, EraseRemovesEveryCopy) {
  CountingBackend backend;
  Proteus cluster(small_options(3), std::ref(backend));
  cluster.get("k", 0);
  cluster.erase("k", 1);
  for (int s : replica_servers(cluster, "k")) {
    EXPECT_FALSE(cluster.server(s).contains("k", 1)) << s;
  }
  const auto before = backend.calls;
  cluster.get("k", 2);
  EXPECT_EQ(backend.calls, before + 1);
}

TEST(ProteusReplicas, SingleReplicaDegeneratesToPlainProteus) {
  CountingBackend backend;
  Proteus cluster(small_options(1), std::ref(backend));
  for (int i = 0; i < 100; ++i) cluster.get("k" + std::to_string(i), 0);
  EXPECT_EQ(backend.calls, 100u);
  for (int i = 0; i < 100; ++i) cluster.get("k" + std::to_string(i), 1);
  EXPECT_EQ(backend.calls, 100u);
  EXPECT_EQ(cluster.stats().new_server_hits, 100u);
  EXPECT_EQ(cluster.stats().failover_hits, 0u);
}

TEST(ProteusReplicas, SingleReplicaFailAndRecoverServer) {
  CountingBackend backend;
  Proteus cluster(small_options(1), std::ref(backend));
  const std::string key = "page:7";
  const int primary = replica_servers(cluster, key)[0];
  cluster.get(key, 0);
  const std::uint64_t sets = cluster.server(primary).stats().sets;

  cluster.fail_server(primary);
  EXPECT_TRUE(cluster.is_failed(primary));
  EXPECT_EQ(cluster.health(primary).state(),
            core::EndpointHealth::State::kQuarantined);
  // No replica to fail over to: the read skips the crashed primary, goes
  // to the backend, and fills nothing on the crashed server.
  const auto before = backend.calls;
  EXPECT_EQ(cluster.get(key, kSecond), "v:" + key);
  EXPECT_EQ(backend.calls, before + 1);
  EXPECT_EQ(cluster.stats().failed_server_skips, 1u);
  EXPECT_EQ(cluster.server(primary).power_state(), cache::PowerState::kOff);
  EXPECT_EQ(cluster.server(primary).stats().sets, sets);
  // Nor does a write.
  cluster.put(key, "fresh", 2 * kSecond);
  EXPECT_EQ(cluster.server(primary).stats().sets, sets);

  // Recovery re-admits the server cold through probation; the next get's
  // backend fill repopulates it, and the one after hits it.
  cluster.recover_server(primary);
  EXPECT_FALSE(cluster.is_failed(primary));
  EXPECT_EQ(cluster.health(primary).state(),
            core::EndpointHealth::State::kProbation);
  EXPECT_EQ(cluster.get(key, 3 * kSecond), "v:" + key);
  EXPECT_EQ(backend.calls, before + 2);
  EXPECT_TRUE(cluster.server(primary).contains(key, 3 * kSecond));
  const std::uint64_t hits = cluster.stats().new_server_hits;
  EXPECT_EQ(cluster.get(key, 4 * kSecond), "v:" + key);
  EXPECT_EQ(cluster.stats().new_server_hits, hits + 1);
  EXPECT_EQ(cluster.stats().failed_server_skips, 1u);
}

}  // namespace
}  // namespace proteus
