// §III-E replica rings: r rings share one Algorithm 1 placement, and ring
// r's location of a key is server_for(replica_ring_hash(h, r), n).
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.h"
#include "hashring/placement.h"
#include "hashring/proteus_placement.h"

namespace proteus::ring {
namespace {

// The r ring locations of `key_hash` with n active servers, by ring (may
// contain duplicates — the conflict case of Eq. 3).
std::vector<int> servers_for(const PlacementStrategy& placement,
                             std::uint64_t key_hash, int n_active,
                             int replicas) {
  std::vector<int> out;
  for (int r = 0; r < replicas; ++r) {
    out.push_back(
        placement.server_for(replica_ring_hash(key_hash, r), n_active));
  }
  return out;
}

TEST(ReplicaRings, SingleReplicaMatchesBarePlacement) {
  const ProteusPlacement placement(10);
  Rng rng(1);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t h = rng.next_u64();
    for (int n : {1, 5, 10}) {
      const auto servers = servers_for(placement, h, n, 1);
      ASSERT_EQ(servers.size(), 1u);
      ASSERT_EQ(servers[0], placement.server_for(h, n));
    }
  }
}

TEST(ReplicaRings, ReplicaSelectionIsDeterministic) {
  const ProteusPlacement a(10);
  const ProteusPlacement b(10);
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t h = rng.next_u64();
    EXPECT_EQ(servers_for(a, h, 8, 3), servers_for(b, h, 8, 3));
  }
}

TEST(ReplicaRings, ConflictRateMatchesEq3) {
  // Measure the fraction of keys whose r replicas land on r distinct
  // servers; §III-E predicts Pnc = prod (n-i)/n.
  const ProteusPlacement placement(10);
  for (int r : {2, 3}) {
    Rng rng(3);
    int distinct = 0;
    constexpr int kSamples = 100'000;
    for (int i = 0; i < kSamples; ++i) {
      const auto servers = servers_for(placement, rng.next_u64(), 10, r);
      const std::set<int> unique(servers.begin(), servers.end());
      distinct += unique.size() == servers.size();
    }
    const double expected =
        ProteusPlacement::replica_no_conflict_probability(r, 10);
    EXPECT_NEAR(static_cast<double>(distinct) / kSamples, expected, 0.02)
        << "r=" << r;
  }
}

TEST(ReplicaRings, EachRingIsIndividuallyBalanced) {
  const ProteusPlacement placement(10);
  Rng rng(4);
  std::vector<int> counts(10, 0);
  constexpr int kSamples = 100'000;
  for (int i = 0; i < kSamples; ++i) {
    for (int s : servers_for(placement, rng.next_u64(), 10, 2)) {
      ++counts[static_cast<std::size_t>(s)];
    }
  }
  const double expected = 2.0 * kSamples / 10;
  for (int c : counts) EXPECT_NEAR(c, expected, expected * 0.05);
}

TEST(ReplicaRings, ReplicasStayWithinActiveSet) {
  const ProteusPlacement placement(10);
  Rng rng(5);
  for (int i = 0; i < 10'000; ++i) {
    for (int s : servers_for(placement, rng.next_u64(), 4, 3)) {
      ASSERT_GE(s, 0);
      ASSERT_LT(s, 4);
    }
  }
}

}  // namespace
}  // namespace proteus::ring
