// Write-behind for Algorithm 2's fills and line-12 write-backs: the
// ProteusClient queues each maintenance store on its endpoint's connection,
// where it rides the next command (docs/PROTOCOL.md, "Client pipelining").
// Each test pins one rule of that mechanism against loopback daemons.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/memcache_client.h"
#include "common/hash.h"
#include "hashring/proteus_placement.h"
#include "net/fault_injector.h"
#include "net/memcache_daemon.h"

namespace proteus::client {
namespace {

using State = core::EndpointHealth::State;

// Loopback daemons; daemon 0 may run its own admission policy.
class Daemons {
 public:
  explicit Daemons(int n, net::AdmissionOptions first_admission = {}) {
    cache::CacheConfig config;
    config.memory_budget_bytes = 8 << 20;
    for (int i = 0; i < n; ++i) {
      daemons_.push_back(std::make_unique<net::MemcacheDaemon>(
          config, 0, net::monotonic_now, 1, net::TcpServer::Limits{},
          i == 0 ? first_admission : net::AdmissionOptions{}));
      EXPECT_TRUE(daemons_.back()->ok());
      ports_.push_back(daemons_.back()->port());
      threads_.emplace_back([d = daemons_.back().get()] { d->run(); });
    }
  }
  ~Daemons() {
    for (std::size_t i = 0; i < daemons_.size(); ++i) {
      daemons_[i]->stop();
      threads_[i].join();
    }
  }
  const std::vector<std::uint16_t>& ports() const { return ports_; }
  net::MemcacheDaemon& daemon(int i) {
    return *daemons_[static_cast<std::size_t>(i)];
  }
  MemcacheConnection connect(int i) const {
    return MemcacheConnection(ports_[static_cast<std::size_t>(i)]);
  }

 private:
  std::vector<std::unique_ptr<net::MemcacheDaemon>> daemons_;
  std::vector<std::uint16_t> ports_;
  std::vector<std::thread> threads_;
};

ProteusClient::Options options(const std::vector<std::uint16_t>& ports) {
  ProteusClient::Options opt;
  opt.endpoints = ports;
  opt.ttl = 60 * kSecond;
  opt.hedging = false;
  opt.connect_timeout = 2 * kSecond;
  opt.op_timeout = 2 * kSecond;
  opt.health.min_deviation_usec = 1e9;  // error-driven health only
  return opt;
}

std::string backend(std::string_view key) { return "db:" + std::string(key); }

// A key whose ring-0 location with `n` of `max` servers active is `server`.
std::string key_on(int server, int n, int max) {
  const ring::ProteusPlacement placement(max);
  for (int i = 0;; ++i) {
    std::string key = "page:" + std::to_string(i);
    if (placement.server_for(hash_bytes(key), n) == server) return key;
  }
}

// Polls a side connection: a store sent without waiting for its reply is
// applied whenever the daemon gets to it.
bool visible_within(MemcacheConnection& side, const std::string& key,
                    std::chrono::milliseconds timeout) {
  const auto until = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    if (side.get(key).has_value()) return true;
    if (std::chrono::steady_clock::now() >= until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

constexpr std::chrono::milliseconds kSettle{50};
constexpr std::chrono::milliseconds kPatience{2000};

TEST(WriteBehind, FillIsHitByTheNextGetOnItsConnection) {
  Daemons fleet(2);
  ProteusClient web(options(fleet.ports()), backend);
  const std::string key = key_on(1, 2, 2);
  EXPECT_EQ(web.get(key, 0), backend(key));
  EXPECT_EQ(web.stats().deferred_stores, 1u);
  // No flush() and no tick past the bound: the queued fill goes out in the
  // same send() as this get, ahead of it.
  EXPECT_EQ(web.get(key, 0), backend(key));
  EXPECT_EQ(web.stats().new_server_hits, 1u);
  EXPECT_EQ(web.stats().backend_fetches, 1u);
  EXPECT_EQ(web.stats().deferred_store_drops, 0u);
}

TEST(WriteBehind, SideConnectionSeesTheFillOnlyAfterFlushOrTheTimeBound) {
  Daemons fleet(1);
  ProteusClient web(options(fleet.ports()), backend);
  MemcacheConnection side = fleet.connect(0);

  const SimTime t = 10 * kSecond;
  web.get("page:1", t);
  EXPECT_FALSE(visible_within(side, "page:1", kSettle));
  web.tick(t + kMillisecond - 1);
  EXPECT_FALSE(visible_within(side, "page:1", kSettle));
  web.tick(t + kMillisecond);
  EXPECT_TRUE(visible_within(side, "page:1", kPatience));

  web.get("page:2", 2 * t);
  EXPECT_FALSE(visible_within(side, "page:2", kSettle));
  web.flush();  // a barrier: the reply has been read, no polling needed
  EXPECT_TRUE(side.get("page:2").has_value());
  EXPECT_EQ(web.stats().deferred_stores, 2u);
}

TEST(WriteBehind, DeferredStaleEpochReplyAdoptsTheNewerEpoch) {
  Daemons fleet(1);
  ASSERT_TRUE(fleet.connect(0).push_epoch(3));
  ProteusClient web(options(fleet.ports()), backend);
  web.get("page:1", 0);  // the hello adopts epoch 3; the fill is stamped E3
  ASSERT_EQ(web.cluster_epoch(), 3u);
  ASSERT_TRUE(fleet.connect(0).push_epoch(7));  // another coordinator

  web.get("page:2", 0);  // carries the fill, which the daemon fences
  EXPECT_EQ(web.stats().stale_epoch_rejects, 1u);
  web.get("page:3", 0);  // the next acquire re-reads the daemon's view
  EXPECT_EQ(web.cluster_epoch(), 7u);

  // Fills stamped with the adopted epoch land again.
  web.get("page:4", 0);
  web.flush();
  EXPECT_TRUE(fleet.connect(0).get("page:4").has_value());
}

// Daemon 0 sheds every background chunk (background_fill = 0) and admits
// one foreground chunk at a time. Shrinking 2 -> 1 makes daemon 0 the new
// location of a key warmed on daemon 1, so reading it queues a `bg`
// migration write-back on daemon 0's connection.
struct MigratedKey {
  explicit MigratedKey(ProteusClient& web) : key(key_on(1, 2, 2)) {
    web.get(key, 0);
    web.resize(1, kSecond);  // daemon 0's digest pull is shed: skipped
    EXPECT_EQ(web.get(key, 2 * kSecond), backend(key));
    EXPECT_EQ(web.stats().old_server_hits, 1u);
  }
  std::string key;
};

net::AdmissionOptions foreground_only() {
  net::AdmissionOptions admission;
  admission.max_inflight = 1;
  admission.background_fill = 0.0;
  return admission;
}

TEST(WriteBehind, ForegroundGetRidingAWriteBackIsNotShedAsBackground) {
  Daemons fleet(2, foreground_only());
  ProteusClient web(options(fleet.ports()), backend);
  const MigratedKey m(web);
  const std::uint64_t sheds = web.stats().server_sheds;

  // Same `now`: the write-back rides this foreground get, stripped of `bg`.
  EXPECT_EQ(web.get(m.key, 2 * kSecond), backend(m.key));
  EXPECT_EQ(web.stats().new_server_hits, 1u);
  EXPECT_EQ(web.stats().server_sheds, sheds);
  EXPECT_EQ(web.stats().deferred_store_drops, 0u);
  EXPECT_EQ(fleet.daemon(0).shed_background(), 1u);  // only the digest pull
}

TEST(WriteBehind, WholeChunkShedWithRepliesOutstandingDoesNotHang) {
  Daemons fleet(2, foreground_only());
  auto opt = options(fleet.ports());
  opt.op_timeout = 500 * kMillisecond;
  opt.degraded_response = "degraded";
  ProteusClient web(opt, backend);
  const MigratedKey m(web);

  // Past the bound the write-back goes out alone and keeps `bg`: daemon 0
  // sheds that chunk with one line. The next get reads it while its own
  // reply is also due, so it cannot tell what the line answered.
  web.tick(2 * kSecond + kMillisecond);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(web.get(m.key, 2 * kSecond + kMillisecond), "degraded");
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(500));
  EXPECT_EQ(web.stats().deferred_store_drops, 1u);
  EXPECT_GE(web.stats().server_sheds, 1u);
  EXPECT_EQ(web.stats().timeouts, 0u);
}

TEST(WriteBehind, StoreQueuedBeforeResizeIsNotRefusedAsStale) {
  Daemons fleet(2);
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(fleet.connect(i).push_epoch(1));
  ProteusClient web(options(fleet.ports()), backend);
  const std::string key = key_on(1, 2, 2);
  web.get(key, 0);  // fill queued on daemon 1, stamped E1
  ASSERT_EQ(web.cluster_epoch(), 1u);

  web.resize(1, kSecond);  // bumps the epoch to 2 on both daemons
  EXPECT_EQ(web.cluster_epoch(), 2u);
  EXPECT_EQ(web.stats().stale_epoch_rejects, 0u);
  EXPECT_EQ(web.stats().deferred_store_drops, 0u);
  EXPECT_TRUE(fleet.connect(1).get(key).has_value());
}

TEST(WriteBehind, StoreToADegradedEndpointIsSynchronous) {
  Daemons fleet(1);
  net::FaultInjector injector;
  fleet.daemon(0).set_handler_wrapper(
      [&](std::unique_ptr<net::ConnectionHandler> inner) {
        return injector.wrap(std::move(inner));
      });
  auto opt = options(fleet.ports());
  opt.max_attempts = 1;
  opt.health.error_threshold = 1;
  opt.health.probation_successes = 10;
  ProteusClient web(opt, backend);

  injector.inject(net::FaultKind::kDropConnection);
  web.get("page:1", 0);  // the hello is dropped: one hard error quarantines
  ASSERT_EQ(web.endpoint_health(0).state(), State::kQuarantined);

  web.get("page:2", 60 * kSecond);  // past the dwell, on probation
  ASSERT_EQ(web.endpoint_health(0).state(), State::kProbation);
  EXPECT_EQ(web.stats().deferred_stores, 0u);
  EXPECT_TRUE(fleet.connect(0).get("page:2").has_value());
}

TEST(WriteBehind, QueuePast64KiBGoesOutWithoutACommand) {
  Daemons fleet(1);
  MemcacheConnection conn = fleet.connect(0);
  MemcacheConnection side = fleet.connect(0);
  const std::string value(4096, 'v');
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(conn.enqueue_set("k" + std::to_string(i), value));
  }
  EXPECT_EQ(conn.queued(), 15u);
  EXPECT_FALSE(visible_within(side, "k0", kSettle));
  ASSERT_TRUE(conn.enqueue_set("k15", value));  // 16 x ~4.1 KiB > 64 KiB
  EXPECT_EQ(conn.queued(), 0u);
  EXPECT_TRUE(visible_within(side, "k15", kPatience));
  ASSERT_TRUE(conn.settle());
  EXPECT_EQ(conn.take_deferred().dropped, 0u);
}

}  // namespace
}  // namespace proteus::client
