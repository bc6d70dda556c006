// The web-server tier: executes Algorithm 2 (Data Retrieval) for every
// request, asynchronously over the simulation.
//
// Per paper §V-2 most logic lives here. The read itself is the shared
// Algorithm 2 machine (cluster/transition_read.h), driven from the cache
// and database callbacks: route via the shared Router (consistent across
// all web servers), fall back to the old location when the digest marks
// the data hot, reach the database only when both attempts miss, and
// repopulate the key's locations with whatever was fetched (line 12).
//
// With §III-E replication a request fails over to the key's other replica
// locations only while its ring-0 server is powered off (crashed). One
// ring is exactly the paper's base design.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cache_tier.h"
#include "cluster/router.h"
#include "common/time.h"
#include "core/overload.h"
#include "db/database.h"
#include "obs/audit.h"
#include "obs/span.h"
#include "sim/queueing_server.h"
#include "sim/simulation.h"

namespace proteus::obs {
class MetricsRegistry;
}  // namespace proteus::obs

namespace proteus::cluster {

struct WebTierConfig {
  int num_servers = 10;
  int concurrency = 64;                        // servlet thread pool
  SimTime service_time = 300 * kMicrosecond;   // request-handling CPU cost
  SimTime rbe_hop_latency = 250 * kMicrosecond;
  // Dog-pile protection (the "memcache dog pile" strategy the paper cites
  // as ref. [12]): coalesce concurrent database fetches for the same key
  // into one query. Off by default — the paper's testbed did not use it —
  // and explored by bench/ablation_dogpile.
  bool coalesce_db_fetches = false;
  // Per-request distributed tracing: sampled requests record a span tree on
  // SIM time (hop, queue+service, per-ring cache fetches, db fetch), so
  // fig09 can attribute response-time tails to transition mechanisms. Null
  // disables tracing.
  obs::SpanCollector* spans = nullptr;
  // Transition-aware migration pacing: when any database shard's live queue
  // depth reaches this threshold (the overload signal of §VI's miss storms),
  // Algorithm 2 line-12 write-backs for old-location hits are token-bucket
  // paced by `migration_throttle` instead of issued unconditionally. The hit
  // is still served from the old location — only the repair store is
  // deferred, so correctness is unchanged and the digest simply drains
  // slower. 0 disables (the paper's unconditional behaviour).
  int overload_db_queue_depth = 0;
  core::MigrationThrottle::Options migration_throttle;
  // Live power/model auditing (obs/audit.h): when set, audit_observe()
  // feeds the cache tier's per-server counters into this auditor (call it
  // from the scenario driver's metric slots). Not owned.
  obs::PowerAuditor* auditor = nullptr;
};

struct WebTierStats {
  std::uint64_t requests = 0;
  std::uint64_t new_server_hits = 0;   // Algorithm 2 line 3: hit in s_{m_{t+1}}
  std::uint64_t old_server_hits = 0;   // line 7 succeeded: hot-data migration
  std::uint64_t replica_hits = 0;      // served by a ring >= 1 (failover)
  std::uint64_t failed_server_skips = 0;  // ring skipped: server powered off
  std::uint64_t db_fetches = 0;        // line 10 (queries actually issued)
  std::uint64_t coalesced_fetches = 0; // requests that piggybacked on one
  std::uint64_t digest_false_positives = 0;  // line 6 said yes, line 7 missed
  std::uint64_t migrations_deferred = 0;  // line-12 stores paced out (overload)

  double cache_hit_ratio() const noexcept {
    return requests ? static_cast<double>(new_server_hits + old_server_hits +
                                          replica_hits) /
                          static_cast<double>(requests)
                    : 0.0;
  }
};

class WebTier {
 public:
  // `replicas` is r of §III-E; the other rings' locations derive from the
  // router's placement and active count.
  WebTier(sim::Simulation& sim, WebTierConfig config,
          std::shared_ptr<Router> router, CacheTier& cache, db::Database& db,
          int replicas = 1);

  // One user request: RBE hop -> web service -> Algorithm 2 -> reply hop.
  // `done` fires when the response reaches the client.
  void handle(const std::string& key, std::function<void()> done);

  const WebTierStats& stats() const noexcept { return stats_; }

  // Registers every WebTierStats counter plus the derived hit ratio into
  // `registry` (names prefixed proteus_webtier_). The callbacks read this
  // object; the simulation is single-threaded, so snapshot between sim
  // steps, and keep `this` alive past the registry's last snapshot.
  void register_metrics(obs::MetricsRegistry& registry) const;

  // Feeds the cache tier's per-server gets/hits/power-state into
  // WebTierConfig::auditor at sim time `now` (no-op when unset). Call from
  // the scenario's metric slots — the audit layer stays off the per-request
  // path by design.
  void audit_observe(SimTime now);

  const sim::QueueingServer& server_queue(int i) const {
    return *queues_.at(static_cast<std::size_t>(i));
  }
  int num_servers() const noexcept { return config_.num_servers; }
  int replicas() const noexcept { return replicas_; }

 private:
  // Trace state threaded through the async retrieval chain; null whenever
  // the request is unsampled (the common case — no allocation then).
  using Trace = std::shared_ptr<obs::TraceContext>;

  // One request's retrieval state, parked between cache/database callbacks.
  struct Read;

  bool server_alive(int server) const;
  // Overload-gated line-12 pacing: samples the database tier's live queue
  // depth, feeds the signal into the throttle, and asks for a token.
  bool migration_allowed();
  // Runs the request's machine until it waits on a callback or finishes.
  void advance(const std::shared_ptr<Read>& read);
  void fetch_from_db(const std::shared_ptr<Read>& read);
  void respond_after_hop(std::function<void()> done);
  // trace->child(sim_.now(), ...) guarded on a live, sampled trace.
  void trace_child(const Trace& trace, obs::SpanKind kind, int server = -1,
                   obs::SpanCause cause = obs::SpanCause::kNone,
                   std::string_view key = {});

  sim::Simulation& sim_;
  WebTierConfig config_;
  std::shared_ptr<Router> router_;
  int replicas_;
  CacheTier& cache_;
  db::Database& db_;
  std::vector<std::unique_ptr<sim::QueueingServer>> queues_;
  std::size_t next_server_ = 0;  // user requests are spread uniformly (§VI-C)
  // In-flight database fetches by key (dog-pile coalescing): completion
  // callbacks of piggybacked requests.
  std::unordered_map<std::string, std::vector<std::function<void()>>>
      inflight_db_;
  core::MigrationThrottle migration_throttle_;
  WebTierStats stats_;
};

}  // namespace proteus::cluster
