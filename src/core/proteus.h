// Proteus — the public library facade.
//
// An embeddable, power-proportional cache cluster front end: N in-process
// memcached-like servers behind the paper's two mechanisms —
//
//   * Algorithm 1 deterministic virtual-node placement (exact load balance
//     at every active size, minimal migration per resize), and
//   * Algorithm 2 smooth transitions (counting-Bloom digests + on-demand
//     hot-data migration; shrunk servers drain for TTL, then power off).
//
// With `replicas` = r > 1 it keeps r copies of every (key, data) pair on r
// hash rings that share the Algorithm 1 placement (§III-E). Reads follow
// the one Algorithm 2 rule (cluster/transition_read.h): ring 0 first, the
// other rings' locations only while the ring-0 primary is down. At r = 1
// the facade is exactly the base design.
//
// Failure model, at every r: fail_server() emulates a crash — the server's
// memory (and digest) is lost and routing skips it until recover_server().
// Each server also carries the phi-accrual EndpointHealth detector the wire
// client routes by (core/endpoint_health.h): fail_server() force-
// quarantines it, recover_server() drops it into probation, and the read
// path skips quarantined servers.
//
// Typical use (see examples/quickstart.cc):
//
//   proteus::ProteusOptions opt;
//   opt.max_servers = 10;
//   proteus::Proteus cluster(opt, [&](std::string_view key) {
//     return database.get(key);            // your miss path
//   });
//   std::string v = cluster.get("page:42", now);
//   cluster.resize(4, now);                // shed 6 servers, no miss storm
//
// Time is explicit (SimTime, microseconds) so the facade is deterministic
// and unit-testable; wall-clock callers pass a monotonic clock reading.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/cache_server.h"
#include "common/rng.h"
#include "common/time.h"
#include "core/endpoint_health.h"
#include "core/overload.h"
#include "core/transition_lifecycle.h"
#include "hashring/migration_plan.h"
#include "hashring/proteus_placement.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace proteus {

struct ProteusOptions {
  int max_servers = 10;
  int initial_servers = 0;  // 0 -> max_servers
  // r of §III-E: replica rings, 1..cluster::TransitionRead::kMaxReplicas.
  int replicas = 1;
  cache::CacheConfig per_server;
  SimTime ttl = 60 * kSecond;  // hotness window / drain duration
  // Accounting charge for values written through the miss path; 0 charges
  // the actual value size.
  std::size_t object_charge = 0;
  // Observability (src/obs): when set, every provisioning transition emits
  // its full lifecycle — resize_begin, per-server digest_snapshot,
  // power_on/drain_begin, migration_hit / digest_false_{positive,negative},
  // ttl_expiry (from the per-server caches), power_off, resize_end — into
  // this sink. Null disables tracing.
  obs::TraceSink* trace = nullptr;
  // Per-request distributed tracing: sampled get()s record a span tree
  // (root + tiled per-cause children on the steady clock) here. Null
  // disables tracing; sample_every on the collector sets the rate.
  obs::SpanCollector* spans = nullptr;
  // Transition-aware pacing of Algorithm 2 on-demand migration. When set
  // and the throttle reports overload, old-location hits are still served
  // but the line-12 write-back to the new primary is deferred (the next
  // request pays the old-location probe again instead of competing with
  // foreground traffic for write capacity). Null migrates unconditionally.
  // Not owned; must outlive this object.
  core::MigrationThrottle* migration_throttle = nullptr;
  // Crash recovery (core/transition_journal.h): when non-empty, every
  // resize is write-ahead journaled at this path and an interrupted
  // transition is resumed (or rolled forward) on construction instead of
  // being lost. Empty = volatile transitions, exactly as before.
  std::string journal_path;
  // Live power/model auditing (obs/audit.h): when set, tick() feeds the
  // fleet's per-server get/hit counters and power states into this auditor
  // about once per second of `now` — energy integration, PPI, and the
  // drift windows all happen inside the auditor, off the per-request path.
  // Digest false negatives and backend fetches ride along so the Eq. 5
  // bound is checked against observation. Not owned; must outlive this
  // object.
  obs::PowerAuditor* auditor = nullptr;
};

struct ProteusStats {
  std::uint64_t gets = 0;
  std::uint64_t new_server_hits = 0;
  std::uint64_t old_server_hits = 0;   // on-demand migrations (Algorithm 2)
  // Served by a ring >= 1 replica while the ring-0 primary was down.
  std::uint64_t failover_hits = 0;
  // Current-mapping locations the read skipped: crashed, powered off or
  // quarantined by their health detector.
  std::uint64_t failed_server_skips = 0;
  std::uint64_t backend_fetches = 0;
  std::uint64_t digest_false_positives = 0;
  // §IV-B false negatives, observed: the digest reported a key cold during
  // a transition although it was resident on its old server (detected by a
  // direct check on the backend-fetch path, so the bound is measurable).
  std::uint64_t digest_false_negatives = 0;
  std::uint64_t puts = 0;
  std::uint64_t resizes = 0;
  // Old-location hits whose write-back to the new primary was deferred by
  // the migration throttle (served correctly, just not migrated yet).
  std::uint64_t migrations_deferred = 0;
  // Crash recovery: journal records replayed at construction, and whether
  // that replay resumed (still draining) or rolled forward (drain window
  // already over) an interrupted transition.
  std::uint64_t journal_records_replayed = 0;
  std::uint64_t journal_transitions_resumed = 0;

  double hit_ratio() const noexcept {
    return gets ? static_cast<double>(new_server_hits + failover_hits +
                                      old_server_hits) /
                      static_cast<double>(gets)
                : 0.0;
  }
};

class Proteus {
 public:
  // `backend` is the authoritative store consulted on a miss (the database
  // tier of Fig. 1). It must return the value for any key.
  using Backend = std::function<std::string(std::string_view)>;

  Proteus(ProteusOptions options, Backend backend);

  // Algorithm 2 data retrieval. Never returns stale data; reaches the
  // backend only when the key is neither on its new nor old cache server.
  std::string get(std::string_view key, SimTime now);

  // Explicit write: stores on the key's live replica locations under the
  // current mapping (the locations a read looks at) after invalidating
  // every other powered server, so no reader can see an overwritten value.
  void put(std::string_view key, std::string value, SimTime now);

  // Remove a key from wherever it may live.
  void erase(std::string_view key, SimTime now);

  // Crash / recovery injection. fail_server force-quarantines the server's
  // health detector; recover_server re-admits it through probation.
  void fail_server(int server);
  void recover_server(int server);
  bool is_failed(int server) const { return failed_.at(static_cast<std::size_t>(server)); }
  // The phi-accrual detector routing consults for `server`.
  const core::EndpointHealth& health(int server) const {
    return health_.at(static_cast<std::size_t>(server));
  }

  // Provisioning actuation with a smooth transition. Growing powers servers
  // on immediately; shrinking drains the leaving servers until now + ttl.
  void resize(int n_active, SimTime now);

  // Advance internal time: finalizes transitions whose drain window ended.
  // get/put/resize call this implicitly with their `now`.
  void tick(SimTime now);

  int active_servers() const noexcept { return lifecycle_.router().active(); }
  int powered_servers() const noexcept;
  int max_servers() const noexcept { return options_.max_servers; }
  int replicas() const noexcept { return options_.replicas; }
  bool in_transition() const noexcept {
    return lifecycle_.router().in_transition();
  }

  // Fencing epoch: bumped on every resize (and restored from the journal on
  // restart). Web tiers stamp it on wire mutations; see docs/PROTOCOL.md.
  std::uint64_t cluster_epoch() const noexcept { return lifecycle_.epoch(); }
  const core::TransitionJournal& journal() const noexcept {
    return lifecycle_.journal();
  }

  const ProteusStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = ProteusStats{}; }

  // Registers the facade's counters, transition gauges, and per-server
  // load/hit gauges (the live §III K/n balance check) into `registry`.
  // The callbacks read this object directly, so they are only safe to
  // snapshot from the thread driving the facade (it is single-threaded by
  // design). `this` must outlive the registry's last snapshot.
  void register_metrics(obs::MetricsRegistry& registry) const;
  const cache::CacheServer& server(int i) const { return *servers_.at(static_cast<std::size_t>(i)); }
  const ring::ProteusPlacement& placement() const noexcept { return *placement_; }

  // Total bytes resident across powered servers (capacity introspection).
  std::size_t bytes_cached() const noexcept;

  // What WOULD a resize move? The exact per-(from,to) flows and byte
  // estimates for the current resident data — for operator dashboards and
  // capacity planning before actuating (hashring/migration_plan.h).
  ring::TransitionPlan plan_resize(int n_active) const;

 private:
  cache::CacheServer& mutable_server(int i) { return *servers_[static_cast<std::size_t>(i)]; }
  bool powered(int server) const {
    return servers_[static_cast<std::size_t>(server)]->power_state() !=
           cache::PowerState::kOff;
  }
  bool usable(int server) const {
    return !failed_[static_cast<std::size_t>(server)] && powered(server);
  }
  // The read path's routing gate: power/crash state AND the health machine
  // (quarantined servers are skipped until their probe dwell elapses; the
  // admitting call itself opens probation).
  bool admit(int server, SimTime now) {
    return usable(server) &&
           health_[static_cast<std::size_t>(server)].allow(now);
  }
  // get() minus the trace envelope.
  std::string get_inner(std::string_view key, SimTime now,
                        obs::TraceContext& ctx);
  // Feeds per-server counters into ProteusOptions::auditor (tick-gated).
  void feed_auditor(SimTime now);
  std::size_t charge_for(const std::string& value) const noexcept {
    return options_.object_charge ? options_.object_charge : value.size();
  }

  ProteusOptions options_;
  Backend backend_;
  std::shared_ptr<const ring::ProteusPlacement> placement_;
  std::vector<std::unique_ptr<cache::CacheServer>> servers_;
  std::vector<bool> failed_;  // the lifecycle's skip set
  core::TransitionLifecycle lifecycle_;
  std::vector<core::EndpointHealth> health_;  // routing signal per server
  Rng rng_{0x9e3779b97f4a7c15ULL};  // probe-dwell jitter, deterministic
  SimTime last_now_ = 0;  // latest caller clock, for clock-less injections
  ProteusStats stats_;
  SimTime last_audit_feed_ = 0;
};

}  // namespace proteus
