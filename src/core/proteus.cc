#include "core/proteus.h"

#include <algorithm>

#include "cluster/transition_read.h"
#include "common/check.h"

namespace proteus {

Proteus::Proteus(ProteusOptions options, Backend backend)
    : options_(options),
      backend_(std::move(backend)),
      placement_(std::make_shared<ring::ProteusPlacement>(options.max_servers)),
      failed_(static_cast<std::size_t>(options.max_servers), false),
      lifecycle_(servers_,
                 std::make_shared<cluster::Router>(
                     placement_, options.initial_servers > 0
                                     ? options.initial_servers
                                     : options.max_servers),
                 options.ttl, options.trace, failed_),
      health_(static_cast<std::size_t>(options.max_servers)) {
  PROTEUS_CHECK(backend_ != nullptr);
  PROTEUS_CHECK(options_.max_servers >= 1);
  PROTEUS_CHECK(options_.replicas >= 1 &&
                options_.replicas <= cluster::TransitionRead::kMaxReplicas);
  servers_.reserve(static_cast<std::size_t>(options_.max_servers));
  for (int i = 0; i < options_.max_servers; ++i) {
    cache::CacheConfig per_server = options_.per_server;
    per_server.trace = options_.trace;
    per_server.trace_server_id = i;
    servers_.push_back(std::make_unique<cache::CacheServer>(per_server));
    if (i >= active_servers()) servers_.back()->power_off();
  }
  const core::TransitionLifecycle::Replay replay =
      lifecycle_.replay(options_.journal_path);
  stats_.journal_records_replayed = replay.records;
  stats_.journal_transitions_resumed = replay.resumed ? 1 : 0;
}

void Proteus::tick(SimTime now) {
  last_now_ = now;
  lifecycle_.tick(now);
  // Audit feed rides the tick, at most once per second of `now`, so the
  // per-get cost with auditing off is this one pointer test.
  if (options_.auditor != nullptr && now - last_audit_feed_ >= kSecond) {
    feed_auditor(now);
  }
}

void Proteus::feed_auditor(SimTime now) {
  last_audit_feed_ = now;
  std::vector<obs::ServerAuditSample> fleet(
      static_cast<std::size_t>(options_.max_servers));
  for (int i = 0; i < options_.max_servers; ++i) {
    const cache::CacheServer& s = server(i);
    auto& sample = fleet[static_cast<std::size_t>(i)];
    sample.power_state = static_cast<int>(s.power_state());
    sample.gets_total = static_cast<double>(s.stats().gets);
    sample.hits_total = static_cast<double>(s.stats().hits);
  }
  // Observed Eq. 5 inputs: false negatives are detected on the
  // backend-fetch path, so fetches are the opportunity count.
  options_.auditor->observe(
      now, fleet, static_cast<double>(stats_.digest_false_negatives),
      static_cast<double>(stats_.backend_fetches));
}

std::string Proteus::get(std::string_view key, SimTime now) {
  // Spans use the steady clock (span_clock_now), not the caller's possibly
  // simulated `now`, so durations are real even under a frozen SimTime.
  const SimTime start_us =
      options_.spans != nullptr ? obs::span_clock_now() : 0;
  obs::TraceContext ctx = obs::TraceContext::begin(options_.spans, start_us);
  std::string value = get_inner(key, now, ctx);
  ctx.finish(obs::span_clock_now(), start_us, key);
  return value;
}

std::string Proteus::get_inner(std::string_view key, SimTime now,
                               obs::TraceContext& ctx) {
  using Step = cluster::TransitionRead::Step;
  using Reply = cluster::TransitionRead::Reply;
  using Outcome = cluster::TransitionRead::Outcome;
  tick(now);
  ++stats_.gets;
  const cluster::Router& router = lifecycle_.router();
  cluster::TransitionRead read =
      cluster::TransitionRead::route(router, key, options_.replicas, ctx);
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
          if (ctx.active()) {
            ctx.child(obs::span_clock_now(), step.role, step.server,
                      obs::SpanCause::kDown, key);
          }
          read.on_get(Reply::kDown);
          break;
        }
        auto hit = mutable_server(step.server).get(k, now);
        if (current) {  // a miss is healthy too
          health_[static_cast<std::size_t>(step.server)].record_success(
              now, 0, rng_);
        }
        if (ctx.active()) {
          ctx.child(obs::span_clock_now(), step.role, step.server,
                    hit ? obs::SpanCause::kHit : obs::SpanCause::kMiss, key);
        }
        if (hit) value = std::move(*hit);
        read.on_get(hit ? Reply::kHit : Reply::kMiss);
        break;
      }
      case Step::Kind::kThrottle:
        obs::emit(options_.trace, now, obs::TraceEventKind::kMigrationHit,
                  read.fallback(), read.primary(), value.size(), key);
        read.on_throttle(options_.migration_throttle == nullptr ||
                         options_.migration_throttle->allow(now));
        break;
      case Step::Kind::kStore:
        for (int server : read) {
          if (usable(server)) {
            mutable_server(server).set(k, value, now, charge_for(value));
          }
        }
        if (ctx.active()) {
          ctx.child(obs::span_clock_now(), step.role, read.primary(),
                    obs::SpanCause::kStored, key);
        }
        break;
      case Step::Kind::kBackend:
        if (read.false_positive()) {
          ++stats_.digest_false_positives;
          obs::emit(options_.trace, now,
                    obs::TraceEventKind::kDigestFalsePositive, read.fallback(),
                    read.primary(), 0, key);
        } else if (read.fallback() < 0 && router.in_transition()) {
          // §IV-B false-negative check: the digest reported the key cold,
          // but is it resident on its old-mapping server? Cheap in-process
          // (one hash + index probe), and it makes the paper's FN bound a
          // measured quantity instead of a modeled one.
          const int old_server =
              placement_->server_for(hash_bytes(key), router.old_active());
          if (old_server != read.primary() &&
              server(old_server).power_state() != cache::PowerState::kOff &&
              server(old_server).contains(k, now)) {
            ++stats_.digest_false_negatives;
            obs::emit(options_.trace, now,
                      obs::TraceEventKind::kDigestFalseNegative, old_server,
                      read.primary(), 0, key);
          }
        }
        ++stats_.backend_fetches;
        value = backend_(key);
        if (ctx.active()) {
          ctx.child(obs::span_clock_now(), obs::SpanKind::kBackendFetch, -1,
                    obs::SpanCause::kBackendFill, key);
        }
        read.on_backend(cluster::TransitionRead::Fetch::kFetched);
        break;
      case Step::Kind::kDone:
        if (read.outcome() == Outcome::kNewHit) ++stats_.new_server_hits;
        if (read.outcome() == Outcome::kFailoverHit) ++stats_.failover_hits;
        if (read.outcome() == Outcome::kOldHit) ++stats_.old_server_hits;
        if (read.deferred()) {
          // The throttle kept the write-back from competing with foreground
          // traffic; the hit is still served from the old location.
          ++stats_.migrations_deferred;
          obs::emit(options_.trace, now,
                    obs::TraceEventKind::kMigrationDeferred, read.fallback(),
                    read.primary(), value.size(), key);
          if (ctx.active()) {
            ctx.child(obs::span_clock_now(), obs::SpanKind::kMigrationStore,
                      read.primary(), obs::SpanCause::kThrottled, key);
          }
        }
        ctx.root_cause = read.root_cause();
        return value;
    }
  }
}

void Proteus::put(std::string_view key, std::string value, SimTime now) {
  tick(now);
  ++stats_.puts;
  const cluster::Router& router = lifecycle_.router();
  // The write set is exactly the locations a read of `key` looks at.
  const cluster::TransitionRead locations(router, router.decide(key), key,
                                          options_.replicas);
  const std::string k(key);
  const std::size_t charge = charge_for(value);
  // Invalidate every other powered location first. Besides the in-flight
  // transition's old location, copies abandoned by EARLIER mapping epochs
  // may still sit on servers that stayed powered (a scale-up moves keys off
  // a server without deleting them); if the mapping later returns there,
  // such a copy would resurrect a stale value. Write-through with global
  // invalidation keeps reads exactly as fresh as the backend.
  for (int i = 0; i < options_.max_servers; ++i) {
    if (powered(i) &&
        std::find(locations.begin(), locations.end(), i) == locations.end()) {
      mutable_server(i).erase(k);
    }
  }
  for (int server : locations) {
    if (usable(server)) mutable_server(server).set(k, value, now, charge);
  }
}

void Proteus::erase(std::string_view key, SimTime now) {
  tick(now);
  const std::string k(key);
  for (int i = 0; i < options_.max_servers; ++i) {
    if (powered(i)) mutable_server(i).erase(k);
  }
}

void Proteus::resize(int n_active, SimTime now) {
  tick(now);
  if (lifecycle_.resize(n_active, now)) ++stats_.resizes;
}

void Proteus::fail_server(int server) {
  PROTEUS_CHECK(server >= 0 && server < options_.max_servers);
  if (failed_[static_cast<std::size_t>(server)]) return;
  failed_[static_cast<std::size_t>(server)] = true;
  // The membership layer declared the server dead: quarantine the routing
  // detector immediately rather than waiting for errors to accrue.
  health_[static_cast<std::size_t>(server)].force_quarantine(last_now_, rng_);
  // A crash loses the in-memory cache (§III-A).
  if (powered(server)) mutable_server(server).power_off();
}

void Proteus::recover_server(int server) {
  PROTEUS_CHECK(server >= 0 && server < options_.max_servers);
  if (!failed_[static_cast<std::size_t>(server)]) return;
  failed_[static_cast<std::size_t>(server)] = false;
  // Operator re-admission: skip the probe dwell, prove health in probation.
  health_[static_cast<std::size_t>(server)].begin_probation();
  // Rejoin cold if the server is inside the active set.
  if (server < active_servers()) mutable_server(server).power_on();
}

int Proteus::powered_servers() const noexcept {
  int n = 0;
  for (const auto& s : servers_) {
    n += s->power_state() != cache::PowerState::kOff;
  }
  return n;
}

ring::TransitionPlan Proteus::plan_resize(int n_active) const {
  return ring::plan_transition(*placement_, active_servers(), n_active,
                               bytes_cached());
}

void Proteus::register_metrics(obs::MetricsRegistry& registry) const {
  const auto stat = [this, &registry](std::string name, std::string help,
                                      auto getter) {
    registry.counter_fn(std::move(name), std::move(help),
                        [this, getter]() -> double {
                          return static_cast<double>(getter(stats_));
                        });
  };
  stat("proteus_gets_total", "Algorithm 2 retrievals",
       [](const ProteusStats& s) { return s.gets; });
  stat("proteus_new_server_hits_total", "hits on the current mapping",
       [](const ProteusStats& s) { return s.new_server_hits; });
  stat("proteus_old_server_hits_total",
       "on-demand migrations (Algorithm 2 line 12)",
       [](const ProteusStats& s) { return s.old_server_hits; });
  stat("proteus_failover_hits_total",
       "served by a SS III-E replica while the ring-0 primary was down",
       [](const ProteusStats& s) { return s.failover_hits; });
  stat("proteus_failed_server_skips_total",
       "current-mapping locations skipped: crashed, off or quarantined",
       [](const ProteusStats& s) { return s.failed_server_skips; });
  stat("proteus_backend_fetches_total", "authoritative-store fetches",
       [](const ProteusStats& s) { return s.backend_fetches; });
  stat("proteus_digest_false_positives_total",
       "digest said hot, old server missed (SS IV-B p_p bound)",
       [](const ProteusStats& s) { return s.digest_false_positives; });
  stat("proteus_digest_false_negatives_total",
       "digest said cold, key was resident (SS IV-B p_n bound)",
       [](const ProteusStats& s) { return s.digest_false_negatives; });
  stat("proteus_puts_total", "explicit writes",
       [](const ProteusStats& s) { return s.puts; });
  stat("proteus_resizes_total", "provisioning transitions begun",
       [](const ProteusStats& s) { return s.resizes; });
  stat("proteus_migrations_deferred_total",
       "line-12 write-backs deferred by the migration throttle",
       [](const ProteusStats& s) { return s.migrations_deferred; });
  stat("proteus_journal_records_replayed_total",
       "transition-journal records replayed at startup",
       [](const ProteusStats& s) { return s.journal_records_replayed; });
  stat("proteus_journal_transitions_resumed_total",
       "interrupted transitions resumed or rolled forward from the journal",
       [](const ProteusStats& s) { return s.journal_transitions_resumed; });
  registry.gauge_fn("proteus_cluster_epoch",
                    "fencing epoch, bumped on every resize",
                    [this] { return static_cast<double>(cluster_epoch()); });
  registry.gauge_fn("proteus_hit_ratio", "cache-tier hit ratio",
                    [this] { return stats_.hit_ratio(); });
  registry.gauge_fn("proteus_active_servers", "servers in the current mapping",
                    [this] { return static_cast<double>(active_servers()); });
  registry.gauge_fn("proteus_powered_servers",
                    "servers not powered off (active + draining)",
                    [this] { return static_cast<double>(powered_servers()); });
  registry.gauge_fn("proteus_in_transition",
                    "1 while a SS IV smooth transition is in flight",
                    [this] { return in_transition() ? 1.0 : 0.0; });
  registry.gauge_fn("proteus_bytes_cached", "bytes resident fleet-wide",
                    [this] { return static_cast<double>(bytes_cached()); });
  // Per-server load/occupancy: the live check of the SS III K/n guarantee —
  // every active server's share of gets should track 1/n.
  for (int i = 0; i < options_.max_servers; ++i) {
    const std::string prefix = "proteus_server_" + std::to_string(i);
    registry.counter_fn(prefix + "_gets_total", "gets routed to this server",
                        [this, i]() -> double {
                          return static_cast<double>(server(i).stats().gets);
                        });
    registry.gauge_fn(prefix + "_hit_ratio", "per-server hit ratio",
                      [this, i] { return server(i).stats().hit_ratio(); });
    registry.gauge_fn(prefix + "_power_state", "0=active 1=draining 2=off",
                      [this, i] {
                        return static_cast<double>(server(i).power_state());
                      });
  }
}

std::size_t Proteus::bytes_cached() const noexcept {
  std::size_t total = 0;
  for (const auto& s : servers_) {
    if (s->power_state() != cache::PowerState::kOff) total += s->bytes_used();
  }
  return total;
}

}  // namespace proteus
