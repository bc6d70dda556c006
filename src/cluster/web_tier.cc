#include "cluster/web_tier.h"

#include <algorithm>

#include "cluster/transition_read.h"
#include "common/check.h"
#include "obs/metrics.h"

namespace proteus::cluster {

struct WebTier::Read {
  TransitionRead machine;
  std::string key;
  Trace trace;
  std::function<void()> done;
  std::string value;
};

WebTier::WebTier(sim::Simulation& sim, WebTierConfig config,
                 std::shared_ptr<Router> router, CacheTier& cache,
                 db::Database& db, int replicas)
    : sim_(sim),
      config_(config),
      router_(std::move(router)),
      replicas_(replicas),
      cache_(cache),
      db_(db),
      migration_throttle_(config.migration_throttle) {
  PROTEUS_CHECK(router_ != nullptr);
  PROTEUS_CHECK(replicas_ >= 1 && replicas_ <= TransitionRead::kMaxReplicas);
  PROTEUS_CHECK(config_.num_servers >= 1);
  queues_.reserve(static_cast<std::size_t>(config_.num_servers));
  for (int i = 0; i < config_.num_servers; ++i) {
    queues_.push_back(std::make_unique<sim::QueueingServer>(
        sim_, "web-" + std::to_string(i), config_.concurrency));
  }
}

bool WebTier::server_alive(int server) const {
  return cache_.server(server).power_state() != cache::PowerState::kOff;
}

bool WebTier::migration_allowed() {
  if (config_.overload_db_queue_depth <= 0) return true;
  std::size_t depth = 0;
  for (int i = 0; i < db_.num_shards(); ++i) {
    depth = std::max(depth, db_.shard(i).queue_depth());
  }
  migration_throttle_.set_overloaded(
      depth >= static_cast<std::size_t>(config_.overload_db_queue_depth));
  return migration_throttle_.allow(sim_.now());
}

void WebTier::trace_child(const Trace& trace, obs::SpanKind kind, int server,
                          obs::SpanCause cause, std::string_view key) {
  if (trace != nullptr && trace->active()) {
    trace->child(sim_.now(), kind, server, cause, key);
  }
}

void WebTier::handle(const std::string& key, std::function<void()> done) {
  ++stats_.requests;
  const std::size_t web = next_server_++ % queues_.size();
  Trace trace;
  if (config_.spans != nullptr) {
    obs::TraceContext ctx = obs::TraceContext::begin(config_.spans, sim_.now());
    if (ctx.active()) {
      ctx.in_transition = router_->in_transition();
      trace = std::make_shared<obs::TraceContext>(ctx);
      // Close the trace when the response reaches the client: the final
      // reply hop lands in the closing kRespond child.
      done = [this, trace, start = sim_.now(), key,
              done = std::move(done)]() mutable {
        trace->finish(sim_.now(), start, key);
        done();
      };
    }
  }
  // RBE -> web hop, then servlet service, then the retrieval procedure.
  sim_.schedule_after(config_.rbe_hop_latency, [this, web, key, trace,
                                                done = std::move(done)]() mutable {
    trace_child(trace, obs::SpanKind::kHop, static_cast<int>(web));
    queues_[web]->submit(config_.service_time,
                         [this, web, key, trace = std::move(trace),
                          done = std::move(done)]() mutable {
                           trace_child(trace, obs::SpanKind::kWebService,
                                       static_cast<int>(web));
                           // Algorithm 2: FETCH_DATA(key_d).
                           advance(std::make_shared<Read>(Read{
                               TransitionRead(*router_, router_->decide(key),
                                              key, replicas_),
                               key, std::move(trace), std::move(done), {}}));
                         });
  });
}

void WebTier::respond_after_hop(std::function<void()> done) {
  sim_.schedule_after(config_.rbe_hop_latency, std::move(done));
}

void WebTier::advance(const std::shared_ptr<Read>& read) {
  using Step = TransitionRead::Step;
  using Reply = TransitionRead::Reply;
  using Outcome = TransitionRead::Outcome;
  TransitionRead& machine = read->machine;
  for (;;) {
    const Step step = machine.next();
    switch (step.kind) {
      case Step::Kind::kGet:
        if (!server_alive(step.server)) {
          // A powered-off old location is simply not consulted; a crashed
          // current location is a §III-E failover trigger.
          if (step.role != obs::SpanKind::kMigrationFetch) {
            ++stats_.failed_server_skips;
            trace_child(read->trace, step.role, step.server,
                        obs::SpanCause::kDown, read->key);
          }
          machine.on_get(Reply::kDown);
          break;
        }
        cache_.async_get(step.server, read->key,
                         [this, read, step](std::optional<std::string> value) {
                           trace_child(read->trace, step.role, step.server,
                                       value ? obs::SpanCause::kHit
                                             : obs::SpanCause::kMiss,
                                       read->key);
                           if (value) read->value = std::move(*value);
                           read->machine.on_get(value ? Reply::kHit
                                                      : Reply::kMiss);
                           advance(read);
                         });
        return;
      case Step::Kind::kThrottle:
        machine.on_throttle(migration_allowed());
        break;
      case Step::Kind::kStore:
        // Line 12 generalized: populate every live replica location
        // (fire-and-forget); only the FIRST request pays the old-location
        // hop (§IV-A prop. 1).
        for (int server : machine) {
          if (server_alive(server)) {
            cache_.async_set(server, read->key, read->value,
                             db_.object_size());
          }
        }
        if (step.role == obs::SpanKind::kFill) {
          // A resize may have landed while the query was in flight: fill
          // the locations current now as well.
          const TransitionRead now(*router_, router_->decide(read->key),
                                   read->key, replicas_);
          for (int server : now) {
            if (std::find(machine.begin(), machine.end(), server) ==
                    machine.end() &&
                server_alive(server)) {
              cache_.async_set(server, read->key, read->value,
                               db_.object_size());
            }
          }
        }
        break;
      case Step::Kind::kBackend:
        // Line 9: a hot digest whose old location missed.
        if (machine.false_positive()) ++stats_.digest_false_positives;
        fetch_from_db(read);
        return;
      case Step::Kind::kDone:
        if (machine.outcome() == Outcome::kNewHit) ++stats_.new_server_hits;
        if (machine.outcome() == Outcome::kFailoverHit) ++stats_.replica_hits;
        if (machine.outcome() == Outcome::kOldHit) ++stats_.old_server_hits;
        if (machine.deferred()) {
          // Under overload the store is deferred — the value stays on the
          // draining server, a later allowed hit migrates it.
          ++stats_.migrations_deferred;
          trace_child(read->trace, obs::SpanKind::kMigrationStore,
                      machine.primary(), obs::SpanCause::kThrottled,
                      read->key);
        }
        if (read->trace != nullptr) {
          read->trace->root_cause = machine.root_cause();
        }
        respond_after_hop(std::move(read->done));
        return;
    }
  }
}

void WebTier::fetch_from_db(const std::shared_ptr<Read>& read) {
  // Dog-pile coalescing: if a query for this key is already in flight,
  // piggyback on it — the first fetch populates the caches, so this
  // request's response is complete the moment that query returns.
  if (config_.coalesce_db_fetches) {
    auto it = inflight_db_.find(read->key);
    if (it != inflight_db_.end()) {
      ++stats_.coalesced_fetches;
      it->second.push_back([this, read] {
        // The wait on someone else's in-flight query is still db time.
        trace_child(read->trace, obs::SpanKind::kBackendFetch, -1,
                    obs::SpanCause::kBackendFill, read->key);
        read->machine.on_backend(TransitionRead::Fetch::kCoalesced);
        advance(read);
      });
      return;
    }
    inflight_db_.emplace(read->key, std::vector<std::function<void()>>{});
  }

  // Line 10: false positive or "cold" data — reach the database tier. The
  // database never notices the transition (§IV-A).
  ++stats_.db_fetches;
  db_.async_get(read->key, [this, read](std::string db_value) {
    trace_child(read->trace, obs::SpanKind::kBackendFetch, -1,
                obs::SpanCause::kBackendFill, read->key);
    read->value = std::move(db_value);
    read->machine.on_backend(TransitionRead::Fetch::kFetched);
    advance(read);
    if (config_.coalesce_db_fetches) {
      // Release the piggybacked requests.
      auto it = inflight_db_.find(read->key);
      if (it != inflight_db_.end()) {
        auto waiters = std::move(it->second);
        inflight_db_.erase(it);
        for (auto& waiter : waiters) waiter();
      }
    }
  });
}

void WebTier::audit_observe(SimTime now) {
  if (config_.auditor == nullptr) return;
  const int n = cache_.num_servers();
  std::vector<obs::ServerAuditSample> fleet(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const cache::CacheServer& s = cache_.server(i);
    auto& sample = fleet[static_cast<std::size_t>(i)];
    sample.power_state = static_cast<int>(s.power_state());
    // gets_served counts routed requests (including those a draining server
    // absorbed); the server's own stats supply the hit side.
    sample.gets_total = static_cast<double>(cache_.gets_served(i));
    sample.hits_total = static_cast<double>(s.stats().hits);
  }
  config_.auditor->observe(now, fleet, 0,
                           static_cast<double>(stats_.db_fetches));
}

void WebTier::register_metrics(obs::MetricsRegistry& registry) const {
  const auto stat = [this, &registry](std::string name, std::string help,
                                      auto getter) {
    registry.counter_fn(std::move(name), std::move(help),
                        [this, getter]() -> double {
                          return static_cast<double>(getter(stats_));
                        });
  };
  stat("proteus_webtier_requests_total", "user requests handled",
       [](const WebTierStats& s) { return s.requests; });
  stat("proteus_webtier_new_server_hits_total",
       "Algorithm 2 line 3 hits on the current mapping",
       [](const WebTierStats& s) { return s.new_server_hits; });
  stat("proteus_webtier_old_server_hits_total",
       "line 7 hot-data migrations",
       [](const WebTierStats& s) { return s.old_server_hits; });
  stat("proteus_webtier_replica_hits_total",
       "served by a SS III-E failover ring",
       [](const WebTierStats& s) { return s.replica_hits; });
  stat("proteus_webtier_failed_server_skips_total",
       "rings skipped because the server was powered off",
       [](const WebTierStats& s) { return s.failed_server_skips; });
  stat("proteus_webtier_db_fetches_total", "line 10 database queries issued",
       [](const WebTierStats& s) { return s.db_fetches; });
  stat("proteus_webtier_coalesced_fetches_total",
       "requests piggybacked on an in-flight query (dog-pile)",
       [](const WebTierStats& s) { return s.coalesced_fetches; });
  stat("proteus_webtier_digest_false_positives_total",
       "line 6 said hot, line 7 missed (SS IV-B p_p)",
       [](const WebTierStats& s) { return s.digest_false_positives; });
  stat("proteus_webtier_migrations_deferred_total",
       "line-12 stores deferred by the overload migration throttle",
       [](const WebTierStats& s) { return s.migrations_deferred; });
  registry.gauge_fn("proteus_webtier_cache_hit_ratio",
                    "fraction of requests served from the cache tier",
                    [this] { return stats_.cache_hit_ratio(); });
}

}  // namespace proteus::cluster
