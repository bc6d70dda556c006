#include "cluster/transition_read.h"

#include <algorithm>

#include "common/check.h"
#include "common/hash.h"
#include "hashring/placement.h"

namespace proteus::cluster {

TransitionRead::TransitionRead(const Router& ring0, Router::Decision d,
                               std::string_view key, int replicas)
    : d_(d) {
  PROTEUS_CHECK(replicas >= 1 && replicas <= kMaxReplicas);
  locations_[0] = d_.primary;
  count_ = 1;
  if (replicas == 1) return;
  const std::uint64_t h = hash_bytes(key);
  for (int r = 1; r < replicas; ++r) {
    const int server = ring0.placement().server_for(
        ring::replica_ring_hash(h, r), ring0.active());
    if (std::find(begin(), end(), server) == end()) {
      locations_[count_++] = server;
    }
  }
}

TransitionRead TransitionRead::route(const Router& ring0, std::string_view key,
                                     int replicas, obs::TraceContext& ctx) {
  if (ctx.active()) {
    ctx.in_transition = ring0.in_transition();
    ctx.child(obs::span_clock_now(), obs::SpanKind::kRoute);
  }
  const Router::Decision d = ring0.decide(key);
  if (ctx.active() && ctx.in_transition) {
    ctx.child(obs::span_clock_now(), obs::SpanKind::kDigestConsult, d.primary,
              d.fallback >= 0 ? obs::SpanCause::kDigestHot
                              : obs::SpanCause::kDigestCold);
  }
  return TransitionRead(ring0, d, key, replicas);
}

TransitionRead::Step TransitionRead::next() noexcept {
  using Kind = Step::Kind;
  switch (state_) {
    case State::kPrimary:
      return {Kind::kGet, obs::SpanKind::kCacheGet, d_.primary};
    case State::kFailover:
      return {Kind::kGet, obs::SpanKind::kFailover, locations_[failover_]};
    case State::kFallback:
      return {Kind::kGet, obs::SpanKind::kMigrationFetch, d_.fallback};
    case State::kThrottle:
      return {Kind::kThrottle};
    case State::kWriteBack:
      state_ = State::kDone;
      return {Kind::kStore, obs::SpanKind::kMigrationStore};
    case State::kBackend:
      return {Kind::kBackend};
    case State::kFill:
      state_ = State::kDone;
      return {Kind::kStore, obs::SpanKind::kFill};
    case State::kDone:
      break;
  }
  return {Kind::kDone};
}

void TransitionRead::on_get(Reply reply) noexcept {
  if (reply == Reply::kCorrupt) corrupt_seen_ = true;
  switch (state_) {
    case State::kPrimary:
      if (reply == Reply::kHit) return finish(Outcome::kNewHit);
      // Sending the shed load to the backend would turn a cache overload
      // into a database overload: the read ends degraded instead.
      if (reply == Reply::kShed) return finish(Outcome::kShed);
      if (reply == Reply::kDown) {
        if (count_ > 1) {
          failover_ = 1;
          state_ = State::kFailover;
          return;
        }
        degraded_ = true;
      }
      return after_cache_tier();
    case State::kFailover:
      if (reply == Reply::kHit) return finish(Outcome::kFailoverHit);
      if (++failover_ < count_) return;
      degraded_ = true;
      return after_cache_tier();
    case State::kFallback:
      if (reply == Reply::kHit) {
        outcome_ = Outcome::kOldHit;
        state_ = State::kThrottle;
        return;
      }
      // Only a clean miss under a hot digest is a §IV-B false positive; a
      // down, shedding or corrupt-serving server proves nothing.
      false_positive_ = reply == Reply::kMiss;
      state_ = State::kBackend;
      return;
    default:
      return;
  }
}

void TransitionRead::on_throttle(bool allowed) noexcept {
  if (state_ != State::kThrottle) return;
  if (allowed) {
    state_ = State::kWriteBack;
  } else {
    // The hit is still served from the old location; the next allowed hit
    // migrates it.
    deferred_ = true;
    state_ = State::kDone;
  }
}

void TransitionRead::on_backend(Fetch fetch) noexcept {
  if (state_ != State::kBackend) return;
  switch (fetch) {
    case Fetch::kFetched:
      outcome_ = Outcome::kBackendFill;
      state_ = State::kFill;
      return;
    case Fetch::kCoalesced:
      return finish(Outcome::kBackendFill);
    case Fetch::kShed:
      return finish(Outcome::kShed);
  }
}

obs::SpanCause TransitionRead::root_cause() const noexcept {
  switch (outcome_) {
    case Outcome::kNewHit: return obs::SpanCause::kHit;
    case Outcome::kFailoverHit: return obs::SpanCause::kFailoverHit;
    case Outcome::kOldHit: return obs::SpanCause::kOldHit;
    case Outcome::kBackendFill: return obs::SpanCause::kBackendFill;
    case Outcome::kShed: return obs::SpanCause::kShed;
    case Outcome::kPending: break;
  }
  return obs::SpanCause::kNone;
}

}  // namespace proteus::cluster
