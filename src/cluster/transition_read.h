// The one Algorithm 2 read (§IV-A), generalized over §III-E replica rings,
// as a sans-I/O step machine. Every front end — the in-process facade,
// the wire client, and the simulated web tier — drives this same machine
// and keeps only its transport policy (hedging, retries, health gating,
// checksums, coalescing, span and stats mapping).
//
// The rule, in order:
//   1. route on ring 0 and consult the digest (Router::decide);
//   2. fetch the primary;
//   3. only while the ring-0 primary is down, fail over to the key's other
//      distinct replica locations;
//   4. fetch the ring-0 old location when the digest marked the key hot;
//   5. on an old-location hit, write the value back to every current
//      replica location unless the migration throttle defers it (line 12);
//      a clean old-location miss is a digest false positive;
//   6. fetch from the backend and fill every current replica location.
//
// The machine asks for one action at a time (next()) and is told what
// happened (on_get / on_throttle / on_backend). It never touches a value,
// a socket or a clock, so an asynchronous caller can park it between
// callbacks. At r = 1 step 3 never happens and the machine is exactly the
// paper's Algorithm 2.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "cluster/router.h"
#include "obs/span.h"

namespace proteus::cluster {

class TransitionRead {
 public:
  // Upper bound on r; a key has at most this many distinct locations.
  static constexpr int kMaxReplicas = 8;

  // What a cache server answered. kDown: unreachable, quarantined or
  // powered off. kShed: refused under overload (healthy but saturated).
  // kCorrupt: a hit whose payload failed verification, served as a miss.
  enum class Reply : std::uint8_t { kHit, kMiss, kDown, kShed, kCorrupt };
  // What the backend step produced. kCoalesced: another request's fetch
  // answered this one and fills the cache for both.
  enum class Fetch : std::uint8_t { kFetched, kCoalesced, kShed };
  enum class Outcome : std::uint8_t {
    kPending,
    kNewHit,       // the ring-0 primary answered
    kFailoverHit,  // a replica answered while the primary was down
    kOldHit,       // the ring-0 old location answered (on-demand migration)
    kBackendFill,  // the backend answered
    kShed,         // the primary or the backend refused under overload
  };

  struct Step {
    enum class Kind : std::uint8_t {
      kGet,       // GET `server`; report with on_get()
      kThrottle,  // old-location hit: ask the throttle, report on_throttle()
      kStore,     // SET the value held on every replica location
      kBackend,   // fetch from the backend; report with on_backend()
      kDone,      // outcome() and the flags are final
    };
    Kind kind;
    // kGet: kCacheGet, kFailover or kMigrationFetch. kStore:
    // kMigrationStore (line-12 write-back) or kFill (backend fill).
    obs::SpanKind role = obs::SpanKind::kCacheGet;
    int server = -1;  // kGet only
  };

  // `d` is ring 0's decision for `key`; `ring0` supplies the placement and
  // active count the other rings' locations are derived from.
  TransitionRead(const Router& ring0, Router::Decision d, std::string_view key,
                 int replicas);

  // Step 1 with tracing: records the kRoute child, routes, and (mid-
  // transition) records the kDigestConsult child with the digest's verdict.
  static TransitionRead route(const Router& ring0, std::string_view key,
                              int replicas, obs::TraceContext& ctx);

  // The next action. kGet, kThrottle and kBackend repeat until reported;
  // kStore is handed out once.
  Step next() noexcept;
  void on_get(Reply reply) noexcept;
  void on_throttle(bool allowed) noexcept;
  void on_backend(Fetch fetch) noexcept;

  int primary() const noexcept { return d_.primary; }
  int fallback() const noexcept { return d_.fallback; }
  // Distinct replica locations under the current mapping, primary first:
  // the fill and write-back targets, and the write set of every put path.
  const int* begin() const noexcept { return locations_.data(); }
  const int* end() const noexcept { return locations_.data() + count_; }

  Outcome outcome() const noexcept { return outcome_; }
  // The root span cause of a finished read.
  obs::SpanCause root_cause() const noexcept;
  bool false_positive() const noexcept { return false_positive_; }
  bool deferred() const noexcept { return deferred_; }
  bool corrupt_seen() const noexcept { return corrupt_seen_; }
  // The primary was down and no replica answered.
  bool degraded() const noexcept { return degraded_; }

 private:
  enum class State : std::uint8_t {
    kPrimary, kFailover, kFallback, kThrottle, kWriteBack, kBackend, kFill,
    kDone,
  };
  void after_cache_tier() noexcept {
    state_ = d_.fallback >= 0 ? State::kFallback : State::kBackend;
  }
  void finish(Outcome outcome) noexcept {
    outcome_ = outcome;
    state_ = State::kDone;
  }

  Router::Decision d_;
  std::array<int, kMaxReplicas> locations_{};
  std::uint8_t count_ = 0;
  std::uint8_t failover_ = 0;  // index into locations_ of the next failover
  State state_ = State::kPrimary;
  Outcome outcome_ = Outcome::kPending;
  bool false_positive_ = false;
  bool deferred_ = false;
  bool corrupt_seen_ = false;
  bool degraded_ = false;
};

}  // namespace proteus::cluster
