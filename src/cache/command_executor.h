// Transport-agnostic command executor beneath both wire protocols. The
// paper's server is one memcached reachable over two encodings (§V-3), so
// the sessions (text_protocol.h, binary_protocol.h) only frame, parse and
// encode; every rule that decides WHAT a command does lives here, once:
//   * per-shard pipeline-cap accounting (cache/pipeline_policy.h);
//   * shard routing and the deadline-bounded shard-lock acquire, each shed
//     counted once, with the kServerLockWait span;
//   * epoch fencing: mutations admit, PROTEUS_EPOCH stores adopt, reads
//     observe (docs/PROTOCOL.md "Epoch fencing");
//   * reserved-key dispatch: the digest and epoch keys are served by the
//     engine's merged paths, never by a shard;
//   * CRC32C verify-on-store;
//   * the flush and stats-reset fan-out.
// Every command returns a typed Outcome; docs/PROTOCOL.md "Executor
// outcomes" maps each to its text reply and binary status. Store checks run
// in one order on both wires: PROTEUS_EPOCH adoption, epoch fence, reserved
// key, shard lock, checksum, then the add/replace/CAS condition — a store
// both stale and corrupt is answered stale-epoch. One executor per
// connection (it owns the per-batch pipeline budget); not thread-safe.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/cache_server.h"
#include "cache/pipeline_policy.h"
#include "cache/sharded_cache.h"
#include "common/time.h"
#include "obs/span.h"

namespace proteus::cache {

enum class Outcome : std::uint8_t {
  kOk,              // served / stored / deleted / touched / counted
  kNotFound,        // key absent (get miss, replace, CAS, delete, touch, incr)
  kExists,          // add of a resident key, or CAS version mismatch
  kNotNumeric,      // incr/decr of a value that is not a decimal u64
  kStaleEpoch,      // mutation fenced, or a stale PROTEUS_EPOCH proposal
  kBadChecksum,     // store refused: value failed its CRC32C stamp
  kReservedKey,     // store to a read-only digest key
  kBadEpochValue,   // PROTEUS_EPOCH store that is not `set <decimal>`
  kTooLarge,        // declared value longer than the cache's whole budget
  kOverloaded,      // shed: pipeline cap or shard-lock deadline
};

// A served get: the value plus the item metadata both encoders need.
struct Hit {
  std::string value;
  ItemMeta meta;  // reserved keys: flags 0, cas 0, no checksum
};

enum class StoreMode : std::uint8_t { kSet, kAdd, kReplace };

struct StoreCommand {
  StoreMode mode = StoreMode::kSet;
  std::string_view key;
  std::string value;
  std::uint32_t flags = 0;
  std::optional<std::uint32_t> crc;  // verify-on-store stamp
  std::uint64_t cas = 0;             // 0 = unconditional store
  std::uint64_t epoch = 0;           // fencing stamp; 0 = unstamped
};

struct CounterCommand {
  std::string_view key;
  bool increment = true;
  std::uint64_t delta = 0;
  // Value to create an absent key with; nullopt = answer kNotFound.
  std::optional<std::uint64_t> initial;
};

// Everything the `stats` encoders print, read through the engine's merged
// (internally locked) accessors.
struct StatsSnapshot {
  CacheStats counters;
  std::size_t items = 0;
  std::size_t bytes = 0;
  std::size_t limit_bytes = 0;
  std::size_t digest_counters = 0;
  std::size_t digest_bytes = 0;
  std::uint64_t cluster_epoch = 0;
  std::uint64_t incarnation = 0;
  std::uint64_t stale_epoch_rejects = 0;
};

class CommandExecutor {
 public:
  // `spans` (optional) collects spans, tagged with `server_id`.
  CommandExecutor(ShardedCacheServer& engine, PipelinePolicy pipeline,
                  obs::SpanCollector* spans, int server_id);

  // Starts a feed() batch: every shard's pipeline budget is full again.
  void begin_batch();
  // Charges one cache-touching command to `key`'s shard budget (keyless:
  // shard 0). A refusal counts one pipeline shed; the caller answers
  // kOverloaded without ever taking the lock, so no command is counted as
  // both a pipeline and a deadline shed.
  bool admit(std::string_view key);
  // False for a declared value no store could hold: the session answers
  // kTooLarge and skips the body without buffering it.
  bool fits(std::size_t value_bytes) const noexcept {
    return value_bytes <= engine_.memory_budget();
  }

  // `trace_id` (0 = untraced) correlates the kServerLockWait span. A get's
  // epoch stamp only teaches the engine; it never fences a read.
  Outcome get(std::string_view key, std::uint64_t epoch, SimTime now,
              std::uint64_t trace_id, Hit& hit);
  // `cas_out` (optional) receives the stored item's CAS on kOk.
  Outcome store(StoreCommand cmd, SimTime now, std::uint64_t trace_id,
                std::uint64_t* cas_out = nullptr);
  Outcome erase(std::string_view key, std::uint64_t epoch,
                std::uint64_t trace_id);
  // TTL is access-based here, so a touch is a read.
  Outcome touch(std::string_view key, SimTime now, std::uint64_t trace_id);
  // On kOk `value` is the new counter value and `cas` the item's version.
  Outcome counter(const CounterCommand& cmd, SimTime now,
                  std::uint64_t trace_id, std::uint64_t& value,
                  std::uint64_t& cas);
  void flush();
  StatsSnapshot stats() const;
  // Zeroes the engine's counters, then runs the stats-reset hook.
  void reset_stats();

  // Runs on `stats reset` with no shard lock held (see TextProtocolSession).
  void set_stats_reset_hook(std::function<void()> hook) {
    stats_reset_hook_ = std::move(hook);
  }

  bool tracing() const noexcept { return spans_ != nullptr; }
  // The trace id to record under: `wire_id` when spans are collected, else
  // 0 (so untraced sessions never read the span clock).
  std::uint64_t traced(std::uint64_t wire_id) const noexcept {
    return tracing() ? wire_id : 0;
  }
  // Records [start, span_clock_now()] when `trace_id` is nonzero.
  void record_span(std::uint64_t trace_id, obs::SpanKind kind, SimTime start,
                   obs::SpanCause cause = obs::SpanCause::kNone,
                   std::string_view key = {}) const;
  // The op-span cause of an outcome: fenced and corrupt work is tagged.
  static obs::SpanCause span_cause(Outcome outcome) noexcept;

 private:
  // Locks `key`'s shard under pipeline_.lock_deadline_us and records the
  // lock-wait span; nullptr after counting one deadline shed.
  CacheServer* acquire(std::string_view key, std::uint64_t trace_id,
                       ShardedCacheServer::Guard& guard);
  // The engine's admin value of a reserved key; nullopt for any other key.
  std::optional<std::string> reserved_read(std::string_view key, SimTime now);

  ShardedCacheServer& engine_;
  PipelinePolicy pipeline_;
  obs::SpanCollector* spans_;
  int server_id_;
  std::function<void()> stats_reset_hook_;
  // Cache-touching commands served this batch, per shard.
  std::vector<int> served_;
};

}  // namespace proteus::cache
