#include "cache/command_executor.h"

#include <algorithm>
#include <charconv>

#include "common/hash.h"

namespace proteus::cache {

namespace {

constexpr std::size_t kRetainedHitBytes = 64 << 10;

bool parse_u64(std::string_view text, std::uint64_t& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

CommandExecutor::CommandExecutor(ShardedCacheServer& engine,
                                 PipelinePolicy pipeline,
                                 obs::SpanCollector* spans, int server_id)
    : engine_(engine),
      pipeline_(pipeline),
      spans_(spans),
      server_id_(server_id),
      served_(static_cast<std::size_t>(engine.num_shards()), 0) {}

void CommandExecutor::begin_batch() {
  std::fill(served_.begin(), served_.end(), 0);
}

bool CommandExecutor::admit(std::string_view key) {
  if (pipeline_.max_per_batch <= 0) return true;  // 0 = unlimited
  int& served = served_[key.empty() ? 0 : engine_.shard_index(key)];
  if (served >= pipeline_.max_per_batch) {
    if (pipeline_.sheds != nullptr) {
      pipeline_.sheds->fetch_add(1, std::memory_order_relaxed);
    }
    return false;
  }
  ++served;
  return true;
}

CacheServer* CommandExecutor::acquire(std::string_view key,
                                      std::uint64_t trace_id,
                                      ShardedCacheServer::Guard& guard) {
  const std::size_t idx = engine_.shard_index(key);
  const SimTime wait_start = trace_id != 0 ? obs::span_clock_now() : 0;
  guard = engine_.lock_shard_for(idx, pipeline_.lock_deadline_us);
  const bool timed_out = !guard.owns_lock();
  // The key lets proteus-spans attribute contention to its shard.
  record_span(trace_id, obs::SpanKind::kServerLockWait, wait_start,
              timed_out ? obs::SpanCause::kShed : obs::SpanCause::kNone, key);
  if (timed_out) {
    if (pipeline_.deadline_sheds != nullptr) {
      pipeline_.deadline_sheds->fetch_add(1, std::memory_order_relaxed);
    }
    return nullptr;
  }
  return &engine_.shard(idx);
}

std::optional<std::string> CommandExecutor::reserved_read(std::string_view key,
                                                          SimTime now) {
  // Admin reads take no shard lock: the digest blob is the OR of every
  // shard's segment (§V-3) and the epoch lives in engine atomics.
  if (!ShardedCacheServer::is_reserved_key(key)) return std::nullopt;
  return engine_.get(key, now);
}

Outcome CommandExecutor::get(std::string_view key, std::uint64_t epoch,
                             SimTime now, std::uint64_t trace_id, Hit& hit) {
  engine_.observe_epoch(epoch);  // reads teach, never fence
  // The session reuses `hit` across gets; do not let it pin the largest
  // value (or digest blob) it ever served.
  if (hit.value.capacity() > kRetainedHitBytes) std::string().swap(hit.value);
  if (auto admin = reserved_read(key, now)) {
    hit.value = std::move(*admin);
    hit.meta = ItemMeta{};
    return Outcome::kOk;
  }
  ShardedCacheServer::Guard guard;
  CacheServer* cache = acquire(key, trace_id, guard);
  if (cache == nullptr) return Outcome::kOverloaded;
  return cache->read(key, now, hit.value, hit.meta) ? Outcome::kOk
                                                    : Outcome::kNotFound;
}

Outcome CommandExecutor::store(StoreCommand cmd, SimTime now,
                               std::uint64_t trace_id, std::uint64_t* cas_out) {
  if (cas_out != nullptr) *cas_out = 0;
  if (cmd.key == kEpochKey) {
    // Epoch adoption: the value is the decimal epoch. Stale proposals are
    // refused so a lagging coordinator cannot roll the fence backwards.
    std::uint64_t proposed = 0;
    if (cmd.mode != StoreMode::kSet || !parse_u64(cmd.value, proposed)) {
      return Outcome::kBadEpochValue;
    }
    return engine_.adopt_epoch(proposed) ? Outcome::kOk : Outcome::kStaleEpoch;
  }
  if (!engine_.admit_epoch(cmd.epoch)) return Outcome::kStaleEpoch;
  if (ShardedCacheServer::is_reserved_key(cmd.key)) {
    return Outcome::kReservedKey;  // the digest keys are read-only
  }
  ShardedCacheServer::Guard guard;
  CacheServer* cache = acquire(cmd.key, trace_id, guard);
  if (cache == nullptr) return Outcome::kOverloaded;
  if (cmd.crc.has_value() && crc32c(cmd.value) != *cmd.crc) {
    // The value rotted on the wire: refuse it; the client re-sends.
    cache->note_corrupt_set_reject(now, cmd.key);
    return Outcome::kBadChecksum;
  }
  const bool exists = cache->contains(cmd.key, now);
  if (cmd.mode == StoreMode::kAdd && exists) return Outcome::kExists;
  if (cmd.mode == StoreMode::kReplace && !exists) return Outcome::kNotFound;
  if (cmd.cas != 0) {
    switch (cache->compare_and_swap(cmd.key, std::move(cmd.value), now,
                                    cmd.cas, 0, cmd.flags, cmd.crc)) {
      case CacheServer::CasResult::kNotFound: return Outcome::kNotFound;
      case CacheServer::CasResult::kExists: return Outcome::kExists;
      case CacheServer::CasResult::kStored: break;
    }
  } else {
    cache->set(cmd.key, std::move(cmd.value), now, 0, cmd.flags, cmd.crc);
  }
  if (cas_out != nullptr) *cas_out = cache->cas_of(cmd.key, now);
  return Outcome::kOk;
}

Outcome CommandExecutor::erase(std::string_view key, std::uint64_t epoch,
                               std::uint64_t trace_id) {
  if (!engine_.admit_epoch(epoch)) return Outcome::kStaleEpoch;
  ShardedCacheServer::Guard guard;
  CacheServer* cache = acquire(key, trace_id, guard);
  if (cache == nullptr) return Outcome::kOverloaded;
  return cache->erase(key) ? Outcome::kOk : Outcome::kNotFound;
}

Outcome CommandExecutor::touch(std::string_view key, SimTime now,
                               std::uint64_t trace_id) {
  if (reserved_read(key, now).has_value()) return Outcome::kOk;
  ShardedCacheServer::Guard guard;
  CacheServer* cache = acquire(key, trace_id, guard);
  if (cache == nullptr) return Outcome::kOverloaded;
  return cache->get(key, now).has_value() ? Outcome::kOk : Outcome::kNotFound;
}

Outcome CommandExecutor::counter(const CounterCommand& cmd, SimTime now,
                                 std::uint64_t trace_id, std::uint64_t& value,
                                 std::uint64_t& cas) {
  // A reserved key's admin value is never a decimal u64.
  if (reserved_read(cmd.key, now).has_value()) return Outcome::kNotNumeric;
  // The guard spans the read and the write: incr/decr is atomic per shard.
  ShardedCacheServer::Guard guard;
  CacheServer* cache = acquire(cmd.key, trace_id, guard);
  if (cache == nullptr) return Outcome::kOverloaded;
  const std::optional<std::string> current = cache->get(cmd.key, now);
  if (!current.has_value()) {
    if (!cmd.initial.has_value()) return Outcome::kNotFound;
    value = *cmd.initial;
  } else {
    std::uint64_t n = 0;
    if (!parse_u64(*current, n)) return Outcome::kNotNumeric;
    // Increments wrap on 64-bit overflow; decrements clamp at 0 (memcached).
    value = cmd.increment ? n + cmd.delta : (n > cmd.delta ? n - cmd.delta : 0);
  }
  cache->set(cmd.key, std::to_string(value), now);
  cas = cache->cas_of(cmd.key, now);
  return Outcome::kOk;
}

void CommandExecutor::flush() {
  engine_.flush();  // fan-out under every shard lock, ascending rank
}

StatsSnapshot CommandExecutor::stats() const {
  StatsSnapshot s;
  s.counters = engine_.stats();
  s.items = engine_.item_count();
  s.bytes = engine_.bytes_used();
  s.limit_bytes = engine_.memory_budget();
  s.digest_counters = engine_.digest_num_counters();
  s.digest_bytes = engine_.digest_memory_bytes();
  s.cluster_epoch = engine_.cluster_epoch();
  s.incarnation = engine_.incarnation();
  s.stale_epoch_rejects = engine_.stale_epoch_rejects();
  return s;
}

void CommandExecutor::reset_stats() {
  engine_.reset_stats();  // fan-out under every shard lock, like flush()
  if (stats_reset_hook_) stats_reset_hook_();
}

void CommandExecutor::record_span(std::uint64_t trace_id, obs::SpanKind kind,
                                  SimTime start, obs::SpanCause cause,
                                  std::string_view key) const {
  if (spans_ == nullptr || trace_id == 0) return;
  obs::SpanRecord s;
  s.trace_id = trace_id;
  s.span_id = spans_->next_id();
  s.parent_id = 0;  // wire parent unknown; the analyzer joins by trace id
  s.kind = kind;
  s.cause = cause;
  s.start_us = start;
  s.duration_us = obs::span_clock_now() - start;
  s.server = server_id_;
  s.key = std::string(key.substr(0, 64));
  spans_->record(std::move(s));
}

obs::SpanCause CommandExecutor::span_cause(Outcome outcome) noexcept {
  switch (outcome) {
    case Outcome::kStaleEpoch:
      return obs::SpanCause::kStaleEpoch;
    case Outcome::kBadChecksum:
      return obs::SpanCause::kCorrupt;
    default:
      return obs::SpanCause::kNone;
  }
}

}  // namespace proteus::cache
