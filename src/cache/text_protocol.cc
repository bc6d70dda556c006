#include "cache/text_protocol.h"

#include <algorithm>
#include <charconv>

#include "common/hash.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace proteus::cache {

namespace {

// Splits on single spaces, memcached style (no tabs, no repeated spaces).
std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t pos = 0;
  while (pos < line.size()) {
    const std::size_t space = line.find(' ', pos);
    if (space == std::string_view::npos) {
      tokens.push_back(line.substr(pos));
      break;
    }
    tokens.push_back(line.substr(pos, space - pos));
    pos = space + 1;
  }
  return tokens;
}

template <typename T>
bool parse_number(std::string_view token, T& out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  return ec == std::errc() && ptr == end;
}

bool valid_key(std::string_view key) {
  // Memcached: keys are <= 250 bytes, no whitespace or control characters.
  if (key.empty() || key.size() > 250) return false;
  return std::none_of(key.begin(), key.end(), [](unsigned char c) {
    return c <= ' ' || c == 127;
  });
}

bool consume_noreply(std::vector<std::string_view>& tokens,
                     std::size_t expected_args) {
  if (tokens.size() == expected_args + 1 && tokens.back() == "noreply") {
    tokens.pop_back();
    return true;
  }
  return false;
}

// Strips the trailing meta tokens — `bg` (priority), O<hex64> (trace),
// E<hex64> (epoch fence), C<hex8> (payload checksum) — in ANY order,
// consuming recognized tokens from the tail until none match. Decodes are
// strict (exact length, lowercase hex), so ordinary keys that merely start
// with 'O'/'E'/'C' never parse as tokens. The `bg` marker only counts when
// at least one real argument precedes it, so a key literally named "bg"
// stays addressable via `get bg`.
void consume_meta_tokens(std::vector<std::string_view>& tokens,
                         TextCommand& cmd) {
  for (;;) {
    if (tokens.size() < 2) return;
    const std::string_view tail = tokens.back();
    if (tail == "bg" && tokens.size() >= 3) {  // verb + >=1 real arg + marker
      tokens.pop_back();
      cmd.background = true;
      continue;
    }
    std::uint64_t u64 = 0;
    if (obs::decode_trace_token(tail, u64)) {
      tokens.pop_back();
      cmd.trace_id = u64;
      continue;
    }
    if (obs::decode_epoch_token(tail, u64)) {
      tokens.pop_back();
      cmd.epoch = u64;
      continue;
    }
    std::uint32_t u32 = 0;
    if (obs::decode_checksum_token(tail, u32)) {
      tokens.pop_back();
      cmd.checksum = u32;
      continue;
    }
    return;
  }
}

bool is_storage(TextCommand::Op op) {
  return op == TextCommand::Op::kSet || op == TextCommand::Op::kAdd ||
         op == TextCommand::Op::kReplace;
}

StoreMode store_mode(TextCommand::Op op) {
  return op == TextCommand::Op::kAdd       ? StoreMode::kAdd
         : op == TextCommand::Op::kReplace ? StoreMode::kReplace
                                           : StoreMode::kSet;
}

// The text reply of an outcome (docs/PROTOCOL.md "Executor outcomes").
// `ok` and `not_found` are the command's own words for those two outcomes.
std::string_view text_reply(Outcome outcome, std::string_view ok,
                            std::string_view not_found) {
  switch (outcome) {
    case Outcome::kOk: return ok;
    case Outcome::kNotFound: return not_found;
    case Outcome::kExists: return "NOT_STORED\r\n";
    case Outcome::kNotNumeric:
      return "CLIENT_ERROR cannot increment or decrement non-numeric value\r\n";
    case Outcome::kStaleEpoch: return "SERVER_ERROR stale-epoch\r\n";
    case Outcome::kBadChecksum: return "SERVER_ERROR bad-checksum\r\n";
    case Outcome::kReservedKey: return "CLIENT_ERROR reserved key\r\n";
    case Outcome::kBadEpochValue: return "CLIENT_ERROR bad epoch payload\r\n";
    case Outcome::kTooLarge:
      return "SERVER_ERROR object too large for cache\r\n";
    case Outcome::kOverloaded: return "SERVER_ERROR overloaded\r\n";
  }
  return "SERVER_ERROR\r\n";
}

template <typename T>
void append_decimal(std::string& out, T v) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, end);
}

}  // namespace

TextCommand parse_command_line(std::string_view line) {
  TextCommand cmd;
  auto tokens = tokenize(line);
  if (tokens.empty()) return cmd;
  const std::string_view verb = tokens[0];

  if (verb == "get" || verb == "gets") {
    consume_meta_tokens(tokens, cmd);
    if (tokens.size() < 2) return cmd;
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      if (!valid_key(tokens[i])) return cmd;
      cmd.keys.emplace_back(tokens[i]);
    }
    cmd.op = TextCommand::Op::kGet;
    return cmd;
  }

  if (verb == "set" || verb == "add" || verb == "replace") {
    consume_meta_tokens(tokens, cmd);
    cmd.noreply = consume_noreply(tokens, 5);
    if (tokens.size() != 5 || !valid_key(tokens[1])) return cmd;
    if (!parse_number(tokens[2], cmd.flags) ||
        !parse_number(tokens[3], cmd.exptime) ||
        !parse_number(tokens[4], cmd.bytes)) {
      return cmd;
    }
    cmd.keys.emplace_back(tokens[1]);
    cmd.op = verb == "set"   ? TextCommand::Op::kSet
             : verb == "add" ? TextCommand::Op::kAdd
                             : TextCommand::Op::kReplace;
    return cmd;
  }

  if (verb == "delete") {
    consume_meta_tokens(tokens, cmd);
    cmd.noreply = consume_noreply(tokens, 2);
    if (tokens.size() != 2 || !valid_key(tokens[1])) return cmd;
    cmd.keys.emplace_back(tokens[1]);
    cmd.op = TextCommand::Op::kDelete;
    return cmd;
  }

  if (verb == "incr" || verb == "decr") {
    cmd.noreply = consume_noreply(tokens, 3);
    if (tokens.size() != 3 || !valid_key(tokens[1])) return cmd;
    if (!parse_number(tokens[2], cmd.delta)) return cmd;
    cmd.keys.emplace_back(tokens[1]);
    cmd.op = verb == "incr" ? TextCommand::Op::kIncr : TextCommand::Op::kDecr;
    return cmd;
  }

  if (verb == "touch") {
    cmd.noreply = consume_noreply(tokens, 3);
    if (tokens.size() != 3 || !valid_key(tokens[1])) return cmd;
    if (!parse_number(tokens[2], cmd.exptime)) return cmd;
    cmd.keys.emplace_back(tokens[1]);
    cmd.op = TextCommand::Op::kTouch;
    return cmd;
  }

  if (verb == "flush_all") {
    cmd.noreply = consume_noreply(tokens, 1);
    if (tokens.size() != 1) return cmd;
    cmd.op = TextCommand::Op::kFlushAll;
    return cmd;
  }

  if (verb == "stats" && tokens.size() <= 2) {
    if (tokens.size() == 2) cmd.stats_arg = tokens[1];
    cmd.op = TextCommand::Op::kStats;
    return cmd;
  }
  if (verb == "version" && tokens.size() == 1) {
    cmd.op = TextCommand::Op::kVersion;
    return cmd;
  }
  if (verb == "quit" && tokens.size() == 1) {
    cmd.op = TextCommand::Op::kQuit;
    return cmd;
  }
  return cmd;
}

std::string TextProtocolSession::feed(std::string_view bytes, SimTime now) {
  if (closed_) return {};
  buffer_.append(bytes);
  std::string out;
  exec_.begin_batch();  // the pipeline cap is per shard per feed() batch
  // Parse offset into buffer_: consumed bytes are dropped once, at the end,
  // not once per command.
  std::size_t pos = 0;
  while (!closed_) {
    const std::string_view rest = std::string_view(buffer_).substr(pos);
    if (discard_ > 0) {
      // Skipping the data block of a refused oversized store, then its CRLF.
      const std::size_t n = std::min(discard_, rest.size());
      pos += n;
      discard_ -= n;
      if (discard_ > 0) break;
      resync_ = true;
      continue;
    }

    if (resync_) {
      // A bad data chunk desynchronized the stream; drop bytes until the
      // next CRLF and resume command parsing there (memcached behaviour).
      const std::size_t eol = rest.find("\r\n");
      if (eol == std::string_view::npos) {
        pos = buffer_.size();
        break;
      }
      pos += eol + 2;
      resync_ = false;
      continue;
    }

    if (pending_.has_value()) {
      // Waiting for <bytes> of payload plus the trailing CRLF.
      const std::size_t n = pending_->bytes;
      if (rest.size() < n || rest.size() - n < 2) break;
      const TextCommand cmd = std::move(*pending_);
      pending_.reset();
      const bool shed = pending_shed_;
      pending_shed_ = false;
      if (rest[n] != '\r' || rest[n + 1] != '\n') {
        pos += n;
        resync_ = true;
        if (!cmd.noreply) out += "CLIENT_ERROR bad data chunk\r\n";
        continue;
      }
      pos += n + 2;
      if (shed) {
        // Payload consumed for stream correctness, but the command was over
        // the pipeline cap: refuse the work.
        if (!cmd.noreply) out += text_reply(Outcome::kOverloaded, {}, {});
        continue;
      }
      handle_storage(cmd, rest.substr(0, n), now, out);
      continue;
    }

    const std::size_t eol = rest.find("\r\n");
    if (eol == std::string_view::npos) break;
    pos += eol + 2;
    handle_line(rest.substr(0, eol), now, out);
  }
  buffer_.erase(0, pos);
  return out;
}

void TextProtocolSession::handle_line(std::string_view line, SimTime now,
                                      std::string& out) {
  const SimTime parse_start = exec_.tracing() ? obs::span_clock_now() : 0;
  TextCommand cmd = parse_command_line(line);
  if (cmd.trace_id != 0) last_trace_id_ = cmd.trace_id;
  const std::uint64_t tid = exec_.traced(cmd.trace_id);
  exec_.record_span(tid, obs::SpanKind::kServerParse, parse_start);
  if (is_storage(cmd.op) && !exec_.fits(cmd.bytes)) {
    // Refused before a byte of the data block is buffered: it is skipped.
    if (!cmd.noreply) out += text_reply(Outcome::kTooLarge, {}, {});
    discard_ = cmd.bytes;
    return;
  }
  // Pipeline cap: cache-touching commands beyond the per-shard budget are
  // refused with a well-formed shed reply. Exempt: quit/version (free, and
  // quit must always work) and invalid lines (answered ERROR regardless).
  // A command accounts against its first key's shard; keyless commands
  // (stats, flush_all) against shard 0.
  const bool cache_touching = cmd.op != TextCommand::Op::kQuit &&
                              cmd.op != TextCommand::Op::kVersion &&
                              cmd.op != TextCommand::Op::kInvalid;
  if (cache_touching &&
      !exec_.admit(cmd.keys.empty() ? std::string_view{} : cmd.keys[0])) {
    if (is_storage(cmd.op)) {
      // The data block is still in flight; consume it before refusing.
      pending_ = std::move(cmd);
      pending_shed_ = true;
    } else if (!cmd.noreply) {
      out += text_reply(Outcome::kOverloaded, {}, {});
    }
    return;
  }
  const SimTime op_start = tid != 0 ? obs::span_clock_now() : 0;
  Outcome outcome = Outcome::kOk;
  switch (cmd.op) {
    case TextCommand::Op::kInvalid:
      out += "ERROR\r\n";
      break;
    case TextCommand::Op::kGet:
      outcome = handle_get(cmd, now, tid, out);
      break;
    case TextCommand::Op::kSet:
    case TextCommand::Op::kAdd:
    case TextCommand::Op::kReplace:
      pending_ = std::move(cmd);
      return;  // the reply and op span wait for the data block
    case TextCommand::Op::kDelete:
      outcome = exec_.erase(cmd.keys[0], cmd.epoch, tid);
      if (!cmd.noreply) {
        out += text_reply(outcome, "DELETED\r\n", "NOT_FOUND\r\n");
      }
      break;
    case TextCommand::Op::kIncr:
    case TextCommand::Op::kDecr: {
      CounterCommand counter;  // text incr never creates: no initial value
      counter.key = cmd.keys[0];
      counter.increment = cmd.op == TextCommand::Op::kIncr;
      counter.delta = cmd.delta;
      std::uint64_t value = 0;
      std::uint64_t cas = 0;
      outcome = exec_.counter(counter, now, tid, value, cas);
      if (cmd.noreply) break;
      if (outcome == Outcome::kOk) {
        append_decimal(out, value);
        out += "\r\n";
      } else {
        out += text_reply(outcome, {}, "NOT_FOUND\r\n");
      }
      break;
    }
    case TextCommand::Op::kTouch:
      outcome = exec_.touch(cmd.keys[0], now, tid);
      if (!cmd.noreply) {
        out += text_reply(outcome, "TOUCHED\r\n", "NOT_FOUND\r\n");
      }
      break;
    case TextCommand::Op::kFlushAll:
      exec_.flush();
      if (!cmd.noreply) out += "OK\r\n";
      break;
    case TextCommand::Op::kStats:
      handle_stats(cmd, out);
      break;
    case TextCommand::Op::kVersion:
      out += "VERSION proteus-1.0\r\n";
      break;
    case TextCommand::Op::kQuit:
      closed_ = true;
      break;
  }
  exec_.record_span(tid, obs::SpanKind::kServerOp, op_start,
                    CommandExecutor::span_cause(outcome));
}

void TextProtocolSession::handle_storage(const TextCommand& cmd,
                                         std::string_view payload, SimTime now,
                                         std::string& out) {
  const std::uint64_t tid = exec_.traced(cmd.trace_id);
  const SimTime op_start = tid != 0 ? obs::span_clock_now() : 0;
  StoreCommand store;
  store.mode = store_mode(cmd.op);
  store.key = cmd.keys[0];
  store.value.assign(payload);
  store.flags = cmd.flags;
  store.crc = cmd.checksum;
  store.epoch = cmd.epoch;
  const Outcome outcome = exec_.store(std::move(store), now, tid);
  if (!cmd.noreply) out += text_reply(outcome, "STORED\r\n", "NOT_STORED\r\n");
  exec_.record_span(tid, obs::SpanKind::kServerOp, op_start,
                    CommandExecutor::span_cause(outcome));
}

Outcome TextProtocolSession::handle_get(const TextCommand& cmd, SimTime now,
                                        std::uint64_t trace_id,
                                        std::string& out) {
  const std::size_t start = out.size();
  for (const std::string& key : cmd.keys) {
    const Outcome outcome = exec_.get(key, cmd.epoch, now, trace_id, hit_);
    if (outcome == Outcome::kOverloaded) {
      // Shard-lock deadline hit mid-multi-get: shed the whole command with
      // an honest refusal rather than emit a truncated VALUE stream.
      out.resize(start);
      out += text_reply(outcome, {}, {});
      return outcome;
    }
    if (outcome != Outcome::kOk) continue;  // missing keys are skipped
    out += "VALUE ";
    out += key;
    out += ' ';
    append_decimal(out, hit_.meta.flags);
    out += ' ';
    append_decimal(out, hit_.value.size());
    // A get that opted in to checksum echo (any C token) gets the stored
    // checksum; an item stored without one echoes nothing.
    if (cmd.checksum.has_value() && hit_.meta.crc.has_value()) {
      out += ' ';
      out += obs::encode_checksum_token(*hit_.meta.crc);
    }
    out += "\r\n";
    out += hit_.value;
    out += "\r\n";
  }
  out += "END\r\n";
  return Outcome::kOk;
}

void TextProtocolSession::handle_stats(const TextCommand& cmd,
                                       std::string& out) {
  if (cmd.stats_arg == "reset") {
    exec_.reset_stats();
    out += "RESET\r\n";
    return;
  }
  if (cmd.stats_arg == "proteus") {
    // The unified registry (daemon-wide metrics + latency quantiles); a
    // session without a registry reports nothing. No shard lock is held
    // here — registry callbacks lock shards internally, one at a time.
    out += metrics_ != nullptr ? obs::render_stats_text(metrics_->snapshot())
                               : "END\r\n";
    return;
  }
  if (!cmd.stats_arg.empty()) {
    out += "ERROR\r\n";
    return;
  }
  const StatsSnapshot s = exec_.stats();
  const auto stat = [&out](std::string_view name, std::uint64_t v) {
    out += "STAT ";
    out += name;
    out += ' ';
    append_decimal(out, v);
    out += "\r\n";
  };
  stat("cmd_get", s.counters.gets);
  stat("get_hits", s.counters.hits);
  stat("get_misses", s.counters.misses);
  stat("cmd_set", s.counters.sets);
  stat("delete_hits", s.counters.deletes);
  stat("evictions", s.counters.evictions);
  stat("expired_unfetched", s.counters.expirations);
  stat("curr_items", s.items);
  stat("bytes", s.bytes);
  stat("limit_maxbytes", s.limit_bytes);
  stat("digest_counters", s.digest_counters);
  stat("digest_bytes", s.digest_bytes);
  stat("cluster_epoch", s.cluster_epoch);
  stat("incarnation", s.incarnation);
  stat("stale_epoch_rejects", s.stale_epoch_rejects);
  stat("corrupt_drops", s.counters.corrupt_drops);
  stat("corrupt_set_rejects", s.counters.corrupt_set_rejects);
  // Reserved-key admin traffic (digest pulls, epoch hellos) — excluded
  // from cmd_get/get_hits/get_misses so hit ratios stay data-plane only.
  stat("admin_gets", s.counters.admin_gets);
  out += "END\r\n";
}

}  // namespace proteus::cache
