#include "cache/binary_protocol.h"

#include <algorithm>

#include "common/check.h"
#include "common/hash.h"
#include "obs/span.h"

namespace proteus::cache {

namespace binary {

void put_u16(std::string& out, std::uint16_t v) {
  out += static_cast<char>(v >> 8);
  out += static_cast<char>(v & 0xff);
}

void put_u32(std::string& out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
  put_u16(out, static_cast<std::uint16_t>(v & 0xffff));
}

void put_u64(std::string& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
  put_u32(out, static_cast<std::uint32_t>(v & 0xffffffff));
}

std::uint16_t get_u16(std::string_view bytes, std::size_t offset) {
  PROTEUS_CHECK(offset + 2 <= bytes.size());
  return static_cast<std::uint16_t>(
      (static_cast<std::uint8_t>(bytes[offset]) << 8) |
      static_cast<std::uint8_t>(bytes[offset + 1]));
}

std::uint32_t get_u32(std::string_view bytes, std::size_t offset) {
  return (static_cast<std::uint32_t>(get_u16(bytes, offset)) << 16) |
         get_u16(bytes, offset + 2);
}

std::uint64_t get_u64(std::string_view bytes, std::size_t offset) {
  return (static_cast<std::uint64_t>(get_u32(bytes, offset)) << 32) |
         get_u32(bytes, offset + 4);
}

void append_frame(std::string& out, std::uint8_t magic, Opcode opcode,
                  std::uint16_t status_or_vbucket, std::uint32_t opaque,
                  std::uint64_t cas, std::string_view extras,
                  std::string_view key, std::string_view value) {
  const std::size_t body = extras.size() + key.size() + value.size();
  out.reserve(out.size() + kHeaderSize + body);
  out += static_cast<char>(magic);
  out += static_cast<char>(opcode);
  put_u16(out, static_cast<std::uint16_t>(key.size()));
  out += static_cast<char>(extras.size());
  out += '\0';  // data type: raw bytes
  put_u16(out, status_or_vbucket);
  put_u32(out, static_cast<std::uint32_t>(body));
  put_u32(out, opaque);
  put_u64(out, cas);
  out += extras;
  out += key;
  out += value;
}

std::string encode_frame(const Frame& frame, std::uint8_t magic) {
  std::string out;
  append_frame(out, magic, frame.opcode, frame.status_or_vbucket,
               frame.opaque, frame.cas, frame.extras, frame.key, frame.value);
  return out;
}

std::optional<Frame> decode_frame(std::string_view bytes,
                                  std::size_t& consumed) {
  if (bytes.size() < kHeaderSize) return std::nullopt;
  const std::uint16_t key_len = get_u16(bytes, 2);
  const auto extras_len = static_cast<std::uint8_t>(bytes[4]);
  const std::uint32_t total_body = get_u32(bytes, 8);
  if (total_body < static_cast<std::uint32_t>(key_len) + extras_len) {
    // Malformed lengths: signal by consuming the header and returning a
    // frame the session will reject (body sizes inconsistent).
    consumed = kHeaderSize;
    Frame bad;
    bad.magic = static_cast<std::uint8_t>(bytes[0]);
    bad.opcode = static_cast<Opcode>(0xff);
    return bad;
  }
  if (bytes.size() < kHeaderSize + total_body) return std::nullopt;

  Frame frame;
  frame.magic = static_cast<std::uint8_t>(bytes[0]);
  frame.opcode = static_cast<Opcode>(bytes[1]);
  frame.status_or_vbucket = get_u16(bytes, 6);
  frame.opaque = get_u32(bytes, 12);
  frame.cas = get_u64(bytes, 16);
  std::size_t off = kHeaderSize;
  frame.extras.assign(bytes.substr(off, extras_len));
  off += extras_len;
  frame.key.assign(bytes.substr(off, key_len));
  off += key_len;
  frame.value.assign(bytes.substr(off, total_body - key_len - extras_len));
  consumed = kHeaderSize + total_body;
  return frame;
}

}  // namespace binary

using binary::Frame;
using binary::Opcode;
using binary::Status;

namespace {

// The binary status of an outcome (docs/PROTOCOL.md "Executor outcomes").
Status status_of(Outcome outcome) {
  switch (outcome) {
    case Outcome::kOk: return Status::kOk;
    case Outcome::kNotFound: return Status::kKeyNotFound;
    case Outcome::kExists: return Status::kKeyExists;
    case Outcome::kNotNumeric: return Status::kDeltaBadValue;
    case Outcome::kStaleEpoch: return Status::kStaleEpoch;
    case Outcome::kBadChecksum: return Status::kBadChecksum;
    case Outcome::kReservedKey: return Status::kNotStored;
    case Outcome::kBadEpochValue: return Status::kInvalidArguments;
    case Outcome::kTooLarge: return Status::kValueTooLarge;
    case Outcome::kOverloaded: return Status::kBusy;
  }
  return Status::kUnknownCommand;
}

StoreMode store_mode(Opcode opcode) {
  return opcode == Opcode::kAdd       ? StoreMode::kAdd
         : opcode == Opcode::kReplace ? StoreMode::kReplace
                                      : StoreMode::kSet;
}

// Declared value length of the frame whose header starts `bytes` (at least
// kHeaderSize long): total_body minus key and extras, 0 when inconsistent.
std::size_t declared_value_length(std::string_view bytes) {
  const std::uint32_t total_body = binary::get_u32(bytes, 8);
  const std::uint32_t fixed =
      binary::get_u16(bytes, 2) + static_cast<std::uint8_t>(bytes[4]);
  return total_body > fixed ? total_body - fixed : 0;
}

}  // namespace

void BinaryProtocolSession::respond(std::string& out, const Frame& request,
                                    Status status, std::string_view extras,
                                    std::string_view key,
                                    std::string_view value,
                                    std::uint64_t cas) const {
  // The opaque is echoed for client correlation.
  binary::append_frame(out, binary::kResponseMagic, request.opcode,
                       static_cast<std::uint16_t>(status), request.opaque, cas,
                       extras, key, value);
}

std::string BinaryProtocolSession::feed(std::string_view bytes, SimTime now) {
  if (closed_) return {};
  buffer_.append(bytes);
  std::string out;
  exec_.begin_batch();  // the pipeline cap is per shard per feed() batch
  // Parse offset into buffer_: consumed bytes are dropped once, at the end.
  std::size_t pos = 0;
  while (!closed_) {
    const std::string_view rest = std::string_view(buffer_).substr(pos);
    if (discard_ > 0) {
      // Skipping the body of a refused oversized frame.
      const std::size_t n = std::min(discard_, rest.size());
      pos += n;
      discard_ -= n;
      if (discard_ > 0) break;
      continue;
    }
    if (rest.size() >= binary::kHeaderSize &&
        !exec_.fits(declared_value_length(rest))) {
      // Refused on its header alone: the body is skipped, never buffered.
      Frame header;
      header.opcode = static_cast<Opcode>(rest[1]);
      header.opaque = binary::get_u32(rest, 12);
      respond(out, header, status_of(Outcome::kTooLarge));
      discard_ = binary::get_u32(rest, 8);
      pos += binary::kHeaderSize;
      continue;
    }
    const SimTime parse_start = exec_.tracing() ? obs::span_clock_now() : 0;
    std::size_t consumed = 0;
    auto frame = binary::decode_frame(rest, consumed);
    if (!frame.has_value()) break;
    pos += consumed;
    // The opaque field doubles as the (32-bit) wire trace id.
    const std::uint64_t tid = exec_.traced(frame->opaque);
    if (tid != 0) {
      last_trace_id_ = tid;
      exec_.record_span(tid, obs::SpanKind::kServerParse, parse_start);
    }
    // Pipeline cap: cache-touching frames beyond the per-shard budget get
    // EBUSY (the frame is already consumed, so the stream stays in sync).
    // Quit/noop/version are exempt — free, and quit must always work. A
    // frame accounts against its key's shard; keyless frames (stat, flush)
    // against shard 0.
    const bool cache_touching = frame->magic == binary::kRequestMagic &&
                                frame->opcode != Opcode::kQuit &&
                                frame->opcode != Opcode::kNoop &&
                                frame->opcode != Opcode::kVersion;
    if (cache_touching && !exec_.admit(frame->key)) {
      respond(out, *frame, status_of(Outcome::kOverloaded));
      continue;
    }
    const SimTime op_start = tid != 0 ? obs::span_clock_now() : 0;
    const Outcome outcome = handle(*frame, now, tid, out);
    exec_.record_span(tid, obs::SpanKind::kServerOp, op_start,
                      CommandExecutor::span_cause(outcome), frame->key);
  }
  buffer_.erase(0, pos);
  return out;
}

Outcome BinaryProtocolSession::handle(Frame& request, SimTime now,
                                      std::uint64_t trace_id,
                                      std::string& out) {
  // Malformed requests are answered here; the executor never sees them.
  const auto invalid = [&] {
    respond(out, request, Status::kInvalidArguments);
    return Outcome::kOk;
  };
  if (request.magic != binary::kRequestMagic) return invalid();
  // The request vbucket field carries the cluster epoch saturated to 16
  // bits. A saturated stamp (0xffff) is indeterminate — it can never be
  // proven stale — so it decodes as unstamped: it passes without teaching.
  const std::uint64_t epoch =
      request.status_or_vbucket == 0xffff ? 0 : request.status_or_vbucket;

  switch (request.opcode) {
    case Opcode::kGet:
    case Opcode::kGetK:
    case Opcode::kGetQ:
    case Opcode::kGetKQ: {
      const bool quiet = request.opcode == Opcode::kGetQ ||
                         request.opcode == Opcode::kGetKQ;
      const bool with_key = request.opcode == Opcode::kGetK ||
                            request.opcode == Opcode::kGetKQ;
      // Stock GETs carry no extras; 4-byte extras (reserved word, send 0)
      // opt into checksum echo.
      const bool want_checksum = request.extras.size() == 4;
      if (request.key.empty() || (!request.extras.empty() && !want_checksum)) {
        return invalid();
      }
      const Outcome outcome = exec_.get(request.key, epoch, now, trace_id, hit_);
      if (outcome == Outcome::kOk) {
        std::string extras;  // flags(4), widened by crc32c(4) on echo
        binary::put_u32(extras, hit_.meta.flags);
        if (want_checksum && hit_.meta.crc.has_value()) {
          binary::put_u32(extras, *hit_.meta.crc);
        }
        respond(out, request, Status::kOk, extras,
                with_key ? std::string_view(request.key) : std::string_view{},
                hit_.value, hit_.meta.cas);
      } else if (!(quiet && outcome == Outcome::kNotFound)) {
        respond(out, request, status_of(outcome));  // quiet gets hide misses
      }
      return outcome;
    }

    case Opcode::kSet:
    case Opcode::kAdd:
    case Opcode::kReplace: {
      // Extras: flags(4) expiry(4), or flags(4) expiry(4) crc32c(4) when
      // the client stamps an end-to-end checksum.
      const bool stamped = request.extras.size() == 12;
      if ((request.extras.size() != 8 && !stamped) || request.key.empty()) {
        return invalid();
      }
      StoreCommand store;
      store.mode = store_mode(request.opcode);
      store.key = request.key;
      store.value = std::move(request.value);
      store.flags = binary::get_u32(request.extras, 0);
      if (stamped) store.crc = binary::get_u32(request.extras, 8);
      store.cas = request.cas;
      store.epoch = epoch;
      std::uint64_t cas = 0;
      const Outcome outcome = exec_.store(std::move(store), now, trace_id, &cas);
      respond(out, request, status_of(outcome), {}, {}, {}, cas);
      return outcome;
    }

    case Opcode::kDelete: {
      if (request.key.empty()) return invalid();
      const Outcome outcome = exec_.erase(request.key, epoch, trace_id);
      respond(out, request, status_of(outcome));
      return outcome;
    }

    case Opcode::kIncrement:
    case Opcode::kDecrement: {
      // Extras: delta(8) initial(8) expiry(4).
      if (request.extras.size() != 20 || request.key.empty()) return invalid();
      CounterCommand counter;
      counter.key = request.key;
      counter.increment = request.opcode == Opcode::kIncrement;
      counter.delta = binary::get_u64(request.extras, 0);
      // 0xffffffff expiry means "do not create" per the protocol.
      if (binary::get_u32(request.extras, 16) != 0xffffffffu) {
        counter.initial = binary::get_u64(request.extras, 8);
      }
      std::uint64_t value = 0;
      std::uint64_t cas = 0;
      const Outcome outcome = exec_.counter(counter, now, trace_id, value, cas);
      if (outcome == Outcome::kOk) {
        std::string payload;
        binary::put_u64(payload, value);
        respond(out, request, Status::kOk, {}, {}, payload, cas);
      } else {
        respond(out, request, status_of(outcome));
      }
      return outcome;
    }

    case Opcode::kFlush:
      exec_.flush();
      respond(out, request, Status::kOk);
      return Outcome::kOk;

    case Opcode::kNoop:
      respond(out, request, Status::kOk);
      return Outcome::kOk;

    case Opcode::kVersion:
      respond(out, request, Status::kOk, {}, {}, "proteus-1.0");
      return Outcome::kOk;

    case Opcode::kQuit:
      closed_ = true;
      respond(out, request, Status::kOk);
      return Outcome::kOk;

    case Opcode::kStat: {
      // Minimal STAT: one (name, value) response per statistic, terminated
      // by an empty-key frame, per the protocol.
      const StatsSnapshot s = exec_.stats();
      const auto stat = [&](std::string_view name, std::uint64_t v) {
        respond(out, request, Status::kOk, {}, name, std::to_string(v));
      };
      stat("cmd_get", s.counters.gets);
      stat("get_hits", s.counters.hits);
      stat("get_misses", s.counters.misses);
      stat("cmd_set", s.counters.sets);
      stat("evictions", s.counters.evictions);
      stat("curr_items", s.items);
      stat("bytes", s.bytes);
      stat("cluster_epoch", s.cluster_epoch);
      stat("incarnation", s.incarnation);
      stat("stale_epoch_rejects", s.stale_epoch_rejects);
      respond(out, request, Status::kOk);  // terminator
      return Outcome::kOk;
    }

    default:
      respond(out, request, Status::kUnknownCommand);
      return Outcome::kOk;
  }
}

}  // namespace proteus::cache
