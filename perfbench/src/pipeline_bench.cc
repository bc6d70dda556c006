#include "pipeline_bench.h"

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "cache/binary_protocol.h"

namespace pb {
namespace {

namespace binary = proteus::cache::binary;

// Warm-up: a fixed number of batches per connection (three passes over each
// connection's stream), in chunks whose GET hit ratios are kept to show the
// cache reached steady state. The count is fixed so that setup_s times the
// same work on every run.
constexpr std::uint64_t kWarmChunkBatches = 256;
constexpr std::size_t kWarmChunks = 24;
constexpr std::size_t kRecvBuffer = 256u << 10;  // > 16 replies of 4 KiB

enum class Status { kOk, kMiss, kError };
struct Reply {
  Status status = Status::kError;
  const char* data = nullptr;
  std::size_t len = 0;
};

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("connect() to the daemon failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  // A daemon that stops answering ends the run instead of hanging it.
  const timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  return fd;
}

bool send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

// Parses one reply at the front of `in` for command `c` on `key`. Returns
// the bytes it spans, 0 when more bytes are needed, -1 on a desynced
// stream.
long parse_text(std::string_view in, const PipeCmd& c, std::string_view key,
                Reply& r) {
  const std::size_t eol = in.find("\r\n");
  if (eol == std::string_view::npos) return 0;
  const std::string_view line = in.substr(0, eol);
  const auto line_only = [&](Status s) {
    r.status = s;
    return static_cast<long>(eol + 2);
  };
  if (c.set) return line_only(line == "STORED" ? Status::kOk : Status::kError);
  if (line == "END") return line_only(Status::kMiss);
  if (line.substr(0, 6) != "VALUE ") return line_only(Status::kError);
  // VALUE <key> <flags> <bytes>
  std::string_view rest = line.substr(6);
  const std::size_t sp1 = rest.find(' ');
  if (sp1 == std::string_view::npos || rest.substr(0, sp1) != key) return -1;
  rest.remove_prefix(sp1 + 1);
  const std::size_t sp2 = rest.find(' ');
  if (sp2 == std::string_view::npos) return -1;
  std::size_t len = 0;
  for (char ch : rest.substr(sp2 + 1)) {
    if (ch < '0' || ch > '9') return -1;
    len = len * 10 + static_cast<std::size_t>(ch - '0');
  }
  const std::size_t total = eol + 2 + len + 2 + 5;
  if (in.size() < total) return 0;
  if (in.substr(eol + 2 + len, 7) != "\r\nEND\r\n") return -1;
  r.status = Status::kOk;
  r.data = in.data() + eol + 2;
  r.len = len;
  return static_cast<long>(total);
}

long parse_binary(std::string_view in, const PipeCmd& c, Reply& r) {
  constexpr std::size_t kHeader = binary::kHeaderSize;
  if (in.size() < kHeader) return 0;
  if (static_cast<std::uint8_t>(in[0]) != binary::kResponseMagic) return -1;
  const std::size_t body = binary::get_u32(in, 8);
  if (in.size() < kHeader + body) return 0;
  const auto status = static_cast<binary::Status>(binary::get_u16(in, 6));
  const std::size_t extras = static_cast<std::uint8_t>(in[4]);
  const std::size_t key_len = binary::get_u16(in, 2);
  if (extras + key_len > body) return -1;
  if (status == binary::Status::kOk) {
    r.status = Status::kOk;
    if (!c.set) {
      r.data = in.data() + kHeader + extras + key_len;
      r.len = body - extras - key_len;
    }
  } else {
    r.status = !c.set && status == binary::Status::kKeyNotFound ? Status::kMiss
                                                                : Status::kError;
  }
  return static_cast<long>(kHeader + body);
}

// One generator thread: send a batch, read all its replies, then check
// them against the oracle. Only the send-to-last-reply interval is timed.
void conn_loop(PipeConn& c, std::int64_t start_ns, std::int64_t end_ns,
               std::uint64_t max_batches, bool record) {
  const std::uint64_t allocs0 = thread_allocs();
  const PipeStream& s = *c.stream;
  Reply replies[kPipelineDepth];
  std::int64_t next_window = start_ns + 1'000'000'000;
  if (record) c.latency.start(start_ns);
  for (std::uint64_t n = 0; n < max_batches && !c.broken; ++n) {
    const std::size_t b = c.cursor;
    c.cursor = (c.cursor + 1) % s.batches();
    const PipeCmd* cmds = &s.cmds[b * kPipelineDepth];
    const std::int64_t t0 = now_ns();
    if (!send_all(c.fd, s.batch(b))) {
      c.broken = true;
      break;
    }
    std::size_t have = 0, pos = 0;
    for (int i = 0; i < kPipelineDepth;) {
      const std::string_view in(c.rbuf.data() + pos, have - pos);
      const long used = s.binary ? parse_binary(in, cmds[i], replies[i])
                                 : parse_text(in, cmds[i], s.keys[cmds[i].key], replies[i]);
      if (used > 0) {
        pos += static_cast<std::size_t>(used);
        ++i;
        continue;
      }
      if (used < 0 || have == c.rbuf.size()) {
        c.broken = true;
        break;
      }
      const ssize_t got = ::recv(c.fd, c.rbuf.data() + have, c.rbuf.size() - have, 0);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) {
        c.broken = true;
        break;
      }
      have += static_cast<std::size_t>(got);
    }
    const std::int64_t t1 = now_ns();
    if (c.broken || pos != have) {
      c.broken = true;
      break;
    }
    for (int i = 0; i < kPipelineDepth; ++i) {
      const PipeCmd& cmd = cmds[i];
      const Reply& r = replies[i];
      std::int64_t& last = c.last_set[cmd.key];
      if (cmd.set) {
        ++c.sets;
        if (r.status == Status::kOk) {
          last = (static_cast<std::int64_t>(cmd.voff) << 13) | cmd.vlen;
        } else {
          ++c.failed;
        }
        continue;
      }
      ++c.gets;
      if (r.status == Status::kMiss) continue;  // evicted, or never set
      const bool right =
          r.status == Status::kOk && last >= 0 &&
          c.pool->slice(static_cast<std::uint32_t>(last >> 13),
                        static_cast<std::uint32_t>(last & 0x1fff)) ==
              std::string_view(r.data, r.len);
      if (right) {
        ++c.hits;
      } else {
        ++c.failed;
      }
    }
    c.cmds += kPipelineDepth;
    ++c.batches;
    if (record) {
      c.latency.record(t1 - t0);
      if (t1 >= next_window) {
        c.latency.mark_window(t1);
        next_window += 1'000'000'000;
      }
    }
    if (t1 >= end_ns) break;
  }
  if (record) c.loop_allocs += thread_allocs() - allocs0;
}

}  // namespace

PipelineBench::PipelineBench(const PipelineWorkload& w, bool timed)
    : w_(w), timed_(timed) {}

PipelineBench::~PipelineBench() { close_conns(); }

void PipelineBench::close_conns() {
  for (PipeConn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
    c.fd = -1;
  }
}

double PipelineBench::setup() {
  close_conns();
  fleet_.reset();
  // Hand the previous set-up's freed memory back to the system, so
  // peak_rss_mb describes one fleet rather than the allocator's leftovers.
  malloc_trim(0);
  const std::int64_t t0 = now_ns();
  // Generators on CPU slots 0 (the calling thread) and 1, the daemon on 2.
  fleet_ = std::make_unique<Fleet>(1, w_.budget, timed_, 2);
  const PipeStream* streams[2] = {&w_.text, &w_.binary};
  for (int i = 0; i < 2; ++i) {
    PipeConn& c = conns_[i];
    c = PipeConn{};
    c.stream = streams[i];
    c.pool = &w_.pool;
    c.last_set.assign(streams[i]->keys.size(), -1);
    c.rbuf.resize(kRecvBuffer);
    c.fd = connect_loopback(fleet_->ports()[0]);
  }
  warmup_hit_ratios_.clear();
  for (std::size_t i = 0; i < kWarmChunks; ++i) {
    const std::uint64_t gets0 = conns_[0].gets + conns_[1].gets;
    const std::uint64_t hits0 = conns_[0].hits + conns_[1].hits;
    run_phase(INT64_MAX, kWarmChunkBatches, false);
    warmup_hit_ratios_.push_back(
        static_cast<double>(conns_[0].hits + conns_[1].hits - hits0) /
        static_cast<double>(conns_[0].gets + conns_[1].gets - gets0));
  }
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

void PipelineBench::run_phase(std::int64_t end_ns, std::uint64_t max_batches,
                              bool record) {
  const std::int64_t start = now_ns();
  std::thread other([&] {
    pin_this_thread(allowed_cpus(), 1);
    conn_loop(conns_[1], start, end_ns, max_batches, record);
  });
  conn_loop(conns_[0], start, end_ns, max_batches, record);
  other.join();
}

PipeWindow PipelineBench::measure(double seconds) {
  PipeWindow win;
  const auto capacity = static_cast<std::size_t>(seconds * 200'000) + 4096;
  std::uint64_t cmds0 = 0, gets0 = 0, hits0 = 0, sets0 = 0, failed0 = 0, batches0 = 0;
  for (PipeConn& c : conns_) {
    c.latency = Samples(capacity);
    c.loop_allocs = 0;
    cmds0 += c.cmds;
    gets0 += c.gets;
    hits0 += c.hits;
    sets0 += c.sets;
    failed0 += c.failed;
    batches0 += c.batches;
  }
  proteus::net::MemcacheDaemon& d = fleet_->daemon(0);
  win.daemon_before = d.stats_snapshot();
  const std::uint64_t sheds0 = d.sheds_total();
  const double worker0 = fleet_->worker_cpu_s(0);
  const std::int64_t ctx0 = context_switches();
  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  run_phase(t0 + static_cast<std::int64_t>(seconds * 1e9), UINT64_MAX, true);
  const std::int64_t t1 = now_ns();
  win.cpu_s = process_cpu_s() - cpu0;
  win.ctx_switches = context_switches() - ctx0;
  win.worker_cpu_s = fleet_->worker_cpu_s(0) - worker0;
  win.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  win.daemon_after = d.stats_snapshot();
  win.sheds = d.sheds_total() - sheds0;
  for (const PipeConn& c : conns_) {
    win.cmds += c.cmds;
    win.gets += c.gets;
    win.hits += c.hits;
    win.sets += c.sets;
    win.failed += c.failed;
    win.batches += c.batches;
    win.loop_allocs += c.loop_allocs;
    win.latency_raw.insert(win.latency_raw.end(), c.latency.raw().begin(),
                           c.latency.raw().end());
    if (c.broken) ++win.failed;  // the rest of its stream went unanswered
  }
  win.cmds -= cmds0;
  win.gets -= gets0;
  win.hits -= hits0;
  win.sets -= sets0;
  win.failed -= failed0;
  win.batches -= batches0;
  win.latency = summarize({&conns_[0].latency, &conns_[1].latency});
  return win;
}

}  // namespace pb
