#include "gen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "cache/binary_protocol.h"
#include "common/hash.h"
#include "common/rng.h"

namespace pb {
namespace {

namespace binary = proteus::cache::binary;

// Workload shape. Popularity skew and object size come from the repository's
// model of the paper's Wikipedia traffic: Zipf(0.9) page popularity
// (workload::TraceConfig::zipf_alpha) and fixed 4 KiB objects, the paper's
// cache unit (db::DbConfig::object_size). They are copied here, not read
// from those structs, so the workload stays fixed when the model's defaults
// change. The 95/5 get/put mix is YCSB's read-mostly workload B (Cooper et
// al., SoCC 2010); the paper's trace holds reads only. Budgets are sizing
// choices: small enough that a set-up takes about a second, and what the
// workloads specify is the ratio of key space to budget.
constexpr double kZipfAlpha = 0.9;
constexpr std::uint32_t kObjectSize = 4096;
constexpr double kPutFraction = 0.05;
constexpr std::size_t kClientBudgetPerDaemon = 4u << 20;
constexpr std::size_t kClientOps = 1u << 20;
// zipf_get: the key space is about twice the fleet's budget, so misses and
// fills stay in the mix. resize_cycle: it fills 70% of the budget of the 2
// daemons a shrink keeps, so no miss there is a capacity miss.
constexpr double kZipfSpaceFactor = 2.0;
constexpr double kResizeSpaceFactor = 0.7;
constexpr int kResizeShrunkDaemons = 2;

// pipeline_mix is a stress shape for the daemon, not a traffic model: 20%
// SETs with sizes spread log-uniformly over 32 B - 4 KiB, so every batch
// allocates across several slab classes, and a key space 4x the budget, so
// SETs evict all the time.
constexpr std::size_t kPipelineBudget = 2u << 20;
constexpr double kPipelineSpaceFactor = 4.0;
constexpr double kPipelineSetFraction = 0.20;
constexpr std::size_t kPipelineBatches = 2048;  // per connection, cycled
constexpr std::uint32_t kPipelineMinValue = 32;

// Log-uniform size in [lo, hi]: many small values, a tail of large ones,
// spread over the slab classes between.
std::uint32_t log_uniform(proteus::Rng& rng, std::uint32_t lo, std::uint32_t hi) {
  const double x = std::exp(std::log(static_cast<double>(lo)) +
                            rng.next_double() * (std::log(static_cast<double>(hi)) -
                                                 std::log(static_cast<double>(lo))));
  return std::clamp(static_cast<std::uint32_t>(x), lo, hi);
}

// Bytes the daemon charges its budget for an item (its default per-item
// overhead included): sizes key spaces against budgets.
std::size_t item_charge(std::size_t key_len, std::size_t value_len) {
  return key_len + value_len + 56;  // CacheConfig::per_item_overhead default
}

double mean_log_uniform(std::uint32_t lo, std::uint32_t hi) {
  return (hi - lo) / std::log(static_cast<double>(hi) / lo);
}

ValuePool make_pool(proteus::Rng& rng) {
  ValuePool pool;
  pool.bytes.resize(ValuePool::kSpan + ValuePool::kMaxValue);
  for (std::size_t i = 0; i < pool.bytes.size(); i += 8) {
    const std::uint64_t r = rng.next_u64();
    for (std::size_t j = 0; j < 8 && i + j < pool.bytes.size(); ++j) {
      // Printable bytes keep the text protocol's data blocks readable in a
      // packet dump; the oracle compares them exactly either way.
      pool.bytes[i + j] = static_cast<char>('!' + ((r >> (8 * j)) & 0xff) % 94);
    }
  }
  return pool;
}

std::string make_key(char prefix, std::uint32_t index) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%c:%08u", prefix, index);
  return buf;
}

std::uint32_t random_offset(proteus::Rng& rng) {
  return static_cast<std::uint32_t>(rng.next_below(ValuePool::kSpan));
}

// Zipf ranks mapped through a seeded permutation, so the hottest keys land
// on different servers and shards for different seeds.
std::vector<std::uint32_t> permutation(proteus::Rng& rng, std::size_t n) {
  std::vector<std::uint32_t> p(n);
  std::iota(p.begin(), p.end(), 0u);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(p[i - 1], p[rng.next_below(i)]);
  }
  return p;
}

PipeStream make_pipe_stream(proteus::Rng& rng, bool binary, std::size_t n_keys) {
  PipeStream s;
  s.binary = binary;
  s.keys.reserve(n_keys);
  for (std::size_t i = 0; i < n_keys; ++i) {
    s.keys.push_back(make_key(binary ? 'b' : 't', static_cast<std::uint32_t>(i)));
  }
  const std::vector<std::uint32_t> perm = permutation(rng, n_keys);
  const proteus::ZipfSampler zipf(n_keys, kZipfAlpha);
  const std::size_t n_cmds = kPipelineBatches * kPipelineDepth;
  s.cmds.reserve(n_cmds);
  for (std::size_t i = 0; i < n_cmds; ++i) {
    PipeCmd c{};
    c.key = perm[zipf(rng)];
    c.set = rng.next_bool(kPipelineSetFraction);
    if (c.set) {
      c.vlen = log_uniform(rng, kPipelineMinValue, ValuePool::kMaxValue);
      c.voff = random_offset(rng);
    }
    s.cmds.push_back(c);
  }
  return s;
}

void encode_pipe_stream(PipeStream& s, const ValuePool& pool) {
  s.batch_off.push_back(0);
  for (std::size_t i = 0; i < s.cmds.size(); ++i) {
    const PipeCmd& c = s.cmds[i];
    const std::string& key = s.keys[c.key];
    if (s.binary) {
      if (c.set) {
        append_binary_set(s.bytes, key, pool.slice(c.voff, c.vlen));
      } else {
        append_binary_get(s.bytes, key);
      }
    } else if (c.set) {
      append_text_set(s.bytes, key, pool.slice(c.voff, c.vlen));
    } else {
      append_text_get(s.bytes, key);
    }
    if ((i + 1) % kPipelineDepth == 0) s.batch_off.push_back(s.bytes.size());
  }
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "zipf_get") return Workload::kZipfGet;
  if (name == "resize_cycle") return Workload::kResizeCycle;
  if (name == "pipeline_mix") return Workload::kPipelineMix;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kZipfGet:
      return "zipf_get";
    case Workload::kResizeCycle:
      return "resize_cycle";
    case Workload::kPipelineMix:
      return "pipeline_mix";
  }
  return "?";
}

std::string_view ClientWorkload::value_of(std::string_view key) const {
  if (key.size() != 10 || key[0] != 'u' || key[1] != ':') return {};
  std::uint32_t k = 0;
  for (char c : key.substr(2)) {
    if (c < '0' || c > '9') return {};
    k = k * 10 + static_cast<std::uint32_t>(c - '0');
  }
  return k < keys.size() ? value(k) : std::string_view{};
}

ClientWorkload make_client_workload(Workload w, std::uint64_t seed) {
  proteus::Rng rng(proteus::hash_combine(seed, static_cast<std::uint64_t>(w)));
  ClientWorkload cw;
  cw.budget_per_daemon = kClientBudgetPerDaemon;
  cw.object_size = kObjectSize;
  cw.pool = make_pool(rng);
  const bool resize = w == Workload::kResizeCycle;
  const auto target = static_cast<std::size_t>(
      (resize ? kResizeSpaceFactor : kZipfSpaceFactor) *
      static_cast<double>((resize ? kResizeShrunkDaemons : kFleetDaemons) *
                          kClientBudgetPerDaemon));
  while (cw.key_space_bytes < target) {
    const auto k = static_cast<std::uint32_t>(cw.keys.size());
    cw.keys.push_back(make_key('u', k));
    cw.value_off.push_back(random_offset(rng));
    cw.key_space_bytes += item_charge(cw.keys.back().size(), kObjectSize);
  }
  const std::vector<std::uint32_t> perm = permutation(rng, cw.keys.size());
  const proteus::ZipfSampler zipf(cw.keys.size(), kZipfAlpha);
  cw.ops.reserve(kClientOps);
  for (std::size_t i = 0; i < kClientOps; ++i) {
    cw.ops.push_back({perm[zipf(rng)], rng.next_bool(kPutFraction)});
  }
  return cw;
}

PipelineWorkload make_pipeline_workload(std::uint64_t seed) {
  proteus::Rng rng(proteus::hash_combine(
      seed, static_cast<std::uint64_t>(Workload::kPipelineMix)));
  PipelineWorkload pw;
  pw.budget = kPipelineBudget;
  pw.pool = make_pool(rng);
  const double mean_item = static_cast<double>(item_charge(
      10, static_cast<std::size_t>(
              mean_log_uniform(kPipelineMinValue, ValuePool::kMaxValue))));
  const auto keys_per_conn = static_cast<std::size_t>(
      kPipelineSpaceFactor * static_cast<double>(kPipelineBudget) / mean_item / 2);
  pw.key_space_bytes =
      static_cast<std::size_t>(mean_item * static_cast<double>(2 * keys_per_conn));
  pw.text = make_pipe_stream(rng, false, keys_per_conn);
  pw.binary = make_pipe_stream(rng, true, keys_per_conn);
  encode_pipe_stream(pw.text, pw.pool);
  encode_pipe_stream(pw.binary, pw.pool);
  return pw;
}

void append_text_get(std::string& out, std::string_view key) {
  out += "get ";
  out += key;
  out += "\r\n";
}

void append_text_set(std::string& out, std::string_view key,
                     std::string_view value) {
  out += "set ";
  out += key;
  out += " 0 0 ";
  out += std::to_string(value.size());
  out += "\r\n";
  out += value;
  out += "\r\n";
}

void append_binary_get(std::string& out, std::string_view key) {
  binary::Frame f;
  f.opcode = binary::Opcode::kGet;
  f.key = key;
  out += binary::encode_frame(f, binary::kRequestMagic);
}

void append_binary_set(std::string& out, std::string_view key,
                       std::string_view value) {
  binary::Frame f;
  f.opcode = binary::Opcode::kSet;
  binary::put_u32(f.extras, 0);  // flags
  binary::put_u32(f.extras, 0);  // expiry
  f.key = key;
  f.value = value;
  out += binary::encode_frame(f, binary::kRequestMagic);
}

std::uint64_t stream_hash(Workload w, std::uint64_t seed) {
  if (w == Workload::kPipelineMix) {
    const PipelineWorkload pw = make_pipeline_workload(seed);
    return proteus::hash_combine(proteus::hash_bytes(pw.text.bytes),
                                 proteus::hash_bytes(pw.binary.bytes));
  }
  const ClientWorkload cw = make_client_workload(w, seed);
  std::uint64_t h = proteus::hash_u64(cw.ops.size());
  for (const ClientOp& op : cw.ops) {
    h = proteus::hash_combine(h, proteus::hash_bytes(cw.keys[op.key]));
    h = proteus::hash_combine(h, op.put ? 1 : 0);
    h = proteus::hash_combine(h, proteus::hash_bytes(cw.value(op.key)));
  }
  return h;
}

}  // namespace pb
