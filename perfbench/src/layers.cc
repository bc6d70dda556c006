#include "layers.h"

#include <memory>
#include <optional>

#include "cache/binary_protocol.h"
#include "cache/sharded_cache.h"
#include "cache/text_protocol.h"
#include "client/memcache_client.h"
#include "cluster/router.h"
#include "common/hash.h"
#include "gen.h"
#include "hashring/proteus_placement.h"
#include "net/memcache_daemon.h"
#include "obs/metrics.h"

namespace pb {
namespace {

using proteus::client::MemcacheConnection;
using proteus::client::ProteusClient;

constexpr int kPasses = 5;
std::uint64_t g_sink = 0;  // keeps replayed results observable

// Median over kPasses of the mean nanoseconds per call of f(i), i < n.
template <class F>
double ns_per_call(std::size_t n, F&& f) {
  std::vector<double> per;
  for (int p = 0; p < kPasses; ++p) {
    std::uint64_t sink = 0;
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) sink += f(i);
    const std::int64_t t1 = now_ns();
    g_sink += sink;
    per.push_back(static_cast<double>(t1 - t0) / static_cast<double>(n));
  }
  return median(per);
}

// Time per command of a protocol session fed the batches, in-process.
template <class Session>
double feed_us_per_cmd(Session& session, const std::string& bytes,
                       const std::vector<std::size_t>& off, std::size_t cmds) {
  const auto feed_all = [&] {
    for (std::size_t b = 0; b + 1 < off.size(); ++b) {
      const std::string out = session.feed(
          std::string_view(bytes).substr(off[b], off[b + 1] - off[b]),
          proteus::net::monotonic_now());
      g_sink += out.size();
    }
  };
  feed_all();  // warm: fills the engine as the live daemon was filled
  const std::int64_t t0 = now_ns();
  feed_all();
  return static_cast<double>(now_ns() - t0) / 1000.0 / static_cast<double>(cmds);
}

}  // namespace

void build_single_command_batches(const std::vector<std::string>& keys,
                                  const std::vector<std::string>& values,
                                  const std::vector<bool>& is_set,
                                  ReplayInput& in) {
  in.text_off.assign(1, 0);
  in.binary_off.assign(1, 0);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (is_set[i]) {
      append_text_set(in.text_bytes, keys[i], values[i]);
      append_binary_set(in.binary_bytes, keys[i], values[i]);
    } else {
      append_text_get(in.text_bytes, keys[i]);
      append_binary_get(in.binary_bytes, keys[i]);
    }
    in.text_off.push_back(in.text_bytes.size());
    in.binary_off.push_back(in.binary_bytes.size());
  }
  in.cmds_per_stream = keys.size();
}

ReplayResult replay_layers(const ReplayInput& in, Report& out) {
  ReplayResult res;
  const std::size_t n = in.keys.size();
  const int servers = static_cast<int>(in.ports.size());

  // --- hashring, cluster, bloom --------------------------------------------
  // Placement over the client workloads' fleet size; pipeline_mix keys are
  // routed over the same four-server placement.
  auto placement = std::make_shared<proteus::ring::ProteusPlacement>(kFleetDaemons);
  std::vector<std::uint64_t> hashes(n);
  for (std::size_t i = 0; i < n; ++i) hashes[i] = proteus::hash_bytes(in.keys[i]);
  out.add("hashring.server_for_ns", ns_per_call(n, [&](std::size_t i) {
            return static_cast<std::uint64_t>(placement->server_for(hashes[i], kFleetDaemons));
          }), "ns");
  const proteus::cluster::Router steady(placement, kFleetDaemons);
  out.add("cluster.decide_ns", ns_per_call(n, [&](std::size_t i) {
            return static_cast<std::uint64_t>(steady.decide(in.keys[i]).primary);
          }), "ns");

  std::vector<std::optional<proteus::bloom::BloomFilter>> digests(kFleetDaemons);
  std::vector<double> fetch_ms;
  for (int s = 0; s < kFleetDaemons; ++s) {
    if (s >= servers) {
      digests[static_cast<std::size_t>(s)] = digests[0];  // one daemon serves all
      continue;
    }
    MemcacheConnection conn(in.ports[static_cast<std::size_t>(s)]);
    for (int rep = 0; rep < 3; ++rep) {
      const std::int64_t t0 = now_ns();
      digests[static_cast<std::size_t>(s)] = conn.fetch_digest();
      fetch_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    }
  }
  out.add("client.fetch_digest_ms", median(fetch_ms), "ms");
  out.add("bloom.digest_bytes",
          digests[0] ? static_cast<double>(digests[0]->memory_bytes()) : 0.0, "B");
  const proteus::bloom::BloomFilter& digest =
      digests[0] ? *digests[0] : proteus::bloom::BloomFilter(64, 1);
  out.add("bloom.maybe_contains_ns", ns_per_call(n, [&](std::size_t i) {
            return static_cast<std::uint64_t>(digest.maybe_contains(in.keys[i]));
          }), "ns");
  proteus::cluster::Router shrinking(placement, kFleetDaemons);
  shrinking.begin_transition(2, INT64_MAX, digests);
  out.add("cluster.decide_transition_ns", ns_per_call(n, [&](std::size_t i) {
            const auto d = shrinking.decide(in.keys[i]);
            return static_cast<std::uint64_t>(d.primary + d.fallback);
          }), "ns");

  // --- client ----------------------------------------------------------------
  {
    ProteusClient::Options opt;
    opt.endpoints = in.ports;
    ProteusClient pc(opt, in.backend);
    const proteus::cluster::Router route(
        std::make_shared<proteus::ring::ProteusPlacement>(servers), servers);
    for (const std::string& k : in.keys) g_sink += pc.get(k, now_ns() / 1000).size();

    const std::uint64_t allocs0 = thread_allocs();
    const double cpu0 = thread_cpu_s();
    for (const std::string& k : in.keys) g_sink += pc.get(k, now_ns() / 1000).size();
    out.add("client.cpu_us_per_get", (thread_cpu_s() - cpu0) * 1e6 / static_cast<double>(n), "us");
    out.add("client.allocs_per_get",
            static_cast<double>(thread_allocs() - allocs0) / static_cast<double>(n), "count");

    // Each ProteusClient::get is followed by a bare MemcacheConnection::get
    // of the same key on the same daemon with the same request tokens; on
    // a hit the difference is the client's own time around one round trip.
    std::vector<std::unique_ptr<MemcacheConnection>> conns;
    for (std::uint16_t port : in.ports) conns.push_back(std::make_unique<MemcacheConnection>(port));
    double pc_hit_ns = 0, wire_hit_ns = 0, wire_ns = 0;
    std::size_t hit_pairs = 0;
    for (const std::string& k : in.keys) {
      const std::uint64_t hits0 = pc.stats().new_server_hits;
      const std::int64_t t0 = now_ns();
      g_sink += pc.get(k, t0 / 1000).size();
      const std::int64_t t1 = now_ns();
      const auto v = conns[static_cast<std::size_t>(route.decide(k).primary)]->get(
          k, 0, false, pc.cluster_epoch(), true);
      const std::int64_t t2 = now_ns();
      g_sink += v ? v->size() : 0;
      wire_ns += static_cast<double>(t2 - t1);
      if (pc.stats().new_server_hits > hits0 && v) {
        pc_hit_ns += static_cast<double>(t1 - t0);
        wire_hit_ns += static_cast<double>(t2 - t1);
        ++hit_pairs;
      }
    }
    out.add("client.wire_get_us", wire_ns / 1000.0 / static_cast<double>(n), "us");
    res.get_self_us = hit_pairs ? (pc_hit_ns - wire_hit_ns) / 1000.0 /
                                      static_cast<double>(hit_pairs)
                                : 0.0;
    out.add("client.get_self_us", res.get_self_us, "us");
    res.client = pc.stats();
  }

  // --- cache: protocol sessions and engine, in-process -------------------------
  proteus::cache::CacheConfig cfg;
  cfg.memory_budget_bytes = in.budget_per_daemon;
  {
    proteus::cache::ShardedCacheServer text_engine(cfg, 1), binary_engine(cfg, 1);
    proteus::cache::TextProtocolSession text(text_engine);
    proteus::cache::BinaryProtocolSession binary(binary_engine);
    const std::uint64_t allocs0 = thread_allocs();
    res.text_feed_us_per_cmd =
        feed_us_per_cmd(text, in.text_bytes, in.text_off, in.cmds_per_stream);
    res.binary_feed_us_per_cmd =
        feed_us_per_cmd(binary, in.binary_bytes, in.binary_off, in.cmds_per_stream);
    // Both streams, warm and timed pass: four passes of cmds_per_stream.
    out.add("cache.allocs_per_cmd",
            static_cast<double>(thread_allocs() - allocs0) /
                static_cast<double>(4 * in.cmds_per_stream),
            "count");
    out.add("cache.text_feed_us_per_cmd", res.text_feed_us_per_cmd, "us");
    out.add("cache.binary_feed_us_per_cmd", res.binary_feed_us_per_cmd, "us");
  }
  {
    proteus::cache::ShardedCacheServer engine(cfg, 1);
    std::vector<double> set_ns, get_ns;
    for (int p = 0; p < kPasses; ++p) {
      std::vector<std::string> values = in.values;  // moved into the engine
      const proteus::SimTime now = proteus::net::monotonic_now();
      std::int64_t t0 = now_ns();
      for (std::size_t i = 0; i < n; ++i) engine.set(in.keys[i], std::move(values[i]), now);
      std::int64_t t1 = now_ns();
      set_ns.push_back(static_cast<double>(t1 - t0) / static_cast<double>(n));
      std::uint64_t sink = 0;
      t0 = now_ns();
      for (std::size_t i = 0; i < n; ++i) {
        const auto v = engine.get(in.keys[i], now);
        sink += v ? v->size() : 0;
      }
      t1 = now_ns();
      g_sink += sink;
      get_ns.push_back(static_cast<double>(t1 - t0) / static_cast<double>(n));
    }
    out.add("cache.engine_get_ns", median(get_ns), "ns");
    out.add("cache.engine_set_ns", median(set_ns), "ns");
  }

  // --- obs, common -------------------------------------------------------------
  {
    proteus::obs::Histogram h;
    const std::size_t m = in.latency_ns.size();
    out.add("obs.histogram_record_ns", m == 0 ? 0.0 : ns_per_call(m, [&](std::size_t i) {
              h.record(static_cast<double>(in.latency_ns[i]) / 1000.0);
              return std::uint64_t{1};
            }), "ns");
  }
  {
    double bytes = 0;
    for (const std::string& v : in.values) bytes += static_cast<double>(v.size());
    const double ns_per_value = ns_per_call(in.values.size(), [&](std::size_t i) {
      return static_cast<std::uint64_t>(proteus::crc32c(in.values[i]));
    });
    out.add("common.crc32c_ns_per_kib",
            ns_per_value * static_cast<double>(in.values.size()) / (bytes / 1024.0), "ns");
  }
  return res;
}

}  // namespace pb
