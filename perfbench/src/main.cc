// Live-stack benchmark program: starts in-process daemons on loopback,
// drives one workload closed loop, checks every reply, and prints every
// metric by name with its unit. With --trace 1 it instead runs the traced
// pass: an untraced and a traced window (for the tracing overhead) and the
// layer replays.
//
//   proteus_perfbench --workload zipf_get|resize_cycle|pipeline_mix
//                     --seed N --seconds S --trace 0|1 [--source-id ID]
//
// The last line of output is "@@result <json>" with every metric; run.py
// keeps the metrics BENCHMARK.json lists and prints them as its last line.
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "client_bench.h"
#include "common/hash.h"
#include "gen.h"
#include "layers.h"
#include "pipeline_bench.h"
#include "util.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace pb {
namespace {

using proteus::client::ProteusClient;

// setup_s is the median of this many full set-ups (daemon start + warm-up),
// which spreads them over several seconds of a host whose speed varies.
constexpr int kSetups = 7;
constexpr std::size_t kReplayOps = 8192;
constexpr std::size_t kHistogramReplay = 1u << 16;

struct Args {
  Workload workload = Workload::kZipfGet;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string source_id = "unknown";
};

struct Outcome {
  std::uint64_t attempted = 0, failed = 0;
  bool oracle_clean = true;  // no reply contradicted the oracle
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void print_latency(const char* what, const LatencySummary& s) {
  std::printf(
      "  %s: n=%zu mean=%.3f p50=%.3f p99=%.3f (beyond=%zu) p99.9=%.3f "
      "(beyond=%zu) max=%.1f us; per-second medians: p50=%.3f p99=%.3f us, "
      "%.0f samples/s over %zu windows\n",
      what, s.count, s.mean_us, s.p50_us, s.p99_us, s.beyond_p99, s.p999_us,
      s.beyond_p999, s.max_us, s.window_p50_us, s.window_p99_us, s.window_rate,
      s.windows);
}

// --- client workloads ----------------------------------------------------------

void add_client_window(const ClientWindow& win, Outcome& o) {
  const std::uint64_t timeouts = win.after.timeouts - win.before.timeouts;
  o.attempted += win.gets + win.puts;
  o.failed += win.wrong_values + timeouts;
  if (win.wrong_values > 0) o.oracle_clean = false;
}

std::vector<double> setups_for(const std::function<double()>& setup) {
  std::vector<double> out;
  for (int i = 0; i < kSetups; ++i) out.push_back(setup());
  return out;
}

void print_setups(const std::vector<double>& warmup_hit_ratios,
                  const std::vector<double>& setups) {
  std::printf("  warm-up hit ratio per chunk:");
  for (double r : warmup_hit_ratios) std::printf(" %.3f", r);
  std::printf("\n  set-ups (s):");
  for (double s : setups) std::printf(" %.3f", s);
  std::printf("\n");
}

void run_client(const Args& a, Report& rep, Outcome& o) {
  const ClientWorkload w = make_client_workload(a.workload, a.seed);
  std::printf("  keys=%zu key_space=%.1f MiB fleet_budget=%.1f MiB ops_stream=%zu\n",
              w.keys.size(), static_cast<double>(w.key_space_bytes) / 1048576.0,
              static_cast<double>(kFleetDaemons * w.budget_per_daemon) / 1048576.0,
              w.ops.size());
  ClientBench bench(w, a.workload, false);
  const std::vector<double> setups = setups_for([&] { return bench.setup(); });
  print_setups(bench.warmup_hit_ratios(), setups);
  const ClientWindow win = bench.measure(a.seconds);
  add_client_window(win, o);

  const LatencySummary lat = summarize(win.latency);
  print_latency("get latency", lat);
  std::printf("  GETs per one-second window:");
  for (std::size_t i = 0, prev = 0; i < win.latency.windows().size(); ++i) {
    std::printf(" %zu", win.latency.windows()[i] - prev);
    prev = win.latency.windows()[i];
  }
  std::printf("\n");
  const ProteusClient::Stats& s0 = win.before;
  const ProteusClient::Stats& s1 = win.after;
  const double gets = static_cast<double>(win.gets);
  rep.add("ops_s", lat.windows > 0 ? lat.window_rate : gets / win.wall_s, "1/s");
  rep.add("p50_us", lat.window_p50_us, "us");
  rep.add("p99_us", lat.window_p99_us, "us");
  rep.add("cpu_us_per_op", win.cpu_s * 1e6 / gets, "us");
  rep.add("hit_ratio",
          ratio(static_cast<double>(s1.new_server_hits + s1.old_server_hits -
                                    s0.new_server_hits - s0.old_server_hits),
                static_cast<double>(s1.gets - s0.gets)),
          "ratio");
  rep.add("backend_fetch_ratio",
          ratio(static_cast<double>(s1.backend_fetches - s0.backend_fetches),
                static_cast<double>(s1.gets - s0.gets)),
          "ratio");
  rep.add("failed_ratio", ratio(static_cast<double>(o.failed), static_cast<double>(o.attempted)),
          "ratio");
  if (a.workload == Workload::kResizeCycle) {
    const LatencySummary tl = summarize(win.transition_latency);
    print_latency("in-transition get latency", tl);
    rep.add("transition_p99_us", tl.window_p99_us, "us");
    rep.add("resize_ms", median(win.resize_ms), "ms");
    std::printf("  resizes=%zu old_server_hits=%llu digest_false_positives=%llu\n",
                win.resize_ms.size(),
                static_cast<unsigned long long>(s1.old_server_hits - s0.old_server_hits),
                static_cast<unsigned long long>(s1.digest_false_positives -
                                                s0.digest_false_positives));
  }
  rep.add("setup_s", median(setups), "s");
  rep.add("p999_us", lat.p999_us, "us");
  rep.add("p99_samples_beyond", static_cast<double>(lat.beyond_p99), "count");
  rep.add("p999_samples_beyond", static_cast<double>(lat.beyond_p999), "count");
  rep.add("latency_samples", static_cast<double>(lat.count), "count");
}

// --- pipeline_mix --------------------------------------------------------------

void add_pipe_window(const PipeWindow& win, Outcome& o) {
  o.attempted += win.cmds;
  o.failed += win.failed;
  if (win.failed > 0) o.oracle_clean = false;
}

void run_pipeline(const Args& a, Report& rep, Outcome& o) {
  const PipelineWorkload w = make_pipeline_workload(a.seed);
  std::printf("  keys=%zu+%zu key_space=%.1f MiB budget=%.1f MiB batches=%zu+%zu depth=%d\n",
              w.text.keys.size(), w.binary.keys.size(),
              static_cast<double>(w.key_space_bytes) / 1048576.0,
              static_cast<double>(w.budget) / 1048576.0, w.text.batches(),
              w.binary.batches(), kPipelineDepth);
  PipelineBench bench(w, false);
  const std::vector<double> setups = setups_for([&] { return bench.setup(); });
  print_setups(bench.warmup_hit_ratios(), setups);
  const PipeWindow win = bench.measure(a.seconds);
  add_pipe_window(win, o);
  print_latency("batch round trip", win.latency);
  std::printf("  generator allocations in the timed loop: %llu\n",
              static_cast<unsigned long long>(win.loop_allocs));
  const double cmds = static_cast<double>(win.cmds);
  const double gets = static_cast<double>(win.gets);
  rep.add("ops_s",
          win.latency.windows > 0 ? win.latency.window_rate * kPipelineDepth
                                  : cmds / win.wall_s,
          "1/s");
  rep.add("p50_us", win.latency.window_p50_us, "us");
  rep.add("p99_us", win.latency.window_p99_us, "us");
  rep.add("cpu_us_per_op", win.cpu_s * 1e6 / cmds, "us");
  rep.add("hit_ratio", ratio(static_cast<double>(win.hits), gets), "ratio");
  // No database behind this workload: each GET miss is the fetch one would
  // have to serve.
  rep.add("backend_fetch_ratio", ratio(gets - static_cast<double>(win.hits), gets), "ratio");
  rep.add("failed_ratio", ratio(static_cast<double>(o.failed), static_cast<double>(o.attempted)),
          "ratio");
  rep.add("setup_s", median(setups), "s");
  rep.add("p999_us", win.latency.p999_us, "us");
  rep.add("p99_samples_beyond", static_cast<double>(win.latency.beyond_p99), "count");
  rep.add("p999_samples_beyond", static_cast<double>(win.latency.beyond_p999), "count");
  rep.add("latency_samples", static_cast<double>(win.latency.count), "count");
  rep.add("generator_loop_allocs", static_cast<double>(win.loop_allocs), "count");
  if (win.loop_allocs > 0) o.oracle_clean = false;  // the generator must stay clean
}

// --- traced run ------------------------------------------------------------------

struct HandlerTotals {
  std::uint64_t batches = 0;
  std::int64_t busy_ns = 0;
  proteus::LatencyHistogram hist;
};

HandlerTotals handler_totals(Fleet& fleet) {
  HandlerTotals t;
  for (int i = 0; i < fleet.size(); ++i) {
    HandlerTiming* h = fleet.timing(i);
    const std::lock_guard<std::mutex> lock(h->mu);
    t.batches += h->batches;
    t.busy_ns += h->busy_ns;
    t.hist.merge(h->hist);
  }
  return t;
}

proteus::LatencyHistogram daemon_op_latency(Fleet& fleet) {
  proteus::LatencyHistogram merged;
  for (int i = 0; i < fleet.size(); ++i) {
    for (const auto& m : fleet.daemon(i).metrics().snapshot()) {
      if (m.name == "proteus_daemon_op_latency_us") merged.merge(m.hist);
    }
  }
  return merged;
}

// Metrics every traced run reports from the daemons' side of its traced
// window. `ops` is the operation count the end-to-end ops_s counts.
void add_daemon_layer_metrics(Fleet& fleet, const HandlerTotals& h0,
                              const HandlerTotals& h1, double ops,
                              double wall_s, double worker_cpu_s, std::int64_t ctx,
                              const std::vector<proteus::cache::CacheStats>& before,
                              const std::vector<proteus::cache::CacheStats>& after,
                              std::uint64_t sheds, Report& rep) {
  rep.add("net.ctx_switches_per_op", ratio(static_cast<double>(ctx), ops), "count");
  rep.add("net.daemon_cpu_us_per_op", ratio(worker_cpu_s * 1e6, ops), "us");
  rep.add("net.daemon_busy", ratio(worker_cpu_s, wall_s * fleet.size()), "ratio");
  rep.add("net.handler_us_per_batch",
          ratio(static_cast<double>(h1.busy_ns - h0.busy_ns) / 1000.0,
                static_cast<double>(h1.batches - h0.batches)),
          "us");
  double sets = 0, evictions = 0, hits = 0, misses = 0, bytes = 0, items = 0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    sets += static_cast<double>(after[i].sets - before[i].sets);
    evictions += static_cast<double>(after[i].evictions - before[i].evictions);
    hits += static_cast<double>(after[i].hits - before[i].hits);
    misses += static_cast<double>(after[i].misses - before[i].misses);
    bytes += static_cast<double>(fleet.daemon(static_cast<int>(i)).bytes_used());
    items += static_cast<double>(fleet.daemon(static_cast<int>(i)).item_count());
  }
  rep.add("cache.evictions_per_set", ratio(evictions, sets), "ratio");
  rep.add("cache.bytes_per_item", ratio(bytes, items), "B");
  rep.add("cache.hits", hits, "count");
  rep.add("cache.misses", misses, "count");
  rep.add("core.sheds_total", static_cast<double>(sheds), "count");
  // The production instrument against the outside timing. The daemon's
  // histogram also holds the batches of set-up and the untraced window.
  const proteus::LatencyHistogram inside = daemon_op_latency(fleet);
  rep.add("obs.op_latency_p50_us", inside.percentile_us(0.5), "us");
  rep.add("obs.op_latency_vs_outside",
          ratio(inside.percentile_us(0.5), h1.hist.percentile_us(0.5)), "ratio");
  std::printf("  daemon op_latency (own histogram): n=%llu p50=%.3f us; outside: n=%llu p50=%.3f us\n",
              static_cast<unsigned long long>(inside.count()), inside.percentile_us(0.5),
              static_cast<unsigned long long>(h1.hist.count()), h1.hist.percentile_us(0.5));
}

void add_trace_summary(double untraced_ops, double traced_ops, double blocking_us,
                       double e2e_mean_us, Report& rep) {
  rep.add("trace.coverage_share", ratio(blocking_us, e2e_mean_us), "ratio");
  rep.add("trace.unattributed_us", e2e_mean_us - blocking_us, "us");
  rep.add("trace.overhead_ratio", ratio(traced_ops, untraced_ops), "ratio");
  rep.add("trace.traced_ops_s", traced_ops, "1/s");
  rep.add("trace.untraced_ops_s", untraced_ops, "1/s");
}

void add_client_counts(const ProteusClient::Stats& s0, const ProteusClient::Stats& s1,
                       Report& rep) {
  const auto d = [&](std::uint64_t ProteusClient::Stats::*f) {
    return static_cast<double>(s1.*f - s0.*f);
  };
  rep.add("client.backend_fetches", d(&ProteusClient::Stats::backend_fetches), "count");
  rep.add("client.old_server_hits", d(&ProteusClient::Stats::old_server_hits), "count");
  rep.add("client.digest_false_positives",
          d(&ProteusClient::Stats::digest_false_positives), "count");
  rep.add("client.retries", d(&ProteusClient::Stats::retries), "count");
  rep.add("client.timeouts", d(&ProteusClient::Stats::timeouts), "count");
  rep.add("client.reconnects", d(&ProteusClient::Stats::reconnects), "count");
  rep.add("client.hedges_fired", d(&ProteusClient::Stats::hedges_fired), "count");
}

void traced_client(const Args& a, Report& rep, Outcome& o) {
  const ClientWorkload w = make_client_workload(a.workload, a.seed);
  const double half = std::max(1.0, a.seconds / 2);
  // One fleet: the traced window, then an untraced one on the same daemons
  // and connections, so the overhead ratio compares like with like.
  ClientBench bench(w, a.workload, true);
  bench.setup();
  const HandlerTotals h0 = handler_totals(bench.fleet());
  const ClientWindow win = bench.measure(half);
  add_client_window(win, o);
  const HandlerTotals h1 = handler_totals(bench.fleet());
  bench.fleet().set_timing(false);
  const ClientWindow plain = bench.measure(half);
  add_client_window(plain, o);
  const double untraced_ops = static_cast<double>(plain.gets) / plain.wall_s;
  const double gets = static_cast<double>(win.gets);
  double worker_cpu = 0;
  for (double c : win.worker_cpu_s) worker_cpu += c;
  add_daemon_layer_metrics(bench.fleet(), h0, h1, gets, win.wall_s, worker_cpu,
                           win.ctx_switches, win.daemon_before, win.daemon_after,
                           win.sheds_after - win.sheds_before, rep);
  add_client_counts(win.before, win.after, rep);
  const LatencySummary lat = summarize(win.latency);
  print_latency("traced get latency", lat);

  ReplayInput in;
  std::vector<std::string> batch_keys, batch_values;
  std::vector<bool> is_set;
  for (std::size_t i = 0; i < w.ops.size() && in.keys.size() < kReplayOps; ++i) {
    const ClientOp& op = w.ops[i];
    batch_keys.push_back(w.keys[op.key]);
    batch_values.emplace_back(w.value(op.key));
    is_set.push_back(op.put);
    if (!op.put) {
      in.keys.push_back(w.keys[op.key]);
      in.values.emplace_back(w.value(op.key));
    }
  }
  build_single_command_batches(batch_keys, batch_values, is_set, in);
  in.ports = bench.fleet().ports();
  in.budget_per_daemon = w.budget_per_daemon;
  in.latency_ns.assign(win.latency.raw().begin(),
                       win.latency.raw().begin() +
                           static_cast<std::ptrdiff_t>(std::min(kHistogramReplay, win.latency.size())));
  in.backend = [&w](std::string_view key) { return std::string(w.value_of(key)); };
  const ReplayResult rr = replay_layers(in, rep);

  const ProteusClient::Stats& s0 = win.before;
  const ProteusClient::Stats& s1 = win.after;
  const proteus::LatencyHistogram inside = daemon_op_latency(bench.fleet());
  rep.add("obs.op_latency_vs_feed", ratio(inside.percentile_us(0.5), rr.text_feed_us_per_cmd),
          "ratio");
  double daemon_hits = 0, daemon_misses = 0;
  for (std::size_t i = 0; i < win.daemon_after.size(); ++i) {
    daemon_hits += static_cast<double>(win.daemon_after[i].hits - win.daemon_before[i].hits);
    daemon_misses +=
        static_cast<double>(win.daemon_after[i].misses - win.daemon_before[i].misses);
  }
  const double client_hits = static_cast<double>(s1.new_server_hits + s1.old_server_hits -
                                                 s0.new_server_hits - s0.old_server_hits);
  const double client_misses =
      static_cast<double>((s1.gets - s0.gets) - (s1.new_server_hits - s0.new_server_hits) +
                          (s1.digest_false_positives - s0.digest_false_positives));
  rep.add("obs.hits_vs_client", ratio(daemon_hits, client_hits), "ratio");
  rep.add("obs.misses_vs_client", ratio(daemon_misses, client_misses), "ratio");

  // Blocking path of a GET: the client's own time plus the daemon's
  // handling of the batches each GET caused; the rest is the kernel.
  const double handler_us_per_get =
      ratio(static_cast<double>(h1.busy_ns - h0.busy_ns) / 1000.0, gets);
  add_trace_summary(untraced_ops, gets / win.wall_s, rr.get_self_us + handler_us_per_get,
                    lat.mean_us, rep);
}

void traced_pipeline(const Args& a, Report& rep, Outcome& o) {
  const PipelineWorkload w = make_pipeline_workload(a.seed);
  const double half = std::max(1.0, a.seconds / 2);
  PipelineBench bench(w, true);
  bench.setup();
  const HandlerTotals h0 = handler_totals(bench.fleet());
  const PipeWindow win = bench.measure(half);
  add_pipe_window(win, o);
  const HandlerTotals h1 = handler_totals(bench.fleet());
  bench.fleet().set_timing(false);
  const PipeWindow plain = bench.measure(half);
  add_pipe_window(plain, o);
  const double untraced_ops = static_cast<double>(plain.cmds) / plain.wall_s;
  const double cmds = static_cast<double>(win.cmds);
  add_daemon_layer_metrics(bench.fleet(), h0, h1, cmds, win.wall_s, win.worker_cpu_s,
                           win.ctx_switches, {win.daemon_before}, {win.daemon_after},
                           win.sheds, rep);
  print_latency("traced batch round trip", win.latency);

  ReplayInput in;
  for (std::size_t i = 0; i < w.text.cmds.size() && in.keys.size() < kReplayOps; ++i) {
    const PipeCmd& c = w.text.cmds[i];
    in.keys.push_back(w.text.keys[c.key]);
    in.values.emplace_back(c.set ? w.pool.slice(c.voff, c.vlen)
                                 : w.pool.slice(c.key % ValuePool::kSpan, 32 + c.key % 4064));
  }
  in.ports = bench.fleet().ports();
  in.budget_per_daemon = w.budget;
  in.text_bytes = w.text.bytes;
  in.text_off = w.text.batch_off;
  in.binary_bytes = w.binary.bytes;
  in.binary_off = w.binary.batch_off;
  in.cmds_per_stream = w.text.cmds.size();
  in.latency_ns.assign(win.latency_raw.begin(),
                       win.latency_raw.begin() +
                           static_cast<std::ptrdiff_t>(std::min(kHistogramReplay, win.latency_raw.size())));
  in.backend = [&w](std::string_view key) {
    const std::uint64_t h = proteus::hash_bytes(key);
    return std::string(w.pool.slice(static_cast<std::uint32_t>(h % ValuePool::kSpan),
                                    static_cast<std::uint32_t>(32 + (h >> 32) % 4064)));
  };
  const ReplayResult rr = replay_layers(in, rep);
  add_client_counts(ProteusClient::Stats{}, rr.client, rep);

  const proteus::LatencyHistogram inside = daemon_op_latency(bench.fleet());
  const double feed_per_batch =
      0.5 * (rr.text_feed_us_per_cmd + rr.binary_feed_us_per_cmd) * kPipelineDepth;
  rep.add("obs.op_latency_vs_feed", ratio(inside.percentile_us(0.5), feed_per_batch), "ratio");
  rep.add("obs.hits_vs_client",
          ratio(static_cast<double>(win.daemon_after.hits - win.daemon_before.hits),
                static_cast<double>(win.hits)),
          "ratio");
  rep.add("obs.misses_vs_client",
          ratio(static_cast<double>(win.daemon_after.misses - win.daemon_before.misses),
                static_cast<double>(win.gets - win.hits)),
          "ratio");
  const double handler_us_per_batch =
      ratio(static_cast<double>(h1.busy_ns - h0.busy_ns) / 1000.0,
            static_cast<double>(win.batches));
  add_trace_summary(untraced_ops, cmds / win.wall_s, handler_us_per_batch,
                    win.latency.mean_us, rep);
}

// --- output ------------------------------------------------------------------------

void print_meta(const Args& a) {
  utsname u{};
  uname(&u);
  std::printf(
      "# meta {\"workload\":%s,\"seed\":%llu,\"seconds\":%s,\"trace\":%d,"
      "\"nproc\":%u,\"compiler\":%s,\"build_type\":%s,\"kernel\":%s,"
      "\"transport\":\"tcp loopback 127.0.0.1, in-process daemons, 1 worker each\","
      "\"source\":%s}\n",
      json_string(workload_name(a.workload)).c_str(),
      static_cast<unsigned long long>(a.seed), json_number(a.seconds).c_str(),
      a.trace ? 1 : 0, std::thread::hardware_concurrency(),
      json_string(std::string("g++ ") + __VERSION__).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(std::string(u.sysname) + " " + u.release).c_str(),
      json_string(a.source_id).c_str());
}

// CRC32C throughput of one thread over 100 ms: a reference for how fast the
// host ran at the end of the run. Printed, not gated; on a shared host it
// explains a slow run.
volatile std::uint32_t g_host_reference_sink = 0;

void print_host_reference() {
  const std::string block(1u << 20, 'x');
  std::uint64_t bytes = 0;
  const std::int64_t t0 = now_ns();
  std::int64_t t1 = t0;
  while (t1 - t0 < 100'000'000) {
    g_host_reference_sink = proteus::crc32c(block);
    bytes += block.size();
    t1 = now_ns();
  }
  std::printf("  host reference: %.0f MiB/s crc32c on one thread\n",
              static_cast<double>(bytes) / 1048576.0 / (static_cast<double>(t1 - t0) * 1e-9));
}

void print_result(const Report& rep, const Outcome& o) {
  for (const Report::Entry& e : rep.entries()) {
    std::printf("  %-32s %16s %s\n", e.name.c_str(), json_number(e.value).c_str(),
                e.unit.c_str());
  }
  std::string json = "{\"correct\":";
  json += o.oracle_clean ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(o.attempted);
  json += ",\"failed\":" + std::to_string(o.failed);
  json += ",\"metrics\":{";
  bool first = true;
  for (const Report::Entry& e : rep.entries()) {
    if (!first) json += ",";
    first = false;
    json += json_string(e.name) + ":{\"value\":" + json_number(e.value) +
            ",\"unit\":" + json_string(e.unit) + "}";
  }
  json += "}}";
  std::printf("@@result %s\n", json.c_str());
}

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      const auto w = parse_workload(v);
      if (!w) return false;
      a.workload = *w;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--source-id") {
      a.source_id = v;
    } else {
      return false;
    }
  }
  return have_workload && a.seconds > 0 && argc % 2 == 1;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  pb::Args a;
  if (!pb::parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: %s --workload zipf_get|resize_cycle|pipeline_mix --seed N "
                 "--seconds S --trace 0|1 [--source-id ID]\n",
                 argv[0]);
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  pb::pin_this_thread(pb::allowed_cpus(), 0);
  pb::print_meta(a);
  pb::Report rep;
  pb::Outcome o;
  try {
    const bool pipeline = a.workload == pb::Workload::kPipelineMix;
    if (a.trace) {
      pipeline ? pb::traced_pipeline(a, rep, o) : pb::traced_client(a, rep, o);
    } else {
      pipeline ? pb::run_pipeline(a, rep, o) : pb::run_client(a, rep, o);
      rep.add("peak_rss_mb", pb::peak_rss_mb(), "MB");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
  pb::print_host_reference();
  pb::print_result(rep, o);
  // Nonzero when any reply contradicted the oracle.
  return o.oracle_clean ? 0 : 1;
}
