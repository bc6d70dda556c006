#include "client_bench.h"

#include <malloc.h>

namespace pb {
namespace {

using proteus::client::ProteusClient;

// The client's clock (the `now` every call takes) advances a fixed step per
// operation instead of following the wall clock. Transitions then last a
// fixed number of operations and the hit/miss sequence is a function of the
// seed alone, not of how fast the host happens to run.
constexpr proteus::SimTime kOpClockUs = 20;
// resize_cycle: resize every half cycle of that clock (25,000 operations),
// alternating 4->2 and 2->4. The transition drain window (the client's TTL)
// is shorter than a half cycle, so every transition finalizes before the
// next resize.
constexpr proteus::SimTime kHalfCycle = 500 * proteus::kMillisecond;
constexpr proteus::SimTime kTransitionTtl = 200 * proteus::kMillisecond;
constexpr int kShrunkActive = 2;

// Warm-up: a fixed number of GETs, in chunks whose hit ratios are kept to
// show the caches reached steady state. The count is fixed so that setup_s
// times the same work on every run.
constexpr std::uint64_t kWarmChunkGets = 4096;
constexpr std::size_t kWarmChunks = 12;

double hits(const ProteusClient::Stats& s) {
  return static_cast<double>(s.new_server_hits + s.old_server_hits);
}

}  // namespace

ClientBench::ClientBench(const ClientWorkload& w, Workload kind, bool timed)
    : w_(w), kind_(kind), timed_(timed) {}

double ClientBench::setup() {
  client_.reset();
  fleet_.reset();
  // Hand the previous set-up's freed memory back to the system, so
  // peak_rss_mb describes one fleet rather than the allocator's leftovers.
  malloc_trim(0);
  next_resize_us_ = 0;
  clock_us_ = 0;
  power_off_pending_ = false;
  const std::int64_t t0 = now_ns();
  // The client runs on the calling thread, pinned to CPU slot 0 by main().
  fleet_ = std::make_unique<Fleet>(kFleetDaemons, w_.budget_per_daemon, timed_, 1);
  ProteusClient::Options opt;
  opt.endpoints = fleet_->ports();
  if (kind_ == Workload::kResizeCycle) opt.ttl = kTransitionTtl;
  client_ = std::make_unique<ProteusClient>(
      opt, [this](std::string_view key) { return std::string(w_.value_of(key)); });
  cursor_ = 0;
  warmup_hit_ratios_.clear();
  for (std::size_t i = 0; i < kWarmChunks; ++i) {
    const ProteusClient::Stats before = client_->stats();
    drive(INT64_MAX, kWarmChunkGets, nullptr);
    const ProteusClient::Stats& after = client_->stats();
    warmup_hit_ratios_.push_back((hits(after) - hits(before)) /
                                 static_cast<double>(after.gets - before.gets));
  }
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

void ClientBench::drive(std::int64_t end_ns, std::uint64_t max_gets,
                        ClientWindow* win) {
  const std::size_t mask = w_.ops.size() - 1;
  const bool resizing = kind_ == Workload::kResizeCycle && win != nullptr;
  const std::int64_t start = now_ns();
  std::int64_t next_window = start + 1'000'000'000;
  if (win != nullptr) {
    win->latency.start(start);
    win->transition_latency.start(start);
  }
  if (resizing && next_resize_us_ == 0) next_resize_us_ = clock_us_ + kHalfCycle;
  std::uint64_t gets = 0;
  for (;;) {
    const ClientOp& op = w_.ops[cursor_++ & mask];
    const std::string& key = w_.keys[op.key];
    const std::string_view expected = w_.value(op.key);
    clock_us_ += kOpClockUs;
    std::int64_t t;
    if (op.put) {
      // A put writes the key's backend value (a write-through refresh), so
      // every later read has exactly one right answer.
      client_->put(key, expected, clock_us_);
      if (win != nullptr) ++win->puts;
      t = now_ns();
    } else {
      const bool in_transition = client_->in_transition();
      const std::int64_t t0 = now_ns();
      const std::string value = client_->get(key, clock_us_);
      t = now_ns();
      ++gets;
      if (win != nullptr) {
        ++win->gets;
        if (value != expected) ++win->wrong_values;
        win->latency.record(t - t0);
        if (in_transition) win->transition_latency.record(t - t0);
      }
    }
    if (win != nullptr && t >= next_window) {
      win->latency.mark_window(t);
      win->transition_latency.mark_window(t);
      next_window += 1'000'000'000;
    }
    if (resizing && clock_us_ >= next_resize_us_) {
      const int target = client_->active_servers() == kFleetDaemons ? kShrunkActive
                                                                   : kFleetDaemons;
      const std::int64_t r0 = now_ns();
      client_->resize(target, clock_us_);
      win->resize_ms.push_back(static_cast<double>(now_ns() - r0) * 1e-6);
      power_off_pending_ = target < kFleetDaemons;
      next_resize_us_ += kHalfCycle;
    }
    if (power_off_pending_ && !client_->in_transition()) {
      // The drained daemons power off once their transition ends: their
      // memory is lost, as in the paper, so the next grow starts them cold.
      for (int i = kShrunkActive; i < kFleetDaemons; ++i) {
        fleet_->daemon(i).cache().flush();
      }
      power_off_pending_ = false;
    }
    if (t >= end_ns || gets >= max_gets) break;
  }
}

ClientWindow ClientBench::measure(double seconds) {
  ClientWindow win;
  const auto capacity = static_cast<std::size_t>(seconds * 200'000) + 4096;
  win.latency = Samples(capacity);
  win.transition_latency = Samples(capacity);
  win.resize_ms.reserve(static_cast<std::size_t>(seconds * 4) + 16);
  const auto snapshot_daemons = [this](std::vector<proteus::cache::CacheStats>& out,
                                       std::uint64_t& sheds) {
    out.clear();
    sheds = 0;
    for (int i = 0; i < fleet_->size(); ++i) {
      out.push_back(fleet_->daemon(i).stats_snapshot());
      sheds += fleet_->daemon(i).sheds_total();
    }
  };
  snapshot_daemons(win.daemon_before, win.sheds_before);
  std::vector<double> worker0(static_cast<std::size_t>(fleet_->size()));
  for (int i = 0; i < fleet_->size(); ++i) worker0[static_cast<std::size_t>(i)] = fleet_->worker_cpu_s(i);
  win.before = client_->stats();
  const std::int64_t ctx0 = context_switches();
  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  drive(t0 + static_cast<std::int64_t>(seconds * 1e9), UINT64_MAX, &win);
  const std::int64_t t1 = now_ns();
  win.cpu_s = process_cpu_s() - cpu0;
  win.ctx_switches = context_switches() - ctx0;
  win.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  win.after = client_->stats();
  for (int i = 0; i < fleet_->size(); ++i) {
    win.worker_cpu_s.push_back(fleet_->worker_cpu_s(i) - worker0[static_cast<std::size_t>(i)]);
  }
  snapshot_daemons(win.daemon_after, win.sheds_after);
  next_resize_us_ = 0;
  return win;
}

}  // namespace pb
