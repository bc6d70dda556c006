// In-process memcached daemons on loopback, each served by one worker
// thread the benchmark owns (so it can read that thread's CPU clock).
// A traced fleet wraps every connection handler to time the daemon's
// handling of each batch from outside the daemon.
#pragma once

#include <pthread.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "net/memcache_daemon.h"

namespace pb {

// Outside view of one daemon's batch handling (ConnectionHandler::on_data:
// protocol parse, shard lock, cache op, reply encode).
struct HandlerTiming {
  // Cleared for the traced run's untraced window: the wrapper then only
  // forwards.
  std::atomic<bool> enabled{true};
  std::mutex mu;
  std::uint64_t batches = 0;
  std::int64_t busy_ns = 0;
  // Microseconds, the daemon's own histogram type and unit, so the
  // cross-check against proteus_daemon_op_latency_us compares like with
  // like.
  proteus::LatencyHistogram hist;
};

class Fleet {
 public:
  // Daemon i's worker runs on CPU slot first_cpu_slot + i of
  // allowed_cpus(), wrapping past the generator slots below the first.
  Fleet(int daemons, std::size_t budget_per_daemon, bool timed,
        std::size_t first_cpu_slot);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  int size() const noexcept { return static_cast<int>(daemons_.size()); }
  std::vector<std::uint16_t> ports() const;
  proteus::net::MemcacheDaemon& daemon(int i) { return *daemons_[static_cast<std::size_t>(i)]; }
  // CPU seconds the daemon's worker thread has used so far.
  double worker_cpu_s(int i);
  // Null unless the fleet was built timed.
  HandlerTiming* timing(int i) {
    return timings_.empty() ? nullptr : timings_[static_cast<std::size_t>(i)].get();
  }
  void set_timing(bool on) {
    for (auto& t : timings_) t->enabled.store(on, std::memory_order_relaxed);
  }

 private:
  std::vector<std::unique_ptr<HandlerTiming>> timings_;
  std::vector<std::unique_ptr<proteus::net::MemcacheDaemon>> daemons_;
  std::vector<std::thread> workers_;
};

}  // namespace pb
