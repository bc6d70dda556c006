// zipf_get and resize_cycle: one closed-loop ProteusClient thread against
// four single-worker daemons. Each GET waits for its reply before the next
// operation is sent, as a web-server thread does.
#pragma once

#include <memory>
#include <vector>

#include "client/memcache_client.h"
#include "fleet.h"
#include "gen.h"
#include "util.h"

namespace pb {

struct ClientWindow {
  Samples latency;             // every GET, ns
  Samples transition_latency;  // GETs issued while in_transition()
  std::uint64_t gets = 0, puts = 0, wrong_values = 0;
  std::vector<double> resize_ms;
  double wall_s = 0, cpu_s = 0;
  std::int64_t ctx_switches = 0;
  std::vector<double> worker_cpu_s;  // per daemon, over the window
  proteus::client::ProteusClient::Stats before, after;
  std::vector<proteus::cache::CacheStats> daemon_before, daemon_after;
  std::uint64_t sheds_before = 0, sheds_after = 0;
};

class ClientBench {
 public:
  ClientBench(const ClientWorkload& w, Workload kind, bool timed);

  // Starts the fleet and the client and warms the caches with a fixed
  // number of GETs. Returns the wall seconds it took.
  double setup();
  ClientWindow measure(double seconds);

  Fleet& fleet() { return *fleet_; }
  proteus::client::ProteusClient& client() { return *client_; }
  // GET hit ratio of each warm-up chunk of the last set-up.
  const std::vector<double>& warmup_hit_ratios() const noexcept {
    return warmup_hit_ratios_;
  }

 private:
  // Runs the op stream from the cursor; stops at `end_ns` or after
  // `max_gets` GETs. Records into `win` when given.
  void drive(std::int64_t end_ns, std::uint64_t max_gets, ClientWindow* win);

  const ClientWorkload& w_;
  Workload kind_;
  bool timed_;
  std::unique_ptr<Fleet> fleet_;
  std::unique_ptr<proteus::client::ProteusClient> client_;
  std::size_t cursor_ = 0;
  std::vector<double> warmup_hit_ratios_;
  proteus::SimTime clock_us_ = 0;  // the client's clock, see kOpClockUs
  // resize_cycle state.
  proteus::SimTime next_resize_us_ = 0;
  bool power_off_pending_ = false;
};

}  // namespace pb
