// pipeline_mix: two closed-loop generator threads against one
// single-worker daemon, one text and one binary connection, each sending
// prebuilt depth-16 batches and checking every reply against the last
// value it SET in its own key range.
#pragma once

#include <memory>
#include <vector>

#include "fleet.h"
#include "gen.h"
#include "util.h"

namespace pb {

// One connection's generator: socket, position in its stream, and the
// oracle's view of its key range.
struct PipeConn {
  const PipeStream* stream = nullptr;
  const ValuePool* pool = nullptr;
  int fd = -1;
  std::size_t cursor = 0;  // next batch
  // Per key: the last SET payload as (offset << 13 | length), -1 = never set.
  std::vector<std::int64_t> last_set;
  std::vector<char> rbuf;
  Samples latency;  // batch round trips, ns
  std::uint64_t cmds = 0, gets = 0, hits = 0, sets = 0, failed = 0;
  std::uint64_t batches = 0;
  std::uint64_t loop_allocs = 0;  // heap allocations inside the timed loop
  bool broken = false;             // stream desynced or closed: stop
};

struct PipeWindow {
  std::uint64_t cmds = 0, gets = 0, hits = 0, sets = 0, failed = 0;
  std::uint64_t batches = 0, loop_allocs = 0;
  LatencySummary latency;
  double wall_s = 0, cpu_s = 0, worker_cpu_s = 0;
  std::int64_t ctx_switches = 0;
  proteus::cache::CacheStats daemon_before, daemon_after;
  std::uint64_t sheds = 0;
  std::vector<std::uint32_t> latency_raw;  // both connections, ns
};

class PipelineBench {
 public:
  PipelineBench(const PipelineWorkload& w, bool timed);
  ~PipelineBench();
  PipelineBench(const PipelineBench&) = delete;
  PipelineBench& operator=(const PipelineBench&) = delete;

  double setup();
  PipeWindow measure(double seconds);

  Fleet& fleet() { return *fleet_; }
  // GET hit ratio of each warm-up chunk of the last set-up.
  const std::vector<double>& warmup_hit_ratios() const noexcept {
    return warmup_hit_ratios_;
  }

 private:
  // Runs both connections on their own threads until `end_ns` or until
  // each has sent `max_batches` batches.
  void run_phase(std::int64_t end_ns, std::uint64_t max_batches, bool record);
  void close_conns();

  const PipelineWorkload& w_;
  bool timed_;
  std::unique_ptr<Fleet> fleet_;
  PipeConn conns_[2];
  std::vector<double> warmup_hit_ratios_;
};

}  // namespace pb
