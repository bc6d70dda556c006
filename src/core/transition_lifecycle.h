// The provisioning side of a smooth transition (§IV-A), shared by the
// in-process facade (Proteus) and the simulated cache cluster
// (cluster::CacheCluster):
//
//   * resize: bump the fencing epoch, journal the plan ahead of acting on
//     it, snapshot and broadcast the old-mapping digests, power the joining
//     servers on and start draining the leaving ones;
//   * finalize: once the drain window ends, power the drained servers off,
//     journal the finalize record and compact the journal;
//   * replay: at construction, resume (or roll forward) the transition an
//     earlier incarnation left pending in the journal.
//
// The servers belong to the caller; servers in the skip set (crashed
// servers) are never powered, drained or snapshotted.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache_server.h"
#include "cluster/router.h"
#include "common/time.h"
#include "core/transition_journal.h"
#include "obs/trace.h"

namespace proteus::core {

class TransitionLifecycle {
 public:
  using Servers = std::vector<std::unique_ptr<cache::CacheServer>>;

  // `router` is the mapping the transitions switch (shared with whoever
  // routes by it). `servers` and `skip` must outlive this object; `skip`
  // has one entry per server.
  TransitionLifecycle(Servers& servers, std::shared_ptr<cluster::Router> router,
                      SimTime ttl, obs::TraceSink* trace,
                      const std::vector<bool>& skip);

  struct Replay {
    std::uint64_t records = 0;  // journal records replayed
    bool resumed = false;       // a pending transition was re-entered
  };
  // Opens the journal at `path` (empty = volatile transitions) and re-enters
  // the transition it left pending; tick() rolls it forward if its drain
  // window already ended.
  Replay replay(const std::string& path);

  // Starts a transition to `n_active` servers (finalizing any pending one
  // first). False when `n_active` is already the active count.
  bool resize(int n_active, SimTime now);
  // Finalizes the transition whose drain window ended by `now`.
  void tick(SimTime now);

  const cluster::Router& router() const noexcept { return *router_; }
  std::uint64_t epoch() const noexcept { return epoch_; }
  // Bytes of digest snapshots broadcast so far (one copy per transition).
  std::uint64_t digest_bytes() const noexcept { return digest_bytes_; }
  const TransitionJournal& journal() const noexcept { return journal_; }

 private:
  bool skipped(int server) const {
    return skip_[static_cast<std::size_t>(server)];
  }
  int max_servers() const noexcept { return static_cast<int>(servers_.size()); }
  cache::CacheServer& server(int i) { return *servers_[static_cast<std::size_t>(i)]; }
  void finalize();

  Servers& servers_;
  std::shared_ptr<cluster::Router> router_;
  SimTime ttl_;
  obs::TraceSink* trace_;
  const std::vector<bool>& skip_;
  std::vector<int> draining_;
  TransitionJournal journal_;
  std::uint64_t epoch_ = 0;
  std::uint64_t digest_bytes_ = 0;
};

}  // namespace proteus::core
