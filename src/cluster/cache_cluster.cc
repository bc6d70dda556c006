#include "cluster/cache_cluster.h"

namespace proteus::cluster {

void CacheCluster::resize(int n_new) {
  PROTEUS_CHECK(n_new >= 1 && n_new <= tier_.num_servers());
  const int n_old = router_->active();
  if (!config_.smooth_transitions) {
    // Brutal actuation: power states and mapping flip at once.
    for (int i = n_old; i < n_new; ++i) {
      if (!failed_[static_cast<std::size_t>(i)]) tier_.server(i).power_on();
    }
    for (int i = n_new; i < n_old; ++i) {
      if (!failed_[static_cast<std::size_t>(i)]) tier_.server(i).power_off();
    }
    router_->set_active(n_new);
    return;
  }

  // Smooth actuation (§IV): the router (shared by all web servers) is the
  // digest broadcast destination. After TTL every datum touched during the
  // window has already been copied to its new server (Algorithm 2 property
  // 2); whatever remains on the drained servers is cold and may be
  // discarded. A later resize moves the deadline, so a stale timer's tick
  // finds nothing due.
  if (!lifecycle_.resize(n_new, sim_.now())) return;
  ++transitions_started_;
  sim_.schedule_at(router_->transition_end(),
                   [this] { lifecycle_.tick(sim_.now()); });
}

void CacheCluster::mark_failed(int server) {
  PROTEUS_CHECK(server >= 0 && server < tier_.num_servers());
  if (failed_[static_cast<std::size_t>(server)]) return;
  failed_[static_cast<std::size_t>(server)] = true;
  if (tier_.server(server).power_state() != cache::PowerState::kOff) {
    tier_.server(server).power_off();  // the crash loses the cache (§III-A)
  }
  // Restart-aware digests, sim side: any broadcast digest describing that
  // memory died with it. Drop it so mid-transition old-location probes stop
  // chasing phantom "hot" answers (the live client reaches the same verdict
  // through the incarnation hello — docs/OPERATIONS.md §11).
  router_->drop_old_digest(server);
}

void CacheCluster::mark_recovered(int server) {
  PROTEUS_CHECK(server >= 0 && server < tier_.num_servers());
  if (!failed_[static_cast<std::size_t>(server)]) return;
  failed_[static_cast<std::size_t>(server)] = false;
  // Rejoin cold if inside the active set.
  if (server < router_->active()) {
    tier_.server(server).power_on();
  }
}

int CacheCluster::powered_servers() const {
  int n = 0;
  for (int i = 0; i < tier_.num_servers(); ++i) {
    n += tier_.server(i).power_state() != cache::PowerState::kOff;
  }
  return n;
}

}  // namespace proteus::cluster
