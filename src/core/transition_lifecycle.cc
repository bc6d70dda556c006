#include "core/transition_lifecycle.h"

#include <algorithm>
#include <optional>

#include "common/check.h"

namespace proteus::core {

TransitionLifecycle::TransitionLifecycle(
    Servers& servers, std::shared_ptr<cluster::Router> router, SimTime ttl,
    obs::TraceSink* trace, const std::vector<bool>& skip)
    : servers_(servers),
      router_(std::move(router)),
      ttl_(ttl),
      trace_(trace),
      skip_(skip) {
  PROTEUS_CHECK(router_ != nullptr);
}

TransitionLifecycle::Replay TransitionLifecycle::replay(
    const std::string& path) {
  Replay out;
  std::vector<JournalRecord> replayed;
  if (path.empty() || !journal_.open(path, replayed)) return out;
  const std::optional<PendingTransition> t =
      interpret_journal(replayed, epoch_);
  out.records = replayed.size();
  out.resumed = t.has_value() && t->n_old >= 1 &&
                t->n_old <= max_servers() && t->n_new >= 1 &&
                t->n_new <= max_servers();
  obs::emit(trace_, 0, obs::TraceEventKind::kJournalReplay, out.resumed ? 1 : 0,
            -1, replayed.size());
  if (!out.resumed) return out;

  if (t->epoch > epoch_) epoch_ = t->epoch;
  // Rebuild the power topology the coordinator died with: every server that
  // was active under either mapping is on; the recorded leavers drain.
  // Cache CONTENTS are gone if this process restarted — only the plan is
  // durable — so resumed digests may over-claim; Algorithm 2 absorbs that
  // as ordinary false positives.
  for (int i = 0; i < max_servers(); ++i) {
    const bool want_on = i < std::max(t->n_old, t->n_new) && !skipped(i);
    cache::CacheServer& s = server(i);
    if (want_on && s.power_state() == cache::PowerState::kOff) {
      s.power_on();
    } else if (!want_on && s.power_state() != cache::PowerState::kOff) {
      s.power_off();
    }
  }
  draining_.clear();
  for (int i : t->draining) {
    if (i < 0 || i >= max_servers() || skipped(i)) continue;
    server(i).begin_draining();
    draining_.push_back(i);
  }
  std::vector<std::optional<bloom::BloomFilter>> digests(
      static_cast<std::size_t>(max_servers()));
  for (const auto& [i, encoded] : t->digests) {
    if (i < 0 || i >= max_servers()) continue;
    if (encoded.size() < 24 || encoded.size() % 8 != 0) continue;
    digests[static_cast<std::size_t>(i)] = cache::decode_digest(encoded);
  }
  router_->set_active(t->n_old);
  router_->begin_transition(t->n_new, t->drain_end, std::move(digests));
  return out;
}

void TransitionLifecycle::tick(SimTime now) {
  if (router_->in_transition() && now >= router_->transition_end()) finalize();
}

void TransitionLifecycle::finalize() {
  for (int i : draining_) {
    if (skipped(i)) continue;
    obs::emit(trace_, router_->transition_end(), obs::TraceEventKind::kPowerOff,
              i, -1, server(i).item_count());
    server(i).power_off();
  }
  draining_.clear();
  router_->finalize_transition();
  if (journal_.is_open()) {
    JournalRecord fin;
    fin.kind = JournalRecordKind::kFinalize;
    fin.a = epoch_;
    journal_.append(fin);
    // Nothing is pending anymore: compact to just the finalize marker so
    // the log stays bounded while the epoch survives the next restart.
    journal_.compact({fin});
  }
  obs::emit(trace_, router_->transition_end(), obs::TraceEventKind::kResizeEnd,
            router_->active());
}

bool TransitionLifecycle::resize(int n_active, SimTime now) {
  PROTEUS_CHECK(n_active >= 1 && n_active <= max_servers());
  const int n_old = router_->active();
  if (n_active == n_old) return false;

  // Overlapping transitions: finalize the pending one first (§IV assumes
  // the provisioning period is much longer than TTL).
  if (router_->in_transition()) finalize();

  // Bump the fencing epoch and write the plan ahead of acting on it: after
  // a crash anywhere past this append, replay reconstructs the transition.
  ++epoch_;
  const SimTime drain_end = now + ttl_;
  if (journal_.is_open()) {
    JournalRecord begin;
    begin.kind = JournalRecordKind::kResizeBegin;
    begin.a = epoch_;
    begin.b = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(n_old))
               << 32) |
              static_cast<std::uint32_t>(n_active);
    begin.c = static_cast<std::uint64_t>(drain_end);
    journal_.append(begin);
  }
  obs::emit(trace_, now, obs::TraceEventKind::kResizeBegin, n_old, n_active);
  obs::emit(trace_, now, obs::TraceEventKind::kEpochBump, -1, -1, epoch_);

  // Broadcast digests of every old-mapping server (§IV-A). A digest covers
  // the server's whole content, whichever replica ring put each key there.
  std::vector<std::optional<bloom::BloomFilter>> digests(
      static_cast<std::size_t>(max_servers()));
  for (int i = 0; i < n_old; ++i) {
    if (skipped(i)) continue;
    auto snapshot = server(i).snapshot_digest();
    obs::emit(trace_, now, obs::TraceEventKind::kDigestSnapshot, i, -1,
              snapshot.words().size() * sizeof(std::uint64_t));
    if (journal_.is_open()) {
      JournalRecord rec;
      rec.kind = JournalRecordKind::kDigestSnapshot;
      rec.server = i;
      rec.payload = cache::encode_digest(snapshot);
      journal_.append(rec);
    }
    digest_bytes_ += snapshot.memory_bytes();
    digests[static_cast<std::size_t>(i)] = std::move(snapshot);
  }

  for (int i = n_old; i < n_active; ++i) {
    if (skipped(i)) continue;
    server(i).power_on();
    obs::emit(trace_, now, obs::TraceEventKind::kPowerOn, i);
  }
  for (int i = n_active; i < n_old; ++i) {
    if (skipped(i)) continue;
    server(i).begin_draining();
    draining_.push_back(i);
    if (journal_.is_open()) {
      JournalRecord rec;
      rec.kind = JournalRecordKind::kDrainBegin;
      rec.server = i;
      journal_.append(rec);
    }
    obs::emit(trace_, now, obs::TraceEventKind::kDrainBegin, i);
  }

  router_->begin_transition(n_active, drain_end, std::move(digests));
  return true;
}

}  // namespace proteus::core
