#include "fleet.h"

#include <stdexcept>
#include <string>

#include "util.h"

namespace pb {
namespace {

class TimedHandler final : public proteus::net::ConnectionHandler {
 public:
  TimedHandler(std::unique_ptr<proteus::net::ConnectionHandler> inner,
               HandlerTiming* timing)
      : inner_(std::move(inner)), timing_(timing) {}

  std::string on_data(std::string_view bytes, bool& close) override {
    if (!timing_->enabled.load(std::memory_order_relaxed)) {
      return inner_->on_data(bytes, close);
    }
    const std::int64_t t0 = now_ns();
    std::string out = inner_->on_data(bytes, close);
    const std::int64_t dt = now_ns() - t0;
    const std::lock_guard<std::mutex> lock(timing_->mu);
    ++timing_->batches;
    timing_->busy_ns += dt;
    timing_->hist.record(static_cast<double>(dt) / 1000.0);
    return out;
  }

 private:
  std::unique_ptr<proteus::net::ConnectionHandler> inner_;
  HandlerTiming* timing_;
};

}  // namespace

Fleet::Fleet(int daemons, std::size_t budget_per_daemon, bool timed,
             std::size_t first_cpu_slot) {
  for (int i = 0; i < daemons; ++i) {
    proteus::cache::CacheConfig cfg;
    cfg.memory_budget_bytes = budget_per_daemon;
    auto d = std::make_unique<proteus::net::MemcacheDaemon>(cfg, 0);
    if (!d->ok()) throw std::runtime_error("daemon failed to bind loopback");
    d->set_server_id(i);
    if (timed) {
      timings_.push_back(std::make_unique<HandlerTiming>());
      HandlerTiming* t = timings_.back().get();
      d->set_handler_wrapper(
          [t](std::unique_ptr<proteus::net::ConnectionHandler> inner) {
            return std::make_unique<TimedHandler>(std::move(inner), t);
          });
    }
    daemons_.push_back(std::move(d));
  }
  const std::vector<int> cpus = allowed_cpus();
  const std::size_t spare =
      cpus.size() > first_cpu_slot ? cpus.size() - first_cpu_slot : 1;
  for (std::size_t i = 0; i < daemons_.size(); ++i) {
    const std::size_t slot = first_cpu_slot + i % spare;
    workers_.emplace_back([p = daemons_[i].get(), cpus, slot] {
      pin_this_thread(cpus, slot);
      p->run();
    });
  }
}

Fleet::~Fleet() {
  for (auto& d : daemons_) d->stop();
  for (auto& w : workers_) w.join();
}

std::vector<std::uint16_t> Fleet::ports() const {
  std::vector<std::uint16_t> out;
  for (const auto& d : daemons_) out.push_back(d->port());
  return out;
}

double Fleet::worker_cpu_s(int i) {
  return thread_cpu_s(workers_[static_cast<std::size_t>(i)].native_handle());
}

}  // namespace pb
