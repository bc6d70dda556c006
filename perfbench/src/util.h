// Measurement helpers shared by the workloads and the traced layer replays:
// clocks, CPU clocks, an allocation counter, exact percentiles over raw
// samples, and the result record every run prints.
#pragma once

#include <pthread.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double clock_s(clockid_t id) noexcept {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
// CPU time (user + system) of the whole process, of the calling thread, and
// of another thread of this process.
inline double process_cpu_s() noexcept {
  return clock_s(CLOCK_PROCESS_CPUTIME_ID);
}
inline double thread_cpu_s() noexcept { return clock_s(CLOCK_THREAD_CPUTIME_ID); }
inline double thread_cpu_s(pthread_t thread) noexcept {
  clockid_t id{};
  if (pthread_getcpuclockid(thread, &id) != 0) return 0.0;
  return clock_s(id);
}

// Voluntary plus involuntary context switches of the process so far.
inline std::int64_t context_switches() noexcept {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_nvcsw + ru.ru_nivcsw;
}
inline double peak_rss_mb() noexcept {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// CPUs this process may run on, ascending, and pinning of the calling
// thread to one of them (a no-op when the list is empty). The benchmark
// gives every thread it owns a CPU of its own: on a virtual machine a
// request that wakes an idle CPU pays several microseconds more than one
// served on the waker's CPU, and leaving placement to the scheduler flips
// runs between the two cases.
std::vector<int> allowed_cpus();
void pin_this_thread(const std::vector<int>& cpus, std::size_t slot);

// Heap allocations made by the calling thread so far (counted by the
// replacement operator new in util.cc).
std::uint64_t thread_allocs() noexcept;

// Raw latency samples in nanoseconds with a fixed capacity reserved up
// front, so recording in a timed loop never allocates. Samples past the
// capacity are not kept; callers reserve for 200k operations per second.
class Samples {
 public:
  Samples() = default;
  explicit Samples(std::size_t capacity) {
    v_.reserve(capacity);
    windows_.reserve(1024);
    window_end_ns_.reserve(1024);
  }
  void record(std::int64_t ns) noexcept {
    if (v_.size() < v_.capacity()) {
      v_.push_back(static_cast<std::uint32_t>(std::min<std::int64_t>(
          std::max<std::int64_t>(ns, 0), UINT32_MAX)));
    }
  }
  // Reporting windows: the first starts at `start`, each mark_window ends
  // the current one at `end_ns` and starts the next.
  void start(std::int64_t ns) noexcept { start_ns_ = ns; }
  void mark_window(std::int64_t end_ns) {
    windows_.push_back(v_.size());
    window_end_ns_.push_back(end_ns);
  }
  std::size_t size() const noexcept { return v_.size(); }
  const std::vector<std::uint32_t>& raw() const noexcept { return v_; }
  const std::vector<std::size_t>& windows() const noexcept { return windows_; }
  // Wall seconds of window w.
  double window_s(std::size_t w) const noexcept {
    const std::int64_t begin = w == 0 ? start_ns_ : window_end_ns_[w - 1];
    return static_cast<double>(window_end_ns_[w] - begin) * 1e-9;
  }

 private:
  std::vector<std::uint32_t> v_;
  std::vector<std::size_t> windows_;
  std::vector<std::int64_t> window_end_ns_;
  std::int64_t start_ns_ = 0;
};

// Exact order statistic (nearest rank) of `v`, in microseconds; v is
// reordered. 0 for an empty set.
double percentile_us(std::vector<std::uint32_t>& v, double q);
double mean_us(const std::vector<std::uint32_t>& v);
double median(std::vector<double> v);

// Latency summary of one sample set: p50, p99, p99.9 and how many samples
// lie beyond each (the support behind the percentile).
struct LatencySummary {
  std::size_t count = 0;
  double mean_us = 0, p50_us = 0, p99_us = 0, p999_us = 0, max_us = 0;
  std::size_t beyond_p99 = 0, beyond_p999 = 0;
  // Medians over the one-second windows of each window's p50, p99 and
  // sample rate (summed over the parts): the gated figures, robust to a
  // few slow seconds on a shared host.
  double window_p50_us = 0, window_p99_us = 0, window_rate = 0;
  std::size_t windows = 0;
};
// Summary over several sample sets recorded side by side (one per
// generator thread); window w merges window w of every part.
LatencySummary summarize(const std::vector<const Samples*>& parts);
inline LatencySummary summarize(const Samples& s) { return summarize({&s}); }

// Metrics printed by one run, in insertion order, with units.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (index_.count(name) == 0) {
      index_[name] = entries_.size();
      entries_.push_back({name, value, unit});
    } else {
      entries_[index_[name]] = {name, value, unit};
    }
  }
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  const std::vector<Entry>& entries() const noexcept { return entries_; }

 private:
  std::vector<Entry> entries_;
  std::map<std::string, std::size_t> index_;
};

std::string json_number(double v);
std::string json_string(const std::string& s);

}  // namespace pb
