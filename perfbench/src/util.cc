#include "util.h"

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace pb {
namespace {
// Plain integer with static zero-initialisation: safe to touch from
// operator new on any thread at any point of its life.
thread_local std::uint64_t t_allocs = 0;
}  // namespace

std::uint64_t thread_allocs() noexcept { return t_allocs; }

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return out;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
  }
  return out;
}

void pin_this_thread(const std::vector<int>& cpus, std::size_t slot) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[slot % cpus.size()], &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

double percentile_us(std::vector<std::uint32_t>& v, double q) {
  if (v.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  if (rank > v.size()) rank = v.size();
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return static_cast<double>(v[rank - 1]) / 1000.0;
}

double mean_us(const std::vector<std::uint32_t>& v) {
  if (v.empty()) return 0.0;
  double sum = 0;
  for (std::uint32_t x : v) sum += x;
  return sum / static_cast<double>(v.size()) / 1000.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

LatencySummary summarize(const std::vector<const Samples*>& parts) {
  LatencySummary out;
  std::vector<std::uint32_t> v;
  std::size_t n_windows = SIZE_MAX;
  for (const Samples* p : parts) {
    v.insert(v.end(), p->raw().begin(), p->raw().end());
    n_windows = std::min(n_windows, p->windows().size());
  }
  out.count = v.size();
  if (v.empty()) return out;
  out.mean_us = mean_us(v);
  out.p50_us = percentile_us(v, 0.50);
  out.p99_us = percentile_us(v, 0.99);
  out.p999_us = percentile_us(v, 0.999);
  out.max_us = static_cast<double>(*std::max_element(v.begin(), v.end())) / 1000.0;
  const auto beyond = [&](double us) {
    const auto ns = static_cast<std::uint32_t>(us * 1000.0);
    return static_cast<std::size_t>(
        std::count_if(v.begin(), v.end(), [ns](std::uint32_t x) { return x > ns; }));
  };
  out.beyond_p99 = beyond(out.p99_us);
  out.beyond_p999 = beyond(out.p999_us);

  std::vector<double> window_p50, window_p99, window_rate;
  for (std::size_t w = 0; w < n_windows; ++w) {
    std::vector<std::uint32_t> merged;
    double rate = 0;
    for (const Samples* p : parts) {
      const std::size_t begin = w == 0 ? 0 : p->windows()[w - 1];
      const std::size_t end = p->windows()[w];
      merged.insert(merged.end(), p->raw().begin() + static_cast<std::ptrdiff_t>(begin),
                    p->raw().begin() + static_cast<std::ptrdiff_t>(end));
      rate += static_cast<double>(end - begin) / p->window_s(w);
    }
    if (merged.empty()) continue;
    window_p50.push_back(percentile_us(merged, 0.50));
    window_p99.push_back(percentile_us(merged, 0.99));
    window_rate.push_back(rate);
  }
  out.windows = window_p99.size();
  if (window_p99.empty()) {
    out.window_p50_us = out.p50_us;
    out.window_p99_us = out.p99_us;
  } else {
    out.window_p50_us = median(window_p50);
    out.window_p99_us = median(window_p99);
    out.window_rate = median(window_rate);
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

}  // namespace pb

// Replacement global allocation functions: count each allocation on the
// allocating thread so the traced run can report allocations per request.
// The remaining forms (array, nothrow, sized delete) forward to these two.
void* operator new(std::size_t n) {
  ++pb::t_allocs;
  if (n == 0) n = 1;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
