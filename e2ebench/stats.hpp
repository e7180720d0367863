#pragma once

// Order statistics, process counters and the check log shared by the
// benchmark phases.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

namespace e2e {

/// Failed correctness checks, counted against the checks attempted.
struct CheckLog {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    failures.push_back(what);
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
};

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1e3;
}

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Median as the mean of the two middle values for even sizes.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

/// Peak resident set size of this process so far, in MB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace e2e
