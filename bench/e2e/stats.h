// Order statistics for the end-to-end benchmark: nearest-rank
// percentiles over integer virtual-time samples, medians of wall-clock
// figures, and the completion-gap ("time without service") statistic.

#ifndef CONSENSUS40_BENCH_E2E_STATS_H_
#define CONSENSUS40_BENCH_E2E_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/simulation.h"

namespace consensus40::e2e {

/// Nearest-rank percentile (q in (0, 1]) of `v`; 0 for an empty sample.
/// Sorts `v` in place, so repeated calls on one vector are cheap.
inline int64_t Percentile(std::vector<int64_t>* v, double q) {
  if (v->empty()) return 0;
  if (!std::is_sorted(v->begin(), v->end())) std::sort(v->begin(), v->end());
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v->size())));
  rank = std::clamp<size_t>(rank, 1, v->size());
  return (*v)[rank - 1];
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank lower quartile (the minimum below four values).
inline double LowerQuartile(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(std::ceil(0.25 * static_cast<double>(v.size())));
  return v[std::max<size_t>(rank, 1) - 1];
}

inline double Mean(const std::vector<int64_t>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (int64_t x : v) sum += static_cast<double>(x);
  return sum / static_cast<double>(v.size());
}

/// Longest stretch of [from, to] with no op completion. `completions`
/// holds completion times in nondecreasing order; the window's edges
/// count as boundaries, so a window with no completion at all is one
/// gap of its full length.
inline sim::Duration LongestGap(const std::vector<sim::Time>& completions,
                                sim::Time from, sim::Time to) {
  auto it = std::lower_bound(completions.begin(), completions.end(), from);
  sim::Time prev = from;
  sim::Duration longest = 0;
  for (; it != completions.end() && *it <= to; ++it) {
    longest = std::max(longest, *it - prev);
    prev = *it;
  }
  return std::max(longest, to - prev);
}

}  // namespace consensus40::e2e

#endif  // CONSENSUS40_BENCH_E2E_STATS_H_
