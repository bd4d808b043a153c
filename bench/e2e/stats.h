// Order statistics shared by the benchmark's reports.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace mbf::e2e {

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Quartiles q1 and q3 by Python's statistics.quantiles(v, n=4)
/// ("exclusive" method), the definition the spread checks use.
inline void quartiles(std::vector<double> v, double& q1, double& q3) {
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  if (ld == 0) {
    q1 = q3 = 0.0;
    return;
  }
  if (ld == 1) {
    q1 = q3 = v[0];
    return;
  }
  const long m = ld + 1;
  double q[2] = {0.0, 0.0};
  for (long i = 1; i <= 3; i += 2) {
    long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[i / 2] = (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
               4.0;
  }
  q1 = q[0];
  q3 = q[1];
}

/// Nearest-rank percentile (0 < p <= 100) of a non-empty sample.
inline double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(v.size()))));
  return v[std::min(rank, v.size()) - 1];
}

}  // namespace mbf::e2e
