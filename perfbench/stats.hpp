// Order statistics used by every workload's report.
//
//  * median / quartiles: the same definitions as Python's
//    statistics.median and statistics.quantiles(values, n=4) (the default
//    "exclusive" method), so the spreads the benchmark prints match what a
//    comparison of several runs computes.
//  * tail(): the highest of p50/p90/p99/p99.9/p99.99 that still has at least
//    ten samples beyond it (nearest-rank), or none when fewer than 20
//    samples exist. A tail is never reported from fewer samples.
//  * Breakdown: parts of a measured whole plus the explicit unattributed
//    remainder, so the parts always sum to the whole.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline double mean(const std::vector<double>& v) {
  if (v.empty()) {
    throw std::invalid_argument("mean of no samples");
  }
  double s = 0.0;
  for (double x : v) {
    s += x;
  }
  return s / static_cast<double>(v.size());
}

inline double median(std::vector<double> v) {
  if (v.empty()) {
    throw std::invalid_argument("median of no samples");
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
  /// (q3 - q1) / q2: the spread measure the benchmark bounds are set against.
  double iqr_frac() const { return q2 != 0.0 ? (q3 - q1) / q2 : 0.0; }
};

/// statistics.quantiles(v, n=4, method="exclusive"); needs >= 2 samples.
inline Quartiles quartiles(std::vector<double> v) {
  if (v.size() < 2) {
    throw std::invalid_argument("quartiles need at least two samples");
  }
  std::sort(v.begin(), v.end());
  const std::int64_t ld = static_cast<std::int64_t>(v.size());
  const std::int64_t m = ld + 1;
  double q[3] = {0.0, 0.0, 0.0};
  for (std::int64_t i = 1; i < 4; ++i) {
    std::int64_t j = i * m / 4;
    j = std::clamp<std::int64_t>(j, 1, ld - 1);
    const std::int64_t delta = i * m - j * 4;
    q[i - 1] = (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
               4.0;
  }
  return Quartiles{q[0], q[1], q[2]};
}

struct Tail {
  std::string label;  // "p50", "p90", "p99", "p99.9", "p99.99"
  double value = 0.0;
  std::int64_t beyond = 0;  // samples strictly past the reported rank
};

/// Highest supported tail percentile (see file comment).
inline std::optional<Tail> tail(std::vector<double> v) {
  static const std::pair<std::int64_t, const char*> kLevels[] = {
      {9999, "p99.99"}, {9990, "p99.9"}, {9900, "p99"}, {9000, "p90"},
      {5000, "p50"}};
  std::sort(v.begin(), v.end());
  const std::int64_t n = static_cast<std::int64_t>(v.size());
  for (const auto& [bp, label] : kLevels) {
    // Nearest rank in basis points, integer arithmetic: k = ceil(bp*n/1e4).
    const std::int64_t k = (bp * n + 9999) / 10000;
    if (k >= 1 && n - k >= 10) {
      return Tail{label, v[static_cast<std::size_t>(k - 1)], n - k};
    }
  }
  return std::nullopt;
}

/// A measured whole split into attributed parts and the remainder
/// (whole - sum(parts)); the remainder may be negative when a replayed part
/// runs slower in isolation than inside the whole.
class Breakdown {
 public:
  explicit Breakdown(double whole) : whole_(whole) {}
  void part(std::string name, double value) {
    parts_.emplace_back(std::move(name), value);
  }
  double whole() const { return whole_; }
  double attributed() const {
    double s = 0.0;
    for (const auto& p : parts_) {
      s += p.second;
    }
    return s;
  }
  double unattributed() const { return whole_ - attributed(); }
  const std::vector<std::pair<std::string, double>>& parts() const {
    return parts_;
  }

 private:
  double whole_;
  std::vector<std::pair<std::string, double>> parts_;
};

}  // namespace perfbench
