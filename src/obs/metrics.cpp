#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace burst::obs {

void Histogram::observe(double v) {
  std::lock_guard lock(mu_);
  samples_.push_back(v);
}

std::uint64_t Histogram::count() const {
  std::lock_guard lock(mu_);
  return samples_.size();
}

double Histogram::sum() const {
  std::lock_guard lock(mu_);
  double s = 0.0;
  for (const double v : samples_) {
    s += v;
  }
  return s;
}

double Histogram::min() const {
  std::lock_guard lock(mu_);
  return samples_.empty() ? 0.0
                          : *std::min_element(samples_.begin(), samples_.end());
}

double Histogram::max() const {
  std::lock_guard lock(mu_);
  return samples_.empty() ? 0.0
                          : *std::max_element(samples_.begin(), samples_.end());
}

double Histogram::percentile(double q) const {
  std::lock_guard lock(mu_);
  if (samples_.empty()) {
    return 0.0;
  }
  std::vector<double> xs = samples_;
  std::sort(xs.begin(), xs.end());
  const auto n = static_cast<double>(xs.size());
  const auto i = static_cast<std::size_t>(
      std::min(n - 1.0, std::max(0.0, std::ceil(q * n) - 1.0)));
  return xs[i];
}

void Histogram::reset() {
  std::lock_guard lock(mu_);
  samples_.clear();
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard lock(mu_);
  return counters_[name];
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard lock(mu_);
  return gauges_[name];
}

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard lock(mu_);
  return histograms_[name];
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::counters() const {
  std::lock_guard lock(mu_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    out.emplace_back(name, c.value());
  }
  return out;
}

std::vector<std::pair<std::string, double>> Registry::gauges() const {
  std::lock_guard lock(mu_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    out.emplace_back(name, g.value());
  }
  return out;
}

std::vector<std::pair<std::string, HistogramSummary>> Registry::histograms()
    const {
  std::lock_guard lock(mu_);
  std::vector<std::pair<std::string, HistogramSummary>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSummary s;
    s.count = h.count();
    s.sum = h.sum();
    s.min = h.min();
    s.max = h.max();
    s.p50 = h.percentile(0.50);
    s.p99 = h.percentile(0.99);
    out.emplace_back(name, s);
  }
  return out;
}

void Registry::reset() {
  std::lock_guard lock(mu_);
  for (auto& [name, c] : counters_) {
    c.reset();
  }
  for (auto& [name, g] : gauges_) {
    g.set(0.0);
  }
  for (auto& [name, h] : histograms_) {
    h.reset();
  }
}

void Registry::merge_from(const Registry& from) {
  std::scoped_lock lock(mu_, from.mu_);
  for (const auto& [name, c] : from.counters_) {
    counters_[name].add(c.value());
  }
  for (const auto& [name, g] : from.gauges_) {
    gauges_[name].set(g.value());
  }
  for (const auto& [name, h] : from.histograms_) {
    Histogram& into = histograms_[name];
    std::scoped_lock samples_lock(into.mu_, h.mu_);
    into.samples_.insert(into.samples_.end(), h.samples_.begin(),
                         h.samples_.end());
  }
}

std::string labeled(const std::string& name, const Labels& labels) {
  if (labels.empty()) {
    return name;
  }
  std::string out = name + "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += labels[i].first + "=" + labels[i].second;
  }
  out += "}";
  return out;
}

}  // namespace burst::obs
