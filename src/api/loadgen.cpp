#include "api/loadgen.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/rng.hpp"

namespace burst::api {

namespace {

/// Per-arrival probability of leaving the burst state.
constexpr double kBurstExitProb = 0.25;
/// Zipf exponent of tenant identity: p(k) ~ 1 / (k+1)^s.
constexpr double kTenantZipfS = 1.1;

std::int64_t clamped_lognormal(tensor::Rng& rng, double log_mean,
                               double log_sigma, std::int64_t lo,
                               std::int64_t hi) {
  const double v = std::exp(log_mean + log_sigma * rng.next_gaussian());
  const auto n = static_cast<std::int64_t>(std::llround(v));
  return std::clamp(n, lo, hi);
}

}  // namespace

LoadGen::LoadGen(LoadGenConfig cfg) : cfg_(cfg) {
  if (cfg_.requests < 0 || cfg_.tenants < 1 || cfg_.rate_rps <= 0.0) {
    throw std::invalid_argument(
        "LoadGenConfig: need requests >= 0, tenants >= 1, rate_rps > 0");
  }
  if (cfg_.prompt_min < 1 || cfg_.prompt_max < cfg_.prompt_min ||
      cfg_.output_min < 1 || cfg_.output_max < cfg_.output_min) {
    throw std::invalid_argument("LoadGenConfig: bad length bounds");
  }
  if (cfg_.p_interactive < 0.0 || cfg_.p_batch < 0.0 ||
      cfg_.p_interactive + cfg_.p_batch > 1.0) {
    throw std::invalid_argument("LoadGenConfig: bad priority mix");
  }
  // Zipf CDF over tenant ids.
  tenant_cdf_.resize(static_cast<std::size_t>(cfg_.tenants));
  double total = 0.0;
  for (std::size_t k = 0; k < tenant_cdf_.size(); ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), kTenantZipfS);
    tenant_cdf_[k] = total;
  }
  for (auto& c : tenant_cdf_) {
    c /= total;
  }
}

std::vector<GeneratedRequest> LoadGen::generate() const {
  tensor::Rng rng(cfg_.seed);
  std::vector<GeneratedRequest> trace;
  trace.reserve(static_cast<std::size_t>(cfg_.requests));
  double now = 0.0;
  bool bursting = false;
  for (std::int64_t i = 0; i < cfg_.requests; ++i) {
    // MMPP arrival: exponential gap at the current state's rate, then a
    // chance to flip state. Draw order is fixed — never reorder these calls,
    // the stream layout is part of the trace format.
    const double rate = bursting ? cfg_.rate_rps * cfg_.burst_rate_multiplier
                                 : cfg_.rate_rps;
    // Inverse-CDF exponential; 1 - u keeps the argument in (0, 1].
    now += -std::log(1.0 - rng.next_uniform()) / rate;
    const double flip = rng.next_uniform();
    bursting = bursting ? (flip >= kBurstExitProb)
                        : (flip < cfg_.burst_start_prob);

    GeneratedRequest r;
    r.arrival_s = now;
    const double tu = rng.next_uniform();
    r.tenant = static_cast<std::int64_t>(
        std::lower_bound(tenant_cdf_.begin(), tenant_cdf_.end(), tu) -
        tenant_cdf_.begin());
    r.tenant = std::min(r.tenant, cfg_.tenants - 1);
    r.prompt_len = clamped_lognormal(rng, cfg_.prompt_log_mean,
                                     cfg_.prompt_log_sigma, cfg_.prompt_min,
                                     cfg_.prompt_max);
    r.max_tokens = clamped_lognormal(rng, cfg_.output_log_mean,
                                     cfg_.output_log_sigma, cfg_.output_min,
                                     cfg_.output_max);
    const double pu = rng.next_uniform();
    if (pu < cfg_.p_interactive) {
      r.priority = Priority::kInteractive;
      r.ttft_slo_s = cfg_.ttft_slo_interactive_s;
    } else if (pu < cfg_.p_interactive + cfg_.p_batch) {
      r.priority = Priority::kBatch;  // no TTFT target
    } else {
      r.priority = Priority::kStandard;
      r.ttft_slo_s = cfg_.ttft_slo_standard_s;
    }
    r.prompt_seed = rng.next_u64();
    trace.push_back(r);
  }
  return trace;
}

std::vector<std::int64_t> LoadGen::materialize_prompt(std::uint64_t seed,
                                                      std::int64_t len,
                                                      std::int64_t vocab) {
  tensor::Rng rng(seed);
  std::vector<std::int64_t> prompt(static_cast<std::size_t>(len));
  for (auto& tok : prompt) {
    tok = rng.next_index(vocab);
  }
  return prompt;
}

double jain_fairness_index(const std::vector<double>& xs) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (xs.empty() || sum_sq <= 0.0) {
    return 0.0;
  }
  return sum * sum / (static_cast<double>(xs.size()) * sum_sq);
}

}  // namespace burst::api
