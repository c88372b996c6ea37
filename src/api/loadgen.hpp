// Trace-driven load generator for the serving front door.
//
// Models the statistics production API traffic actually has, not the
// uniform workloads toy benches use:
//
//   * Open-loop arrivals — requests arrive on a schedule independent of the
//     server's progress (a closed loop hides overload, because a slow server
//     throttles its own offered load). The arrival process is a two-state
//     MMPP: a calm Poisson process that occasionally jumps to a burst state
//     with `burst_rate_multiplier`× the rate, giving the bursty arrivals the
//     admission-control and SLO machinery exist for.
//   * Heavy-tailed sizes — prompt and output lengths are lognormal (clamped
//     to [min, max]), matching the long-tail length distributions reported
//     for production LLM traces; mean >> median, so a token-budget scheduler
//     sees rare huge requests among many small ones.
//   * Skewed tenancy — tenant identity is Zipf-distributed over `tenants`
//     simulated tenants (a few heavy hitters, a long tail of occasional
//     users), which is what makes weighted-fair queueing measurable.
//
// Everything derives from one tensor::Rng stream: the same LoadGenConfig
// always generates byte-identical workloads, on any machine.
#pragma once

#include <cstdint>
#include <vector>

#include "api/types.hpp"

namespace burst::api {

struct LoadGenConfig {
  std::uint64_t seed = 2025;
  std::int64_t requests = 256;
  /// Mean arrival rate in the calm state, requests per virtual second.
  double rate_rps = 100.0;
  /// Burst state arrival rate = rate_rps * burst_rate_multiplier.
  double burst_rate_multiplier = 8.0;
  /// Per-arrival probability of entering the burst state (a burst ends
  /// with probability 0.25 per arrival).
  double burst_start_prob = 0.05;
  /// Number of simulated tenants; identity ~ Zipf(s = 1.1).
  std::int64_t tenants = 1000;
  /// Lognormal prompt length: exp(N(log_mean, log_sigma^2)), clamped.
  double prompt_log_mean = 3.7;  // median ~40 tokens
  double prompt_log_sigma = 0.6;
  std::int64_t prompt_min = 4;
  std::int64_t prompt_max = 512;
  /// Lognormal output length, clamped.
  double output_log_mean = 2.3;  // median ~10 tokens
  double output_log_sigma = 0.7;
  std::int64_t output_min = 1;
  std::int64_t output_max = 256;
  /// Priority mix; the remainder is kStandard.
  double p_interactive = 0.2;
  double p_batch = 0.3;
  /// TTFT SLO attached per priority class; <= 0 means no target. Batch
  /// requests never carry one.
  double ttft_slo_interactive_s = 0.0;
  double ttft_slo_standard_s = 0.0;
};

/// One generated request, pre-tokenization: the prompt is materialized
/// lazily from `prompt_seed` so traces stay cheap to generate and compare.
struct GeneratedRequest {
  double arrival_s = 0.0;
  std::int64_t tenant = 0;  // in [0, cfg.tenants)
  Priority priority = Priority::kStandard;
  std::int64_t prompt_len = 0;
  std::int64_t max_tokens = 0;
  double ttft_slo_s = 0.0;  // <= 0 means no target
  std::uint64_t prompt_seed = 0;
};

class LoadGen {
 public:
  explicit LoadGen(LoadGenConfig cfg);

  /// The full trace, sorted by arrival time. Deterministic in cfg.seed.
  std::vector<GeneratedRequest> generate() const;

  /// Expands a GeneratedRequest's prompt into concrete token ids.
  static std::vector<std::int64_t> materialize_prompt(std::uint64_t seed,
                                                      std::int64_t len,
                                                      std::int64_t vocab);

  const LoadGenConfig& config() const { return cfg_; }

 private:
  LoadGenConfig cfg_;
  std::vector<double> tenant_cdf_;  // Zipf CDF over tenant ids
};

/// Jain's fairness index over per-entity allocations:
/// (sum x)^2 / (n * sum x^2). 1.0 = perfectly equal, 1/n = one entity owns
/// everything. Empty or all-zero input returns 0.
double jain_fairness_index(const std::vector<double>& xs);

}  // namespace burst::api
