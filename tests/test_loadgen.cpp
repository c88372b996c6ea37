// Trace-driven load generator: determinism, arrival-process shape,
// heavy-tailed lengths, Zipf tenancy, priority mix, and the Jain index.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <stdexcept>
#include <vector>

#include "api/loadgen.hpp"

namespace burst::api {
namespace {

LoadGenConfig big_config() {
  LoadGenConfig cfg;
  cfg.seed = 7;
  cfg.requests = 4000;
  cfg.rate_rps = 100.0;
  cfg.tenants = 100;
  cfg.ttft_slo_interactive_s = 0.1;
  cfg.ttft_slo_standard_s = 0.5;
  return cfg;
}

TEST(LoadGen, SameSeedSameTrace) {
  const auto a = LoadGen(big_config()).generate();
  const auto b = LoadGen(big_config()).generate();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_s, b[i].arrival_s);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].priority, b[i].priority);
    EXPECT_EQ(a[i].prompt_len, b[i].prompt_len);
    EXPECT_EQ(a[i].max_tokens, b[i].max_tokens);
    EXPECT_EQ(a[i].ttft_slo_s, b[i].ttft_slo_s);
    EXPECT_EQ(a[i].prompt_seed, b[i].prompt_seed);
  }
}

TEST(LoadGen, DifferentSeedDifferentTrace) {
  LoadGenConfig other = big_config();
  other.seed = 8;
  const auto a = LoadGen(big_config()).generate();
  const auto b = LoadGen(other).generate();
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size() && !any_diff; ++i) {
    any_diff = a[i].arrival_s != b[i].arrival_s;
  }
  EXPECT_TRUE(any_diff);
}

// Open-loop MMPP: arrivals are sorted, and the mean rate sits between the
// calm rate and the burst rate (the process mixes the two states).
TEST(LoadGen, ArrivalRateBetweenCalmAndBurst) {
  const LoadGenConfig cfg = big_config();
  const auto trace = LoadGen(cfg).generate();
  ASSERT_EQ(trace.size(), 4000u);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GE(trace[i].arrival_s, trace[i - 1].arrival_s);
  }
  const double span = trace.back().arrival_s;
  ASSERT_GT(span, 0.0);
  const double rate = static_cast<double>(trace.size()) / span;
  EXPECT_GT(rate, cfg.rate_rps);  // bursts push above the calm rate
  EXPECT_LT(rate, cfg.rate_rps * cfg.burst_rate_multiplier);
}

// Lognormal lengths: bounded by the clamps and heavy-tailed (sample mean
// well above sample median).
TEST(LoadGen, LengthsAreClampedAndHeavyTailed) {
  const LoadGenConfig cfg = big_config();
  const auto trace = LoadGen(cfg).generate();
  std::vector<std::int64_t> prompts;
  double sum = 0.0;
  for (const auto& r : trace) {
    EXPECT_GE(r.prompt_len, cfg.prompt_min);
    EXPECT_LE(r.prompt_len, cfg.prompt_max);
    EXPECT_GE(r.max_tokens, cfg.output_min);
    EXPECT_LE(r.max_tokens, cfg.output_max);
    prompts.push_back(r.prompt_len);
    sum += static_cast<double>(r.prompt_len);
  }
  std::sort(prompts.begin(), prompts.end());
  const double mean = sum / static_cast<double>(prompts.size());
  const double median = static_cast<double>(prompts[prompts.size() / 2]);
  EXPECT_GT(mean, 1.05 * median);
}

// Zipf tenancy: a few heavy hitters dominate while the tail stays long.
TEST(LoadGen, TenantsAreZipfSkewed) {
  const LoadGenConfig cfg = big_config();
  const auto trace = LoadGen(cfg).generate();
  std::map<std::int64_t, std::int64_t> counts;
  for (const auto& r : trace) {
    ASSERT_GE(r.tenant, 0);
    ASSERT_LT(r.tenant, cfg.tenants);
    counts[r.tenant] += 1;
  }
  EXPECT_GT(counts.size(), 30u);  // long tail actually shows up
  std::vector<std::int64_t> by_count;
  for (const auto& [tenant, n] : counts) {
    by_count.push_back(n);
  }
  std::sort(by_count.rbegin(), by_count.rend());
  std::int64_t top10 = 0;
  for (std::size_t i = 0; i < 10 && i < by_count.size(); ++i) {
    top10 += by_count[i];
  }
  // With s = 1.1 over 100 tenants the top decile carries most traffic.
  EXPECT_GT(static_cast<double>(top10),
            0.5 * static_cast<double>(trace.size()));
  // Heaviest tenant is (statistically certainly) tenant 0.
  EXPECT_EQ(std::max_element(counts.begin(), counts.end(),
                             [](const auto& a, const auto& b) {
                               return a.second < b.second;
                             })
                ->first,
            0);
}

TEST(LoadGen, PriorityMixAndSlosMatchConfig) {
  const LoadGenConfig cfg = big_config();
  const auto trace = LoadGen(cfg).generate();
  double n_inter = 0.0;
  double n_batch = 0.0;
  for (const auto& r : trace) {
    if (r.priority == Priority::kInteractive) {
      n_inter += 1.0;
      EXPECT_EQ(r.ttft_slo_s, cfg.ttft_slo_interactive_s);
    } else if (r.priority == Priority::kBatch) {
      n_batch += 1.0;
      EXPECT_LE(r.ttft_slo_s, 0.0);  // batch requests carry no TTFT target
    } else {
      EXPECT_EQ(r.ttft_slo_s, cfg.ttft_slo_standard_s);
    }
  }
  const double n = static_cast<double>(trace.size());
  EXPECT_NEAR(n_inter / n, cfg.p_interactive, 0.05);
  EXPECT_NEAR(n_batch / n, cfg.p_batch, 0.05);
}

TEST(LoadGen, MaterializedPromptsAreDeterministicAndInVocab) {
  const auto a = LoadGen::materialize_prompt(99, 64, 1000);
  const auto b = LoadGen::materialize_prompt(99, 64, 1000);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 64u);
  for (const auto tok : a) {
    EXPECT_GE(tok, 0);
    EXPECT_LT(tok, 1000);
  }
  const auto c = LoadGen::materialize_prompt(100, 64, 1000);
  EXPECT_NE(a, c);
}

TEST(LoadGen, RejectsBadConfig) {
  LoadGenConfig cfg;
  cfg.rate_rps = 0.0;
  EXPECT_THROW(LoadGen{cfg}, std::invalid_argument);
  cfg = LoadGenConfig{};
  cfg.p_interactive = 0.8;
  cfg.p_batch = 0.5;  // mix sums past 1
  EXPECT_THROW(LoadGen{cfg}, std::invalid_argument);
  cfg = LoadGenConfig{};
  cfg.prompt_min = 0;
  EXPECT_THROW(LoadGen{cfg}, std::invalid_argument);
}

TEST(JainIndex, KnownValues) {
  EXPECT_DOUBLE_EQ(jain_fairness_index({1.0, 1.0, 1.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness_index({1.0, 0.0, 0.0, 0.0}), 0.25);
  EXPECT_DOUBLE_EQ(jain_fairness_index({}), 0.0);
  EXPECT_DOUBLE_EQ(jain_fairness_index({0.0, 0.0}), 0.0);
  const double mid = jain_fairness_index({2.0, 1.0});
  EXPECT_GT(mid, 0.25);
  EXPECT_LT(mid, 1.0);
}

// FNV-1a 64 over every field of every generated request, in trace order.
std::uint64_t trace_fnv(const std::vector<GeneratedRequest>& trace) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const auto& v) {
    unsigned char bytes[sizeof(v)];
    std::memcpy(bytes, &v, sizeof(v));
    for (const unsigned char b : bytes) {
      h = (h ^ b) * 0x100000001b3ULL;
    }
  };
  for (const auto& r : trace) {
    mix(r.arrival_s);
    mix(r.tenant);
    mix(static_cast<int>(r.priority));
    mix(r.prompt_len);
    mix(r.max_tokens);
    mix(r.ttft_slo_s);
    mix(r.prompt_seed);
  }
  return h;
}

// The burst-exit probability, the tenant Zipf exponent and the batch class's
// missing TTFT target are constants of the generator. These hashes pin the
// default trace and a bursty, many-tenant one with per-class targets, so
// changing any of those constants, or the draw order, fails here.
TEST(LoadGen, TracesMatchPinnedHashes) {
  EXPECT_EQ(trace_fnv(LoadGen(LoadGenConfig{}).generate()),
            0x67e135e0911b6997ULL);

  LoadGenConfig bursty;
  bursty.seed = 11;
  bursty.requests = 2000;
  bursty.burst_rate_multiplier = 16.0;
  bursty.burst_start_prob = 0.2;
  bursty.tenants = 50;
  bursty.ttft_slo_interactive_s = 0.1;
  bursty.ttft_slo_standard_s = 0.5;
  EXPECT_EQ(trace_fnv(LoadGen(bursty).generate()), 0x2930559644454042ULL);
}

}  // namespace
}  // namespace burst::api
