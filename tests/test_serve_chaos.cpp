// Deterministic chaos harness for the serving stack.
//
// Sweeps >= 32 seeded random fault plans (sim/chaos.hpp) against a loadgen
// trace driven through the API front door with recovery enabled, asserting
// the four serving-resilience invariants on every seed:
//
//   1. no hang — every run terminates (the virtual clock always advances;
//      ctest's timeout is the backstop);
//   2. exactly one terminal outcome per request — one completion or one
//      typed error, never zero, never two;
//   3. no lost or duplicated token streams — each request's TokenEvents
//      carry contiguous indices 0..n-1 exactly once and match the terminal
//      record, and requests completed under chaos produce the same token
//      values as the fault-free run;
//   4. same seed, same bytes — replaying a seed yields a byte-identical
//      serialized event stream.
//
// A second sweep aims the full fault taxonomy (crashes, stragglers, link
// degradation, drops, duplicates, corruption) at the distributed-prefill
// ring through resilient_distributed_prefill and asserts the retried result
// is bit-identical to a fault-free prefill at the final ring size.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "api/loadgen.hpp"
#include "api/parser.hpp"
#include "api/server.hpp"
#include "serve/resilience.hpp"
#include "sim/chaos.hpp"
#include "sim/cluster.hpp"

namespace burst::api {
namespace {

constexpr int kSeeds = 32;

model::ModelConfig serve_toy() {
  model::ModelConfig cfg = model::ModelConfig::toy();
  cfg.kv_heads = 2;
  cfg.use_rope = true;
  return cfg;
}

const model::ModelWeights& toy_weights() {
  static const model::ModelWeights w =
      model::ModelWeights::init(serve_toy(), 73);
  return w;
}

/// Serializes everything it sees into one byte stream (for the same-seed
/// replay check) while keeping the structured records for the per-request
/// invariants.
class RecordingSink : public ResponseSink {
 public:
  void on_token(const TokenEvent& e) override {
    stream << "T " << to_json(e) << "\n";
    tokens.push_back(e);
  }
  void on_complete(const CompletionResponse& r) override {
    stream << "C " << to_json(r) << "\n";
    completions.push_back(r);
  }
  void on_error(std::int64_t id, const ApiError& e) override {
    stream << "E " << id << " " << to_json(e) << "\n";
    errors.emplace_back(id, e);
  }

  void clear_records() {
    tokens.clear();
    completions.clear();
    errors.clear();
  }

  std::ostringstream stream;
  std::vector<TokenEvent> tokens;
  std::vector<CompletionResponse> completions;
  std::vector<std::pair<std::int64_t, ApiError>> errors;
};

/// Small bursty multi-tenant trace; deterministic in its seed.
std::vector<GeneratedRequest> chaos_trace() {
  LoadGenConfig lg;
  lg.seed = 4242;
  lg.requests = 12;
  lg.rate_rps = 2e4;  // arrivals land inside the short toy-model makespan
  lg.tenants = 3;
  lg.prompt_log_mean = 2.7;  // median ~15 tokens
  lg.prompt_min = 4;
  lg.prompt_max = 48;
  lg.output_log_mean = 1.4;
  lg.output_min = 1;
  lg.output_max = 8;
  return LoadGen(lg).generate();
}

std::int64_t submit_trace(ApiServer& server, RecordingSink* sink) {
  std::int64_t n = 0;
  for (const GeneratedRequest& g : chaos_trace()) {
    CompletionRequest req;
    req.tenant = "t" + std::to_string(g.tenant);
    req.priority = g.priority;
    req.prompt = LoadGen::materialize_prompt(g.prompt_seed, g.prompt_len,
                                             serve_toy().vocab);
    req.max_tokens = g.max_tokens;
    const std::int64_t id = server.submit(g.arrival_s, std::move(req), sink);
    EXPECT_EQ(id, n);
    ++n;
  }
  return n;
}

ApiServerConfig chaos_server_config(double default_timeout_s) {
  ApiServerConfig cfg;
  cfg.engine.block_tokens = 8;
  cfg.engine.sched.policy = serve::BatchPolicy::kSlo;
  cfg.engine.sched.token_budget = 32;
  cfg.engine.sched.chunk_tokens = 16;
  cfg.engine.default_timeout_s = default_timeout_s;
  cfg.engine.shed_high = 8;
  return cfg;
}

/// Validates invariants 2 and 3 for one run; returns the tokens of every
/// completed request by id.
std::map<std::int64_t, std::vector<std::int64_t>> check_streams(
    const RecordingSink& sink, std::int64_t n, const std::string& tag) {
  // Invariant 2: exactly one terminal event per submitted id.
  std::map<std::int64_t, int> terminals;
  for (const auto& c : sink.completions) {
    ++terminals[c.request_id];
  }
  for (const auto& [id, err] : sink.errors) {
    ++terminals[id];
  }
  for (std::int64_t id = 0; id < n; ++id) {
    EXPECT_EQ(terminals[id], 1) << tag << ": request " << id;
  }
  EXPECT_EQ(static_cast<std::int64_t>(terminals.size()), n) << tag;

  // Invariant 3: per-id token indices are contiguous and unique.
  std::map<std::int64_t, std::vector<std::int64_t>> by_id;
  for (const auto& t : sink.tokens) {
    auto& seq = by_id[t.request_id];
    EXPECT_EQ(t.index, static_cast<std::int64_t>(seq.size()))
        << tag << ": request " << t.request_id;
    seq.push_back(t.token);
  }
  std::map<std::int64_t, std::vector<std::int64_t>> completed;
  for (const auto& c : sink.completions) {
    EXPECT_EQ(by_id[c.request_id], c.tokens) << tag << ": request "
                                             << c.request_id;
    completed[c.request_id] = c.tokens;
  }
  return completed;
}

TEST(ServeChaos, SweepHoldsInvariantsAcrossSeeds) {
  // Fault-free reference: outcome stream + makespan to scale fault times.
  RecordingSink ref_sink;
  ApiServer ref(serve_toy(), toy_weights(), chaos_server_config(
                                                /*default_timeout_s=*/1e9));
  const std::int64_t n = submit_trace(ref, &ref_sink);
  const auto ref_report = ref.run();
  const auto ref_tokens = check_streams(ref_sink, n, "fault-free");
  const double makespan = ref_report.metrics.makespan_s;
  ASSERT_GT(makespan, 0.0);
  EXPECT_GT(ref_report.completed, 0);

  sim::ChaosSpec spec;
  spec.world = 1;
  spec.horizon_s = makespan;

  std::int64_t total_recoveries = 0;
  std::int64_t total_degraded = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const std::string tag = "seed " + std::to_string(seed);
    ApiServerConfig cfg = chaos_server_config(50.0 * makespan);
    cfg.resilience.faults = sim::make_chaos_plan(seed, spec);
    cfg.resilience.checkpoint_every = 3;
    cfg.resilience.breaker_cooldown_s = 0.1 * makespan;

    RecordingSink sink;
    ApiServer server(serve_toy(), toy_weights(), cfg);
    ASSERT_EQ(submit_trace(server, &sink), n);

    const auto report = server.run();  // invariant 1: this returns
    const auto completed = check_streams(sink, n, tag);
    EXPECT_EQ(report.completed + report.rejected + report.timed_out +
                  report.shed + report.failed_fast,
              n)
        << tag;
    total_recoveries += static_cast<std::int64_t>(report.recoveries.size());
    total_degraded += report.timed_out + report.shed + report.failed_fast;

    // Invariant 3b: a request completed under chaos and fault-free got the
    // exact same tokens — recovery replay never changes values.
    for (const auto& [id, toks] : completed) {
      const auto it = ref_tokens.find(id);
      if (it != ref_tokens.end()) {
        EXPECT_EQ(toks, it->second) << tag << ": request " << id;
      }
    }

    // Invariant 4: replaying the same seed is byte-identical.
    const std::string first = sink.stream.str();
    sink.clear_records();
    const auto replay_report = server.run();
    const std::string both = sink.stream.str();
    ASSERT_GE(both.size(), first.size()) << tag;
    EXPECT_EQ(both.substr(first.size()), first) << tag;
    EXPECT_EQ(replay_report.completed, report.completed) << tag;
    check_streams(sink, n, tag + " (replay)");
  }
  // The sweep actually exercised the fault machinery: across 32 seeded
  // plans at least some crashes recovered (crash_prob = 0.5).
  EXPECT_GT(total_recoveries, 0);
  (void)total_degraded;  // diagnostic; plans need not degrade every run
}

TEST(ServeChaos, DistPrefillSweepSurvivesFullTaxonomy) {
  const model::ModelConfig cfg = serve_toy();
  const auto prompt = api::LoadGen::materialize_prompt(77, 32, cfg.vocab);

  // Fault-free reference makespan at world 4 scales the fault times; the
  // reference result at each possible final world is the parity oracle.
  sim::Cluster probe({sim::Topology::single_node(4)});
  serve::distributed_prefill(probe, cfg, toy_weights(), prompt, 8);
  const double makespan = probe.makespan();

  std::map<int, std::int64_t> first_token_at_world;
  for (const int world : {1, 2, 4}) {
    sim::Cluster clean({sim::Topology::single_node(world)});
    first_token_at_world[world] =
        serve::distributed_prefill(clean, cfg, toy_weights(), prompt, 8)
            .first_token;
  }

  sim::ChaosSpec spec;
  spec.world = 4;
  spec.horizon_s = 1.2 * makespan;

  serve::PrefillRetryConfig retry;
  retry.max_attempts = 8;

  int total_retries = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const std::string tag = "seed " + std::to_string(seed);
    sim::Cluster::Config cc;
    cc.topo = sim::Topology::single_node(4);
    cc.faults = sim::make_chaos_plan(seed, spec);

    const serve::ResilientPrefillResult out =
        serve::resilient_distributed_prefill(cc, cfg, toy_weights(), prompt,
                                             8, kernels::MaskSpec::causal(),
                                             retry);
    ASSERT_EQ(out.result.cache.len(), 32) << tag;
    ASSERT_TRUE(first_token_at_world.count(out.final_world)) << tag;
    EXPECT_EQ(out.result.first_token, first_token_at_world[out.final_world])
        << tag;
    EXPECT_EQ(out.failure_codes.size(),
              static_cast<std::size_t>(out.attempts - 1))
        << tag;
    total_retries += out.attempts - 1;

    // Same seed, same behaviour: the whole retry history replays exactly.
    const serve::ResilientPrefillResult again =
        serve::resilient_distributed_prefill(cc, cfg, toy_weights(), prompt,
                                             8, kernels::MaskSpec::causal(),
                                             retry);
    EXPECT_EQ(again.attempts, out.attempts) << tag;
    EXPECT_EQ(again.final_world, out.final_world) << tag;
    EXPECT_EQ(again.wasted_s, out.wasted_s) << tag;
    EXPECT_EQ(again.failure_codes, out.failure_codes) << tag;
    EXPECT_EQ(again.result.first_token, out.result.first_token) << tag;
  }
  EXPECT_GT(total_retries, 0);  // the taxonomy actually bit
}

// FNV-1a 64 over a value's bytes, chained through `h`.
template <typename T>
void fnv_mix(std::uint64_t& h, const T& v) {
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  for (const unsigned char b : bytes) {
    h = (h ^ b) * 0x100000001b3ULL;
  }
}

// Every field of every fault in `plan`, in declaration order.
void fnv_mix_plan(std::uint64_t& h, const sim::FaultPlan& plan) {
  fnv_mix(h, plan.crashes.size());
  for (const auto& c : plan.crashes) {
    fnv_mix(h, c.rank);
    fnv_mix(h, c.at_time_s);
    fnv_mix(h, c.at_step);
  }
  fnv_mix(h, plan.stragglers.size());
  for (const auto& s : plan.stragglers) {
    fnv_mix(h, s.rank);
    fnv_mix(h, s.slowdown);
    fnv_mix(h, s.from_time_s);
  }
  fnv_mix(h, plan.degradations.size());
  for (const auto& d : plan.degradations) {
    fnv_mix(h, d.src);
    fnv_mix(h, d.dst);
    fnv_mix(h, d.from_time_s);
    fnv_mix(h, d.until_time_s);
    fnv_mix(h, d.bandwidth_factor);
    fnv_mix(h, d.extra_latency_s);
  }
  const auto mix_budgets = [&h](const auto& faults) {
    fnv_mix(h, faults.size());
    for (const auto& f : faults) {
      fnv_mix(h, f.src);
      fnv_mix(h, f.dst);
      fnv_mix(h, f.count);
      fnv_mix(h, f.from_time_s);
    }
  };
  mix_budgets(plan.drops);
  mix_budgets(plan.duplicates);
  mix_budgets(plan.corruptions);
}

// make_chaos_plan's inclusion probabilities and per-category bounds are
// constants of the generator. These hashes pin its output for seeds 0-15 on
// one device and on four, plus a 1024-seed sweep on four: sixteen draws
// rarely land between a probability's old and new value, a thousand do. So
// changing any of those constants, or the draw order, fails here.
TEST(ChaosPlan, SeedsMatchPinnedHashes) {
  struct Pin {
    int world;
    std::uint64_t seeds;
    std::uint64_t hash;
  };
  const Pin pins[] = {{1, 16, 0x32e499e6a815fd7bULL},
                      {4, 16, 0x56d00eb0ce433011ULL},
                      {4, 1024, 0xb3791a5adfe41d8eULL}};
  for (const Pin& pin : pins) {
    sim::ChaosSpec spec;
    spec.world = pin.world;
    spec.horizon_s = 0.25;
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint64_t seed = 0; seed < pin.seeds; ++seed) {
      fnv_mix_plan(h, sim::make_chaos_plan(seed, spec));
    }
    EXPECT_EQ(h, pin.hash) << "world " << pin.world << ", " << pin.seeds
                           << " seeds";
  }
}

}  // namespace
}  // namespace burst::api
