// serve_chat: a typed-ingress api::ApiServer run over a seeded api::LoadGen
// trace. Short prompts (median ~64 tokens), long outputs (median ~64, max
// 256), GQA with 4 KV heads, continuous batching. Arrivals are open loop on
// the virtual clock at a rate far above capacity; on the wall clock every
// request is submitted up front and the run goes as fast as the CPU allows.
// Decode dominated: forward_decode, flash_decode_step, the KV cache and the
// scheduler; no backward pass and no comm.
//
// One operation is one repeat of the whole trace (server construction,
// every submit, run()); each repeat replays the same accepted workload.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/loadgen.hpp"
#include "api/server.hpp"
#include "bench.hpp"
#include "kernels/flash_attention.hpp"
#include "model/kv_cache.hpp"
#include "model/transformer.hpp"
#include "obs/metrics.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "tensor/gemm.hpp"
#include "tensor/rng.hpp"

namespace perfbench {

namespace {

using burst::api::ApiServer;
using burst::api::ApiServerConfig;
using burst::api::CompletionRequest;
using burst::kernels::MaskSpec;
using burst::model::ModelConfig;
using burst::model::ModelWeights;
using burst::tensor::Tensor;

constexpr int kMinRepeats = 2;
// The trace is cut at a fixed number of output tokens, so every seed asks
// for the same decode work; requests come from a longer seeded trace in
// arrival order, and the last one kept is trimmed to the budget.
constexpr std::int64_t kOutputTokens = 1024;
constexpr std::int64_t kPromptTokens = 1024;
constexpr std::int64_t kCandidateRequests = 64;
constexpr std::int64_t kTokenBudget = 256;  // forward rows per iteration

/// FNV-1a over 64-bit words: the output digests compared across repeats.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

struct ServeState {
  ModelWeights weights;
  std::vector<CompletionRequest> requests;
  std::vector<double> arrivals;
  ApiServerConfig server_cfg;
};

burst::api::LoadGenConfig trace_config(std::uint64_t seed) {
  burst::api::LoadGenConfig lg;
  lg.seed = seed;
  lg.requests = kCandidateRequests;
  lg.rate_rps = 1e6;  // far above the engine's virtual capacity
  lg.tenants = 8;
  lg.prompt_log_mean = std::log(64.0);
  lg.prompt_log_sigma = 0.5;
  lg.prompt_min = 8;
  lg.prompt_max = 512;
  lg.output_log_mean = std::log(64.0);
  lg.output_log_sigma = 0.5;
  lg.output_min = 8;
  lg.output_max = 256;
  return lg;
}

std::unique_ptr<ServeState> make_state(const ModelConfig& cfg,
                                       std::uint64_t seed) {
  auto st = std::make_unique<ServeState>();
  st->weights = ModelWeights::init(cfg, seed);
  std::vector<burst::api::GeneratedRequest> kept;
  std::int64_t budget = kOutputTokens;
  std::int64_t prompt_total = 0;
  for (auto g : burst::api::LoadGen(trace_config(seed)).generate()) {
    if (budget == 0) {
      break;
    }
    g.max_tokens = std::min(g.max_tokens, budget);
    budget -= g.max_tokens;
    prompt_total += g.prompt_len;
    kept.push_back(g);
  }
  // Prompt lengths are scaled to sum to kPromptTokens, keeping the seeded
  // shape, so prefill work does not depend on the seed either.
  std::int64_t prompt_left = kPromptTokens;
  for (std::size_t i = 0; i < kept.size(); ++i) {
    const auto& g = kept[i];
    const std::int64_t len =
        i + 1 == kept.size()
            ? std::max<std::int64_t>(1, prompt_left)
            : std::max<std::int64_t>(1, g.prompt_len * kPromptTokens / prompt_total);
    prompt_left -= len;
    CompletionRequest r;
    r.tenant = "tenant-" + std::to_string(g.tenant);
    r.priority = g.priority;
    r.prompt = burst::api::LoadGen::materialize_prompt(g.prompt_seed, len,
                                                       cfg.vocab);
    r.max_tokens = g.max_tokens;
    st->requests.push_back(std::move(r));
    st->arrivals.push_back(g.arrival_s);
  }
  st->server_cfg.engine.sched.policy = burst::serve::BatchPolicy::kContinuous;
  st->server_cfg.engine.sched.token_budget = kTokenBudget;
  st->server_cfg.engine.sched.chunk_tokens = 64;
  st->server_cfg.engine.block_tokens = 16;
  return st;
}

struct RepeatOut {
  double wall_s = 0.0;
  std::vector<double> submit_us;
  ApiServer::Report report;
  std::vector<std::int64_t> ids;  // returned by submit, per request
  std::uint64_t digest = 0;
  std::int64_t completed = 0;
  bool one_outcome_each = true;
  std::map<std::int64_t, std::vector<std::int64_t>> tokens;  // completed only
};

RepeatOut run_repeat(const ModelConfig& cfg, const ServeState& st,
                     burst::obs::Registry& reg, SpanRecorder* rec) {
  RepeatOut out;
  ApiServerConfig scfg = st.server_cfg;
  scfg.engine.metrics = &reg;
  std::vector<CompletionRequest> reqs = st.requests;  // consumed by submit
  burst::api::CollectingSink sink;
  const double t0 = now_s();
  {
    ScopedSpan op(rec, "op.serve_trace");
    ApiServer server(cfg, st.weights, scfg);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const double s0 = now_s();
      {
        ScopedSpan s(rec, "api.submit");
        out.ids.push_back(server.submit(st.arrivals[i], std::move(reqs[i]), &sink));
      }
      out.submit_us.push_back((now_s() - s0) * 1e6);
    }
    ScopedSpan s(rec, "api.run");
    out.report = server.run();
  }
  out.wall_s = now_s() - t0;

  // Exactly one outcome per accepted request; digest of every outcome.
  std::map<std::int64_t, int> outcomes;
  for (const auto& c : sink.completions) {
    ++outcomes[c.request_id];
    out.tokens[c.request_id] = c.tokens;
  }
  for (const auto& [id, err] : sink.errors) {
    ++outcomes[id];
  }
  for (std::int64_t id : out.ids) {
    out.one_outcome_each &= id >= 0 && outcomes[id] == 1;
  }
  out.one_outcome_each &= outcomes.size() == out.ids.size();
  Digest d;
  for (const auto& [id, toks] : out.tokens) {
    d.add(static_cast<std::uint64_t>(id));
    for (std::int64_t t : toks) {
      d.add(static_cast<std::uint64_t>(t));
    }
  }
  for (const auto& [id, err] : sink.errors) {
    d.add(static_cast<std::uint64_t>(id));
    d.add(static_cast<std::uint64_t>(err.status));
  }
  out.digest = d.value();
  out.completed = static_cast<std::int64_t>(sink.completions.size());
  return out;
}

// The generated tokens of the shortest completed request equal the greedy
// argmax chain of serial_forward_logits over prompt + generated prefix.
bool greedy_matches_serial(const ModelConfig& cfg, const ServeState& st,
                           const RepeatOut& r, Result& res) {
  std::int64_t best_id = -1;
  std::size_t best_index = 0;
  std::size_t best_len = 0;
  for (std::size_t i = 0; i < r.ids.size(); ++i) {
    const auto it = r.tokens.find(r.ids[i]);
    if (it == r.tokens.end() || it->second.empty()) {
      continue;
    }
    const std::size_t len = st.requests[i].prompt.size() + it->second.size();
    if (best_id < 0 || len < best_len) {
      best_id = r.ids[i];
      best_index = i;
      best_len = len;
    }
  }
  if (best_id < 0) {
    return false;
  }
  const auto& prompt = st.requests[best_index].prompt;
  const auto& gen = r.tokens.at(best_id);
  std::vector<std::int64_t> seq = prompt;
  seq.insert(seq.end(), gen.begin(), gen.end() - 1);
  const Tensor logits = burst::model::serial_forward_logits(
      cfg, st.weights, seq.data(), static_cast<std::int64_t>(seq.size()),
      MaskSpec::causal());
  for (std::size_t i = 0; i < gen.size(); ++i) {
    const std::int64_t row = static_cast<std::int64_t>(prompt.size() + i) - 1;
    std::int64_t best = 0;
    for (std::int64_t c = 1; c < logits.cols(); ++c) {
      if (logits(row, c) > logits(row, best)) {
        best = c;
      }
    }
    if (best != gen[i]) {
      return false;
    }
  }
  res.note("greedy check: request " + std::to_string(best_id) + ", " +
           std::to_string(gen.size()) + " tokens equal the serial argmax chain");
  return true;
}

// Pool workers allocate their GEMM workspaces lazily, on the first call that
// hands them work. Whether a serving trace does so depends on its prefill
// chunk sizes, and with it the peak RSS; one FFN-shaped GEMM at the full
// token budget first makes every seed start from the same resident set.
void warm_pool(const ModelConfig& cfg, std::uint64_t seed) {
  burst::tensor::Rng rng(seed);
  burst::tensor::matmul(rng.gaussian(kTokenBudget, cfg.d_model, 1.0f),
                        rng.gaussian(cfg.d_model, cfg.d_ff, 1.0f));
}

// Median context length over every generated token of the trace.
std::int64_t median_context(const ServeState& st) {
  std::vector<double> ctx;
  for (const auto& r : st.requests) {
    const auto p = static_cast<std::int64_t>(r.prompt.size());
    for (std::int64_t i = 0; i < r.max_tokens; ++i) {
      ctx.push_back(static_cast<double>(p + i));
    }
  }
  return static_cast<std::int64_t>(median(ctx));
}

}  // namespace

void run_serve_chat(const Options& opt, Result& res) {
  const ModelConfig cfg = bench_model(/*kv_heads=*/4);
  pin_pool(opt.nproc, opt, res);
  warm_pool(cfg, opt.seed);

  std::unique_ptr<ServeState> st;
  res.metric("setup_s",
             median_setup_s([&] { st = make_state(cfg, opt.seed); }),
             "s");
  std::int64_t prompt_tokens = 0;
  std::int64_t max_tokens = 0;
  for (const auto& r : st->requests) {
    prompt_tokens += static_cast<std::int64_t>(r.prompt.size());
    max_tokens += r.max_tokens;
  }
  res.note("serve_chat: ApiServer over LoadGen, " +
           std::to_string(st->requests.size()) + " requests, " +
           std::to_string(prompt_tokens) + " prompt tokens, " +
           std::to_string(max_tokens) + " max output tokens, GQA kv_heads=4, "
           "continuous batching (budget 256, chunk 64)");

  SpanRecorder rec;
  SpanRecorder* trace = opt.trace ? &rec : nullptr;
  std::uint64_t first_digest = 0;
  const auto loop = [&](double seconds, SpanRecorder* r,
                        burst::obs::Registry* kernel_reg) {
    std::vector<RepeatOut> outs;
    const double t_end = now_s() + seconds;
    while (static_cast<int>(outs.size()) < kMinRepeats || now_s() < t_end) {
      burst::obs::Registry reg;
      burst::kernels::attach_attention_metrics(kernel_reg);
      RepeatOut o = run_repeat(cfg, *st, reg, r);
      burst::kernels::attach_attention_metrics(nullptr);
      const std::int64_t n = static_cast<std::int64_t>(o.ids.size());
      res.attempt(n);
      res.fail(n - o.completed);
      res.check(o.one_outcome_each,
                "serve_chat: every request has exactly one outcome");
      if (first_digest == 0) {
        first_digest = o.digest;
      }
      res.check(o.digest == first_digest,
                "serve_chat: token digest identical across repeats");
      outs.push_back(std::move(o));
      // Hand the repeat's freed heap back, so the next repeat starts from the
      // same resident set and peak RSS does not depend on the repeat count.
    }
    // After the timed repeats, so the reference forward does not shape the
    // repeats' heap (and with it the peak RSS).
    res.check(greedy_matches_serial(cfg, *st, outs.front(), res),
              "serve_chat: greedy tokens equal the serial_forward_logits "
              "argmax chain");
    return outs;
  };
  const auto walls = [](const std::vector<RepeatOut>& v) {
    std::vector<double> w;
    for (const auto& o : v) {
      w.push_back(o.wall_s);
    }
    return w;
  };

  if (!opt.trace) {
    const auto outs = loop(opt.seconds, nullptr, nullptr);
    std::vector<double> tps;
    for (const auto& o : outs) {
      tps.push_back(static_cast<double>(o.report.metrics.generated_tokens) /
                    o.wall_s);
    }
    res.metric("tok_per_s", median(tps), "tok/s");
    res.metric("op_ms_p50", median(walls(outs)) * 1e3, "ms");
    res.note("repeats measured: " + std::to_string(outs.size()) +
             ", generated tokens per repeat: " +
             std::to_string(outs.front().report.metrics.generated_tokens));
    return;
  }

  const auto plain = loop(opt.seconds / 2, nullptr, nullptr);
  burst::obs::Registry kernel_reg;
  const auto traced = loop(opt.seconds / 2, trace, &kernel_reg);
  const double whole_ms = median(walls(traced)) * 1e3;
  res.metric("trace.overhead_frac",
             median(walls(traced)) / median(walls(plain)) - 1.0, "frac");

  const auto& m = traced.back().report.metrics;
  const double iters = static_cast<double>(std::max<std::int64_t>(1, m.iterations));
  res.metric("serve.iterations", static_cast<double>(m.iterations), "count");
  res.metric("serve.rows_per_iteration",
             static_cast<double>(m.prefill_tokens + m.generated_tokens) / iters,
             "rows");
  res.metric("serve.wall_ms_per_iteration", whole_ms / iters, "ms");
  res.metric("serve.preempted", static_cast<double>(m.preempted), "count");
  res.metric("serve.rejected", static_cast<double>(m.rejected), "count");
  res.metric("serve.peak_kv_mb", static_cast<double>(m.peak_kv_bytes) / 1e6, "MB");
  res.metric("serve.virtual_ttft_p99_ms", m.p99_ttft_s * 1e3, "virt_ms");
  std::vector<double> submit_us;
  double submit_ms_per_repeat = 0.0;
  for (const auto& o : traced) {
    for (double us : o.submit_us) {
      submit_us.push_back(us);
      submit_ms_per_repeat += us * 1e-3 / static_cast<double>(traced.size());
    }
  }
  res.metric("api.submit_us", median(submit_us), "us");
  const auto skipped = kernel_reg.counter("kernels.attn.tiles_skipped").value();
  const auto computed = kernel_reg.counter("kernels.attn.tiles_computed").value();
  res.metric("kernels.attn_tiles_skipped_frac",
             skipped + computed > 0
                 ? static_cast<double>(skipped) /
                       static_cast<double>(skipped + computed)
                 : 0.0,
             "frac");
  res.metric("kernels.workspace_high_water_bytes",
             kernel_reg.gauge("kernels.workspace.high_water_bytes").value(), "B");

  // Model replays at the trace's median context.
  const std::int64_t ctx = median_context(*st);
  const MaskSpec mask = MaskSpec::causal();
  burst::tensor::Rng rng(opt.seed + 7);
  std::vector<std::int64_t> toks(static_cast<std::size_t>(ctx + 128));
  for (auto& t : toks) {
    t = rng.next_index(cfg.vocab);
  }
  std::vector<double> chunk_ms;
  for (int i = 0; i < 16; ++i) {
    auto cache = burst::model::SequenceKvCache::create(cfg, 16);
    const double t0 = now_s();
    ScopedSpan s(trace, "model.forward_prefill_chunk");
    burst::model::forward_prefill_chunk(cfg, st->weights, cache, toks.data(), 64, mask);
    chunk_ms.push_back((now_s() - t0) * 1e3);
  }
  const double prefill_chunk_ms = median(chunk_ms);
  res.metric("model.prefill_chunk_ms", prefill_chunk_ms, "ms");

  auto cache = burst::model::SequenceKvCache::create(cfg, 16);
  burst::model::forward_prefill_chunk(cfg, st->weights, cache, toks.data(), ctx, mask);
  std::vector<double> decode_ms;
  for (int i = 0; i < 128; ++i) {
    const double t0 = now_s();
    ScopedSpan s(trace, "model.forward_decode");
    burst::model::forward_decode(cfg, st->weights, cache,
                                 toks[static_cast<std::size_t>(ctx + i)], mask);
    decode_ms.push_back((now_s() - t0) * 1e3);
  }
  const double decode_token_ms = median(decode_ms);
  res.metric("model.decode_token_ms", decode_token_ms, "ms");
  // Weights one decode token reads: every layer's projections and FFN plus
  // the LM head, as the fp32 tensors the functional path streams.
  const double weight_bytes =
      4.0 * static_cast<double>(
                cfg.layers * (2 * cfg.d_model * cfg.d_model +
                              2 * cfg.d_model * cfg.d_kv() +
                              2 * cfg.d_model * cfg.d_ff) +
                cfg.vocab * cfg.d_model);
  res.metric("model.decode_stream_gbps", weight_bytes / (decode_token_ms * 1e6),
             "GB/s");

  {
    const std::int64_t dh = cfg.head_dim();
    const Tensor q = rng.gaussian(1, dh);
    const Tensor k = rng.gaussian(ctx, dh);
    const Tensor v = rng.gaussian(ctx, dh);
    Tensor o(1, dh);
    const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
    const int calls = 2000;
    const double t0 = now_s();
    {
      ScopedSpan s(trace, "kernels.flash_decode_step");
      for (int i = 0; i < calls; ++i) {
        burst::kernels::flash_decode_step(q.view(), k.view(), v.view(), ctx - 1,
                                          mask, scale, o.view());
      }
    }
    res.metric("kernels.decode_attn_us", (now_s() - t0) * 1e6 / calls, "us");
  }
  const Replayed gemm = replay_decode_gemms(cfg, opt.seed + 8, trace);
  res.metric("tensor.gemm_ms", gemm.ms, "ms");
  res.metric("tensor.gemm_gflops", gemm.gflops(), "GFLOP/s");
  {
    const Tensor h = rng.gaussian(1, cfg.d_model);
    std::vector<double> head_ms;
    for (int i = 0; i < 128; ++i) {
      const double t0 = now_s();
      ScopedSpan s(trace, "kernels.head_logits");
      burst::model::head_logits(st->weights, h);
      head_ms.push_back((now_s() - t0) * 1e3);
    }
    const double ms = median(head_ms);
    res.metric("kernels.lm_head_ms", ms, "ms");
    res.metric("kernels.lm_head_gflops",
               2.0 * static_cast<double>(cfg.vocab * cfg.d_model) / (ms * 1e6),
               "GFLOP/s");
  }

  // Whole repeat = submits + decode tokens + prefill chunks + remainder
  // (scheduler, KV bookkeeping, simulator, server).
  Breakdown b(whole_ms);
  b.part("api.submit", submit_ms_per_repeat);
  b.part("model.decode", static_cast<double>(m.generated_tokens) * decode_token_ms);
  b.part("model.prefill", static_cast<double>(m.prefill_tokens) / 64.0 *
                              prefill_chunk_ms);
  report_breakdown(res, b);
  write_trace(opt, res, rec, nullptr);
}

}  // namespace perfbench
