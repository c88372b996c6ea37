// Extension ablation (beyond the paper): grouped-query attention changes the
// Ring-vs-Burst backward communication trade-off.
//
// BurstAttention's backward (Algorithm 2) circulates *query-side* tensors
// (Q, ∇Q, ∇O, and Lse and D per query head: 3Nd + 2NH), which GQA does not
// shrink; RingAttention's backward circulates K/V-side tensors (4·N·d_kv),
// which GQA shrinks by the group factor, since each hop carries every K/V
// head once. With d_kv < 3/4 · d_model + ..., Algorithm 1's volume drops
// below Algorithm 2's — e.g. LLaMA-3-style 8x GQA flips the paper's 25%
// saving into a ~6x deficit. BurstEngine integrations on GQA models should
// therefore pick the backward algorithm per kv-head ratio (the topology-
// aware ring and overlap apply to both). tests/test_comm_bytes.cpp checks
// both volumes against the bytes a training step sends.
#include "bench_util.hpp"
#include "model/config.hpp"
#include "reporter.hpp"

int main() {
  using namespace burst;
  using namespace burst::bench;

  Reporter rep("ablation_gqa");
  title("GQA ablation — backward ring volume per device (7B-like, d=4096, "
        "32 query heads, N tokens)");
  Table t({"kv heads", "d_kv", "Ring bwd (x Nd)", "Burst bwd (x Nd)",
           "Burst/Ring", "better backward"});
  for (std::int64_t kv : {32, 16, 8, 4, 2, 1}) {
    model::ModelConfig cfg = model::ModelConfig::llama7b();
    cfg.kv_heads = kv;
    const double d = static_cast<double>(cfg.d_model);
    const double dkv = static_cast<double>(cfg.d_kv());
    // Volumes in units of N * d_model (per device, full backward).
    const double ring = 4.0 * dkv / d;
    const double burst = 3.0 + 2.0 * static_cast<double>(cfg.heads) / d;
    t.row({std::to_string(kv), std::to_string(cfg.d_kv()),
           fmt(ring, "%.3f"), fmt(burst, "%.3f"), fmt(burst / ring, "%.2f"),
           burst < ring ? "Burst (Alg. 2)" : "Ring (Alg. 1)"});
    rep.measurement("burst_over_ring_kv" + std::to_string(kv), burst / ring);
    // The paper's MHA setting (kv == query heads) must show Burst's ~25%
    // saving; 8x GQA must flip the trade-off toward Ring.
    if (kv == 32) {
      rep.check(burst < ring, "MHA: Burst backward beats Ring (paper)");
    }
    if (kv == 4) {
      rep.check(burst > ring, "8x GQA: Ring backward beats Burst");
    }
  }
  t.print();
  std::printf(
      "\ncrossover at d_kv/d = (3 + 2H/d)/4 ≈ 0.75: below ~24 kv heads (of\n"
      "32), circulating K/V gradients (Algorithm 1) is cheaper than\n"
      "circulating query-side tensors (Algorithm 2). Forward volume is\n"
      "2·N·d_kv for both. Not evaluated in the paper (MHA models only);\n"
      "see tests/test_gqa.cpp for the functional GQA validation.\n");
  return rep.finish();
}
