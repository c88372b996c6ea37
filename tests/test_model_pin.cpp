// Output pins for the one-device model entry points: serial_train_step's
// gradients, serial_forward_logits and serial_per_row_loss, for MHA and GQA
// (kv_heads = 2: four query heads per K/V head, so the order of the dK/dV
// reduction shows in the bits), RoPE on, under a causal and a document mask,
// at a sequence length that leaves remainders in every attention and LM-head
// tile. Each hash is FNV-1a over the raw output bits (tests/pin.hpp). The
// constants were recorded from the serial layer pair that the one-rank
// distributed step replaced; any change to the per-element arithmetic order
// changes a hash here. The loss is checked separately: the distributed step
// reduces it as a float, so only its low bits may move.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "kernels/mask.hpp"
#include "model/transformer.hpp"
#include "pin.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace burst::model {
namespace {

using kernels::MaskSpec;
using tensor::Tensor;

constexpr std::int64_t kRows = 77;  // input rows; the tokens hold one more

ModelConfig pin_config(std::int64_t kv_heads) {
  ModelConfig cfg;
  cfg.layers = 2;
  cfg.d_model = 128;
  cfg.heads = 8;
  cfg.kv_heads = kv_heads;
  cfg.vocab = 96;
  cfg.d_ff = 80;
  cfg.use_rope = true;
  return cfg;
}

struct Case {
  std::string name;
  ModelConfig cfg;
  MaskSpec mask;
};

std::vector<Case> cases() {
  const MaskSpec doc = MaskSpec::document_from_lengths({30, 20, 27});
  return {{"mha causal", pin_config(0), MaskSpec::causal()},
          {"mha document", pin_config(0), doc},
          {"gqa causal", pin_config(2), MaskSpec::causal()},
          {"gqa document", pin_config(2), doc}};
}

struct Inputs {
  ModelWeights w;
  Tensor tokens;
  std::vector<std::int64_t> ids;
};

Inputs inputs(const ModelConfig& cfg) {
  Inputs in{ModelWeights::init(cfg, 61), {}, {}};
  tensor::Rng rng(67);
  in.tokens = rng.token_ids(kRows + 1, cfg.vocab);
  for (std::int64_t i = 0; i < kRows; ++i) {
    in.ids.push_back(static_cast<std::int64_t>(in.tokens[i]));
  }
  return in;
}

std::uint64_t grads_hash(const ModelGrads& g) {
  Fnv h;
  for_each_param([&h](const Tensor& t) { h.tensor(t); }, g);
  return h.h;
}

TEST(ModelPin, TrainStepGradients) {
  const std::vector<Pin> want = {
      {"mha causal", 0xd62ddc9f5cae4c83ULL},
      {"mha document", 0x4289b6060eb53fc2ULL},
      {"gqa causal", 0x9a5f1255b92bc9a5ULL},
      {"gqa document", 0x5c5f5e900abe759fULL},
  };
  std::vector<std::uint64_t> got;
  for (const Case& c : cases()) {
    const Inputs in = inputs(c.cfg);
    got.push_back(
        grads_hash(serial_train_step(c.cfg, in.w, in.tokens, c.mask).grads));
  }
  expect_pins(want, got);
}

// The loss within 1e-6 relative of the serial layer pair's, and
// serial_loss's bits equal to the step's.
TEST(ModelPin, TrainStepLoss) {
  const std::vector<double> want = {0x1.377b849a1a8fp+2, 0x1.3d15347ce2cep+2,
                                    0x1.31ed5643b51b1p+2, 0x1.353f0b5e37485p+2};
  const std::vector<Case> cs = cases();
  ASSERT_EQ(want.size(), cs.size());
  for (std::size_t i = 0; i < cs.size(); ++i) {
    const Inputs in = inputs(cs[i].cfg);
    const double step =
        serial_train_step(cs[i].cfg, in.w, in.tokens, cs[i].mask).loss;
    EXPECT_NEAR(step, want[i], 1e-6 * want[i]) << cs[i].name;
    EXPECT_EQ(serial_loss(cs[i].cfg, in.w, in.tokens, cs[i].mask), step)
        << cs[i].name;
  }
}

TEST(ModelPin, ForwardLogits) {
  const std::vector<Pin> want = {
      {"mha causal", 0x52bba1fd86b79597ULL},
      {"mha document", 0xe94fae8026f7c9bbULL},
      {"gqa causal", 0x3465e3788eedc2feULL},
      {"gqa document", 0xbee03be3089e4f17ULL},
  };
  std::vector<std::uint64_t> got;
  for (const Case& c : cases()) {
    const Inputs in = inputs(c.cfg);
    Fnv h;
    h.tensor(serial_forward_logits(c.cfg, in.w, in.ids.data(), kRows, c.mask));
    got.push_back(h.h);
  }
  expect_pins(want, got);
}

TEST(ModelPin, PerRowLoss) {
  const std::vector<Pin> want = {
      {"mha causal", 0xad1edb5f8c060c5eULL},
      {"mha document", 0xe7442ac6288bd958ULL},
      {"gqa causal", 0x206582e2aaa85a80ULL},
      {"gqa document", 0xf21a9218b95ae966ULL},
  };
  std::vector<std::uint64_t> got;
  for (const Case& c : cases()) {
    const Inputs in = inputs(c.cfg);
    Fnv h;
    h.doubles(serial_per_row_loss(c.cfg, in.w, in.tokens, c.mask));
    got.push_back(h.h);
  }
  expect_pins(want, got);
}

}  // namespace
}  // namespace burst::model
