// Per-sequence K/V cache for incremental decoding (the serving path).
//
// Functional storage: one [capacity, head_dim] matrix per (layer, kv head)
// for K and for V, grown in whole blocks of `block_tokens` rows — the paged
// allocation unit the serving engine charges to a device MemoryTracker
// (serve/kv_cache.hpp owns that accounting; this class only reports its
// block arithmetic). Keys are stored *post-RoPE* at their global positions,
// so chunked prefill and single-token decode append rows without ever
// re-rotating the prefix. GQA models store num_kv_heads() streams; query
// heads of one group read the same stream, exactly as in training.
//
// Write protocol: `reserve` capacity, `put` each layer's rows for the chunk
// (all layers write the same row range [len, len+chunk)), then `commit`
// advances `len`. Attention during the chunk reads views of [0, len+chunk).
#pragma once

#include <cstdint>
#include <vector>

#include "model/config.hpp"
#include "tensor/tensor.hpp"

namespace burst::model {

class SequenceKvCache {
 public:
  SequenceKvCache() = default;

  static SequenceKvCache create(const ModelConfig& cfg,
                                std::int64_t block_tokens);

  /// Simulated bytes of one block: K + V rows for every layer and kv head at
  /// the KV-cache dtype (bf16, as in the paper's setup).
  static std::uint64_t block_bytes(const ModelConfig& cfg,
                                   std::int64_t block_tokens);

  /// Blocks needed to hold `tokens` rows: ceil(tokens / block_tokens).
  static std::int64_t blocks_for(std::int64_t tokens,
                                 std::int64_t block_tokens);

  std::int64_t len() const { return len_; }
  std::int64_t capacity_tokens() const { return capacity_; }
  std::int64_t block_tokens() const { return block_tokens_; }
  std::int64_t blocks_allocated() const {
    return block_tokens_ > 0 ? capacity_ / block_tokens_ : 0;
  }

  /// Grows capacity (in whole blocks) so `extra_tokens` more rows fit after
  /// `len()`. Returns the number of newly allocated blocks — the quantity a
  /// serving block pool charges. Idempotent when capacity already suffices.
  std::int64_t reserve(std::int64_t extra_tokens);

  /// Writes K/V rows for `layer` / kv head `kvh` at token rows
  /// [len(), len()+rows). Capacity must already be reserved.
  void put(std::int64_t layer, std::int64_t kvh, const tensor::Tensor& k_rows,
           const tensor::Tensor& v_rows);

  /// Writes rows at an explicit token offset (used when gathering the shards
  /// of a distributed prefill into one cache).
  void put_at(std::int64_t layer, std::int64_t kvh, std::int64_t row0,
              const tensor::Tensor& k_rows, const tensor::Tensor& v_rows);

  /// Advances `len` after every layer has `put` its rows for the chunk.
  void commit(std::int64_t tokens);

  /// The first `rows` cached K (resp. V) rows of (layer, kvh), in place.
  tensor::ConstMatView k_view(std::int64_t layer, std::int64_t kvh,
                              std::int64_t rows) const;
  tensor::ConstMatView v_view(std::int64_t layer, std::int64_t kvh,
                              std::int64_t rows) const;

 private:
  std::int64_t idx(std::int64_t layer, std::int64_t kvh) const;
  void grow(tensor::Tensor& t, std::int64_t new_capacity) const;

  std::int64_t layers_ = 0;
  std::int64_t kv_heads_ = 0;
  std::int64_t head_dim_ = 0;
  std::int64_t block_tokens_ = 0;
  std::int64_t len_ = 0;
  std::int64_t capacity_ = 0;
  std::vector<tensor::Tensor> k_;  // [layer * kv_heads + kvh]
  std::vector<tensor::Tensor> v_;
};

}  // namespace burst::model
