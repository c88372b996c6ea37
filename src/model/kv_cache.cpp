#include "model/kv_cache.hpp"

#include <cassert>
#include <cstring>

namespace burst::model {

using tensor::ConstMatView;
using tensor::Tensor;

SequenceKvCache SequenceKvCache::create(const ModelConfig& cfg,
                                        std::int64_t block_tokens) {
  assert(block_tokens > 0);
  SequenceKvCache c;
  c.layers_ = cfg.layers;
  c.kv_heads_ = cfg.num_kv_heads();
  c.head_dim_ = cfg.head_dim();
  c.block_tokens_ = block_tokens;
  c.k_.resize(static_cast<std::size_t>(c.layers_ * c.kv_heads_));
  c.v_.resize(static_cast<std::size_t>(c.layers_ * c.kv_heads_));
  return c;
}

std::uint64_t SequenceKvCache::block_bytes(const ModelConfig& cfg,
                                           std::int64_t block_tokens) {
  const std::uint64_t els = static_cast<std::uint64_t>(block_tokens) *
                            static_cast<std::uint64_t>(cfg.layers) *
                            static_cast<std::uint64_t>(cfg.num_kv_heads()) *
                            static_cast<std::uint64_t>(cfg.head_dim()) * 2;
  return static_cast<std::uint64_t>(static_cast<double>(els) *
                                    cfg.kv_bytes_per_el());
}

std::int64_t SequenceKvCache::blocks_for(std::int64_t tokens,
                                         std::int64_t block_tokens) {
  assert(block_tokens > 0 && tokens >= 0);
  return (tokens + block_tokens - 1) / block_tokens;
}

std::int64_t SequenceKvCache::idx(std::int64_t layer, std::int64_t kvh) const {
  assert(layer >= 0 && layer < layers_ && kvh >= 0 && kvh < kv_heads_);
  return layer * kv_heads_ + kvh;
}

void SequenceKvCache::grow(Tensor& t, std::int64_t new_capacity) const {
  Tensor bigger = Tensor::zeros(new_capacity, head_dim_);
  if (!t.empty()) {
    std::memcpy(bigger.data(), t.data(),
                static_cast<std::size_t>(t.numel()) * sizeof(float));
  }
  t = std::move(bigger);
}

std::int64_t SequenceKvCache::reserve(std::int64_t extra_tokens) {
  assert(extra_tokens >= 0);
  const std::int64_t needed = len_ + extra_tokens;
  if (needed <= capacity_) {
    return 0;
  }
  const std::int64_t new_blocks =
      blocks_for(needed, block_tokens_) - blocks_allocated();
  const std::int64_t new_capacity =
      blocks_for(needed, block_tokens_) * block_tokens_;
  for (auto& t : k_) {
    grow(t, new_capacity);
  }
  for (auto& t : v_) {
    grow(t, new_capacity);
  }
  capacity_ = new_capacity;
  return new_blocks;
}

void SequenceKvCache::put(std::int64_t layer, std::int64_t kvh,
                          const Tensor& k_rows, const Tensor& v_rows) {
  put_at(layer, kvh, len_, k_rows, v_rows);
}

void SequenceKvCache::put_at(std::int64_t layer, std::int64_t kvh,
                             std::int64_t row0, const Tensor& k_rows,
                             const Tensor& v_rows) {
  assert(k_rows.cols() == head_dim_ && v_rows.cols() == head_dim_);
  assert(k_rows.rows() == v_rows.rows());
  assert(row0 >= 0 && row0 + k_rows.rows() <= capacity_);
  const std::int64_t i = idx(layer, kvh);
  k_[static_cast<std::size_t>(i)].set_rows(row0, k_rows);
  v_[static_cast<std::size_t>(i)].set_rows(row0, v_rows);
}

void SequenceKvCache::commit(std::int64_t tokens) {
  assert(tokens >= 0 && len_ + tokens <= capacity_);
  len_ += tokens;
}

ConstMatView SequenceKvCache::k_view(std::int64_t layer, std::int64_t kvh,
                                     std::int64_t rows) const {
  assert(rows <= capacity_);
  const auto& t = k_[static_cast<std::size_t>(idx(layer, kvh))];
  return ConstMatView(t.data(), rows, head_dim_, head_dim_);
}

ConstMatView SequenceKvCache::v_view(std::int64_t layer, std::int64_t kvh,
                                     std::int64_t rows) const {
  assert(rows <= capacity_);
  const auto& t = v_[static_cast<std::size_t>(idx(layer, kvh))];
  return ConstMatView(t.data(), rows, head_dim_, head_dim_);
}

}  // namespace burst::model
