// Multi-head self-attention (the core of the LIMU-BERT backbone).
#pragma once

#include <memory>

#include "nn/layers.hpp"
#include "nn/linear.hpp"
#include "nn/module.hpp"

namespace saga::nn {

/// Scaled dot-product multi-head self-attention over [B, T, D] sequences.
/// D must be divisible by num_heads. forward runs the fused kernel (single
/// pass, minimal intermediates); forward_composed builds the same math from
/// primitive ops, kept for differential testing.
class MultiHeadSelfAttention : public Module {
 public:
  MultiHeadSelfAttention(std::int64_t dim, std::int64_t num_heads,
                         double dropout_p, util::Rng& rng, std::uint64_t seed);

  Tensor forward(const Tensor& x);

  /// Slice-per-head reference implementation (slower, same result up to
  /// attention-probability dropout, which only the composed path applies).
  Tensor forward_composed(const Tensor& x);

  std::int64_t num_heads() const noexcept { return heads_; }

 private:
  std::int64_t dim_;
  std::int64_t heads_;
  std::int64_t head_dim_;
  std::shared_ptr<Linear> wq_;
  std::shared_ptr<Linear> wk_;
  std::shared_ptr<Linear> wv_;
  std::shared_ptr<Linear> wo_;
  std::shared_ptr<Dropout> attn_dropout_;
};

}  // namespace saga::nn
