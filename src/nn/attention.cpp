#include "nn/attention.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/attention_fused.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "tensor/reduce.hpp"
#include "tensor/shape_ops.hpp"

namespace saga::nn {

MultiHeadSelfAttention::MultiHeadSelfAttention(std::int64_t dim,
                                               std::int64_t num_heads,
                                               double dropout_p, util::Rng& rng,
                                               std::uint64_t seed)
    : dim_(dim), heads_(num_heads), head_dim_(dim / num_heads) {
  if (dim % num_heads != 0) {
    throw std::invalid_argument("attention: dim must divide num_heads");
  }
  wq_ = register_module("wq", std::make_shared<Linear>(dim, dim, rng));
  wk_ = register_module("wk", std::make_shared<Linear>(dim, dim, rng));
  wv_ = register_module("wv", std::make_shared<Linear>(dim, dim, rng));
  wo_ = register_module("wo", std::make_shared<Linear>(dim, dim, rng));
  attn_dropout_ = register_module("attn_dropout",
                                  std::make_shared<Dropout>(dropout_p, seed));
}

Tensor MultiHeadSelfAttention::forward(const Tensor& x) {
  if (x.dim() != 3 || x.size(2) != dim_) {
    throw std::invalid_argument("attention: expects [B, T, " +
                                std::to_string(dim_) + "]");
  }
  const Tensor q = wq_->forward(x);
  const Tensor k = wk_->forward(x);
  const Tensor v = wv_->forward(x);
  return wo_->forward(fused_multi_head_attention(q, k, v, heads_));
}

Tensor MultiHeadSelfAttention::forward_composed(const Tensor& x) {
  const Tensor q = wq_->forward(x);
  const Tensor k = wk_->forward(x);
  const Tensor v = wv_->forward(x);
  const float inv_sqrt_d = 1.0F / std::sqrt(static_cast<float>(head_dim_));

  std::vector<Tensor> head_outputs;
  head_outputs.reserve(static_cast<std::size_t>(heads_));
  for (std::int64_t h = 0; h < heads_; ++h) {
    const Tensor qh = slice(q, 2, h * head_dim_, head_dim_);  // [B, T, Dh]
    const Tensor kh = slice(k, 2, h * head_dim_, head_dim_);
    const Tensor vh = slice(v, 2, h * head_dim_, head_dim_);
    Tensor scores = scale(bmm(qh, kh, false, true), inv_sqrt_d);  // [B, T, T]
    Tensor weights = attn_dropout_->forward(softmax_lastdim(scores));
    head_outputs.push_back(bmm(weights, vh));  // [B, T, Dh]
  }
  const Tensor context = concat(head_outputs, 2);  // [B, T, D]
  return wo_->forward(context);
}

}  // namespace saga::nn
