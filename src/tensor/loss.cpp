#include "tensor/loss.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "tensor/reduce.hpp"
#include "tensor/shape_ops.hpp"

namespace saga {

Tensor mse_masked(const Tensor& pred_in, const Tensor& target_in,
                  const Tensor& mask_in) {
  if (pred_in.shape() != target_in.shape() ||
      pred_in.shape() != mask_in.shape()) {
    throw std::invalid_argument("mse_masked: shape mismatch");
  }
  const Tensor pred = contiguous(pred_in);
  const Tensor target = contiguous(target_in);
  const Tensor mask = contiguous(mask_in);
  const float* p = pred.data().data();
  const float* t = target.data().data();
  const float* m = mask.data().data();
  const std::size_t n = pred.data().size();
  double mask_sum = 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = double(p[i]) - t[i];
    acc += m[i] * d * d;
    mask_sum += m[i];
  }
  const double denom = mask_sum > 0.0 ? mask_sum : 1.0;
  const float loss = static_cast<float>(acc / denom);

  return detail::make_result(
      {1}, Buffer::full(1, loss), {&pred, &target, &mask}, "mse_masked", [&] {
    return [p_impl = pred.impl(), t_impl = target.impl(),
            m_impl = mask.impl(), denom](const TensorImpl& o) {
      if (!detail::wants_grad(*p_impl)) return;
      float* gp = p_impl->grad_ptr();
      const float* pd = p_impl->data_ptr();
      const float* td = t_impl->data_ptr();
      const float* md = m_impl->data_ptr();
      const float g = o.grad_ptr()[0];
      const float scale_factor = static_cast<float>(2.0 / denom) * g;
      for (std::size_t i = 0; i < static_cast<std::size_t>(p_impl->numel());
           ++i) {
        gp[i] += scale_factor * md[i] * (pd[i] - td[i]);
      }
    };
  });
}

Tensor mse(const Tensor& pred, const Tensor& target) {
  Tensor mask = Tensor::ones(pred.shape());
  return mse_masked(pred, target, mask);
}

Tensor cross_entropy(const Tensor& logits_in, const std::vector<std::int64_t>& labels) {
  if (logits_in.dim() != 2) throw std::invalid_argument("cross_entropy: logits must be [N, C]");
  const Tensor logits = contiguous(logits_in);
  const std::int64_t n = logits.size(0);
  const std::int64_t c = logits.size(1);
  if (static_cast<std::int64_t>(labels.size()) != n) {
    throw std::invalid_argument("cross_entropy: label count mismatch");
  }
  for (const auto y : labels) {
    if (y < 0 || y >= c) throw std::out_of_range("cross_entropy: bad label");
  }

  // Fused: compute log-softmax rows and pick label entries; backward is
  // (softmax - onehot) / N.
  const float* x = logits.data().data();
  std::vector<float> softmax_cache(static_cast<std::size_t>(n * c));
  double loss_acc = 0.0;
  for (std::int64_t r = 0; r < n; ++r) {
    const float* row = x + r * c;
    float max_v = row[0];
    for (std::int64_t j = 1; j < c; ++j) max_v = std::max(max_v, row[j]);
    double denom = 0.0;
    float* sm = softmax_cache.data() + r * c;
    for (std::int64_t j = 0; j < c; ++j) {
      sm[j] = std::exp(row[j] - max_v);
      denom += sm[j];
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (std::int64_t j = 0; j < c; ++j) sm[j] *= inv;
    const auto y = labels[static_cast<std::size_t>(r)];
    loss_acc -= std::log(std::max(sm[y], 1e-12F));
  }
  const float loss = static_cast<float>(loss_acc / static_cast<double>(n));

  return detail::make_result({1}, Buffer::full(1, loss), {&logits},
                             "cross_entropy", [&] {
    return [l_impl = logits.impl(), labels, n, c,
            softmax_cache = std::move(softmax_cache)](const TensorImpl& o) {
      if (!detail::wants_grad(*l_impl)) return;
      float* gl = l_impl->grad_ptr();
      const float g = o.grad_ptr()[0] / static_cast<float>(n);
      for (std::int64_t r = 0; r < n; ++r) {
        const float* sm = softmax_cache.data() + r * c;
        float* gr = gl + r * c;
        const auto y = labels[static_cast<std::size_t>(r)];
        for (std::int64_t j = 0; j < c; ++j) {
          gr[j] += g * (sm[j] - (j == y ? 1.0F : 0.0F));
        }
      }
    };
  });
}

Tensor nt_xent(const Tensor& embeddings, float temperature) {
  if (embeddings.dim() != 2) throw std::invalid_argument("nt_xent: expects [2N, D]");
  const std::int64_t two_n = embeddings.size(0);
  if (two_n % 2 != 0 || two_n < 4) {
    throw std::invalid_argument("nt_xent: needs an even batch of >= 4 rows");
  }
  const std::int64_t half = two_n / 2;

  // Normalize rows to unit length (fully differentiable), then cosine
  // similarity is a plain dot product. The batch is small for contrastive
  // pre-training, so the composed graph is cheap.
  const std::int64_t d = embeddings.size(1);
  Tensor row_norm_sq = matmul(square(embeddings), Tensor::ones({d, 1}));  // [2N,1]
  Tensor row_norm = sqrt_op(add_scalar(row_norm_sq, 1e-12F));
  Tensor unit = div(embeddings, row_norm);  // broadcast over D

  // Similarity matrix scaled by temperature.
  Tensor sim = scale(matmul(unit, transpose_last2(unit)), 1.0F / temperature);

  // Mask self-similarity with a large negative constant (additive mask keeps
  // the op differentiable without special cases).
  Buffer self_mask = Buffer::zeros(static_cast<std::size_t>(two_n * two_n));
  for (std::int64_t r = 0; r < two_n; ++r) {
    self_mask[static_cast<std::size_t>(r * two_n + r)] = -1e9F;
  }
  sim = add(sim, Tensor::from_data({two_n, two_n}, std::move(self_mask)));

  Tensor log_probs = log_softmax_lastdim(sim);
  // Positive of row i is i+half (and vice versa): gather those entries.
  Buffer pos_mask = Buffer::zeros(static_cast<std::size_t>(two_n * two_n));
  for (std::int64_t r = 0; r < half; ++r) {
    pos_mask[static_cast<std::size_t>(r * two_n + (r + half))] = 1.0F;
    pos_mask[static_cast<std::size_t>((r + half) * two_n + r)] = 1.0F;
  }
  Tensor gathered = mul(log_probs, Tensor::from_data({two_n, two_n}, std::move(pos_mask)));
  return scale(sum(gathered), -1.0F / static_cast<float>(two_n));
}

}  // namespace saga
