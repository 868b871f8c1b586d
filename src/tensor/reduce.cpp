#include "tensor/reduce.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/shape_ops.hpp"

namespace saga {

Tensor sum(const Tensor& a_in) {
  const Tensor a = contiguous(a_in);
  double acc = 0.0;
  for (const float v : a.data()) acc += v;
  return detail::make_result({1}, Buffer::full(1, static_cast<float>(acc)),
                             {&a}, "sum", [&] {
    return [a_impl = a.impl()](const TensorImpl& o) {
      if (!detail::wants_grad(*a_impl)) return;
      float* ga = a_impl->grad_ptr();
      const float g = o.grad_ptr()[0];
      const auto n = static_cast<std::size_t>(a_impl->numel());
      for (std::size_t i = 0; i < n; ++i) ga[i] += g;
    };
  });
}

Tensor mean(const Tensor& a_in) {
  const Tensor a = contiguous(a_in);
  const auto n = static_cast<double>(a.numel());
  double acc = 0.0;
  for (const float v : a.data()) acc += v;
  return detail::make_result({1}, Buffer::full(1, static_cast<float>(acc / n)),
                             {&a}, "mean",
                             [&] {
                               return [a_impl = a.impl(), n](const TensorImpl& o) {
                                 if (!detail::wants_grad(*a_impl)) return;
                                 float* ga = a_impl->grad_ptr();
                                 const float g = static_cast<float>(o.grad_ptr()[0] / n);
                                 const auto count = static_cast<std::size_t>(a_impl->numel());
                                 for (std::size_t i = 0; i < count; ++i) ga[i] += g;
                               };
                             });
}

Tensor softmax_lastdim(const Tensor& a_in) {
  const Tensor a = contiguous(a_in);
  const std::int64_t cols = a.size(-1);
  const std::int64_t rows = a.numel() / cols;
  Buffer out = Buffer::uninitialized(static_cast<std::size_t>(a.numel()));
  const float* src = a.data().data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* x = src + r * cols;
    float* y = out.data() + r * cols;
    float max_v = x[0];
    for (std::int64_t c = 1; c < cols; ++c) max_v = std::max(max_v, x[c]);
    double denom = 0.0;
    for (std::int64_t c = 0; c < cols; ++c) {
      y[c] = std::exp(x[c] - max_v);
      denom += y[c];
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (std::int64_t c = 0; c < cols; ++c) y[c] *= inv;
  }
  return detail::make_result(a.shape(), std::move(out), {&a}, "softmax", [&] {
    return [a_impl = a.impl(), rows, cols](const TensorImpl& o) {
        if (!detail::wants_grad(*a_impl)) return;
        float* ga = a_impl->grad_ptr();
        const float* y = o.data_ptr();
        const float* go = o.grad_ptr();
        for (std::int64_t r = 0; r < rows; ++r) {
          const float* yr = y + r * cols;
          const float* gr = go + r * cols;
          float* gar = ga + r * cols;
          double dot = 0.0;
          for (std::int64_t c = 0; c < cols; ++c) dot += double(yr[c]) * gr[c];
          for (std::int64_t c = 0; c < cols; ++c) {
            gar[c] += yr[c] * (gr[c] - static_cast<float>(dot));
          }
        }
    };
  });
}

Tensor log_softmax_lastdim(const Tensor& a_in) {
  const Tensor a = contiguous(a_in);
  const std::int64_t cols = a.size(-1);
  const std::int64_t rows = a.numel() / cols;
  Buffer out = Buffer::uninitialized(static_cast<std::size_t>(a.numel()));
  const float* src = a.data().data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* x = src + r * cols;
    float* y = out.data() + r * cols;
    float max_v = x[0];
    for (std::int64_t c = 1; c < cols; ++c) max_v = std::max(max_v, x[c]);
    double denom = 0.0;
    for (std::int64_t c = 0; c < cols; ++c) denom += std::exp(x[c] - max_v);
    const float lse = max_v + static_cast<float>(std::log(denom));
    for (std::int64_t c = 0; c < cols; ++c) y[c] = x[c] - lse;
  }
  return detail::make_result(a.shape(), std::move(out), {&a}, "log_softmax", [&] {
    return [a_impl = a.impl(), rows, cols](const TensorImpl& o) {
        if (!detail::wants_grad(*a_impl)) return;
        float* ga = a_impl->grad_ptr();
        const float* y = o.data_ptr();
        const float* go = o.grad_ptr();
        for (std::int64_t r = 0; r < rows; ++r) {
          const float* yr = y + r * cols;
          const float* gr = go + r * cols;
          float* gar = ga + r * cols;
          double gsum = 0.0;
          for (std::int64_t c = 0; c < cols; ++c) gsum += gr[c];
          for (std::int64_t c = 0; c < cols; ++c) {
            gar[c] += gr[c] - std::exp(yr[c]) * static_cast<float>(gsum);
          }
        }
    };
  });
}

Tensor layer_norm_lastdim(const Tensor& x_in, const Tensor& gamma_in,
                          const Tensor& beta_in, float eps) {
  const Tensor x = contiguous(x_in);
  const Tensor gamma = contiguous(gamma_in);
  const Tensor beta = contiguous(beta_in);
  const std::int64_t cols = x.size(-1);
  const std::int64_t rows = x.numel() / cols;
  if (gamma.numel() != cols || beta.numel() != cols) {
    throw std::invalid_argument("layer_norm: gamma/beta must be [D]");
  }
  // xhat / inv_std are backward-only state: computed and saved only when the
  // tape is active for these inputs, so NoGrad forwards skip the extra
  // buffer entirely (the per-element arithmetic producing `out` is identical
  // either way, keeping NoGrad and tape forwards bit-identical).
  const bool tape = detail::tape_active({&x, &gamma, &beta});
  Buffer out = Buffer::uninitialized(static_cast<std::size_t>(x.numel()));
  Buffer xhat =
      Buffer::uninitialized(tape ? static_cast<std::size_t>(x.numel()) : 0);
  Buffer inv_std =
      Buffer::uninitialized(tape ? static_cast<std::size_t>(rows) : 0);
  const float* xd = x.data().data();
  const float* gd = gamma.data().data();
  const float* bd = beta.data().data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = xd + r * cols;
    double mu = 0.0;
    for (std::int64_t c = 0; c < cols; ++c) mu += row[c];
    mu /= static_cast<double>(cols);
    double var = 0.0;
    for (std::int64_t c = 0; c < cols; ++c) {
      const double d = row[c] - mu;
      var += d * d;
    }
    var /= static_cast<double>(cols);
    const float istd = static_cast<float>(1.0 / std::sqrt(var + eps));
    float* y = out.data() + r * cols;
    if (tape) {
      inv_std[static_cast<std::size_t>(r)] = istd;
      float* xh_row = xhat.data() + r * cols;
      for (std::int64_t c = 0; c < cols; ++c) {
        xh_row[c] = (row[c] - static_cast<float>(mu)) * istd;
        y[c] = gd[c] * xh_row[c] + bd[c];
      }
    } else {
      for (std::int64_t c = 0; c < cols; ++c) {
        const float xh = (row[c] - static_cast<float>(mu)) * istd;
        y[c] = gd[c] * xh + bd[c];
      }
    }
  }

  return detail::make_result(
      x.shape(), std::move(out), {&x, &gamma, &beta}, "layer_norm", [&] {
    return [x_impl = x.impl(), g_impl = gamma.impl(), b_impl = beta.impl(),
            rows, cols, xhat = std::move(xhat),
            inv_std = std::move(inv_std)](const TensorImpl& o) {
        const float* go = o.grad_ptr();
        const float* gamma_d = g_impl->data_ptr();
        const bool need_x = detail::wants_grad(*x_impl);
        const bool need_g = detail::wants_grad(*g_impl);
        const bool need_b = detail::wants_grad(*b_impl);
        float* gx = need_x ? x_impl->grad_ptr() : nullptr;
        float* gg = need_g ? g_impl->grad_ptr() : nullptr;
        float* gb = need_b ? b_impl->grad_ptr() : nullptr;
        for (std::int64_t r = 0; r < rows; ++r) {
          const float* gr = go + r * cols;
          const float* xh = xhat.data() + r * cols;
          const float istd = inv_std[static_cast<std::size_t>(r)];
          if (need_g || need_b) {
            for (std::int64_t c = 0; c < cols; ++c) {
              if (gg != nullptr) gg[c] += gr[c] * xh[c];
              if (gb != nullptr) gb[c] += gr[c];
            }
          }
          if (need_x) {
            // dx = istd * (h - mean(h) - xhat * mean(h * xhat)),
            // with h = gamma * dy.
            double mean_h = 0.0;
            double mean_hx = 0.0;
            for (std::int64_t c = 0; c < cols; ++c) {
              const double h = double(gamma_d[c]) * gr[c];
              mean_h += h;
              mean_hx += h * xh[c];
            }
            mean_h /= static_cast<double>(cols);
            mean_hx /= static_cast<double>(cols);
            float* gxr = gx + r * cols;
            for (std::int64_t c = 0; c < cols; ++c) {
              const double h = double(gamma_d[c]) * gr[c];
              gxr[c] += static_cast<float>(istd * (h - mean_h - xh[c] * mean_hx));
            }
          }
        }
    };
  });
}

Tensor mean_over_time(const Tensor& x_in) {
  if (x_in.dim() != 3) throw std::invalid_argument("mean_over_time: expects [B,T,D]");
  const Tensor x = contiguous(x_in);
  const std::int64_t b = x.size(0);
  const std::int64_t t = x.size(1);
  const std::int64_t d = x.size(2);
  Buffer out = Buffer::zeros(static_cast<std::size_t>(b * d));
  const float* xd = x.data().data();
  for (std::int64_t i = 0; i < b; ++i) {
    for (std::int64_t s = 0; s < t; ++s) {
      const float* row = xd + (i * t + s) * d;
      float* orow = out.data() + i * d;
      for (std::int64_t c = 0; c < d; ++c) orow[c] += row[c];
    }
  }
  const float inv = 1.0F / static_cast<float>(t);
  for (auto& v : out) v *= inv;

  return detail::make_result({b, d}, std::move(out), {&x}, "mean_over_time", [&] {
    return [x_impl = x.impl(), b, t, d, inv](const TensorImpl& o) {
      if (!detail::wants_grad(*x_impl)) return;
      float* gx = x_impl->grad_ptr();
      const float* go = o.grad_ptr();
      for (std::int64_t i = 0; i < b; ++i) {
        const float* grow = go + i * d;
        for (std::int64_t s = 0; s < t; ++s) {
          float* gxr = gx + (i * t + s) * d;
          for (std::int64_t c = 0; c < d; ++c) gxr[c] += grow[c] * inv;
        }
      }
    };
  });
}

std::vector<std::int64_t> argmax_lastdim(const Tensor& a_in) {
  const Tensor a = contiguous(a_in);
  const std::int64_t cols = a.size(-1);
  const std::int64_t rows = a.numel() / cols;
  std::vector<std::int64_t> out(static_cast<std::size_t>(rows));
  const float* src = a.data().data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = src + r * cols;
    std::int64_t best = 0;
    for (std::int64_t c = 1; c < cols; ++c) {
      if (row[c] > row[best]) best = c;
    }
    out[static_cast<std::size_t>(r)] = best;
  }
  return out;
}

}  // namespace saga
