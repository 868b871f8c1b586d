#include "tensor/ops.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/eltwise/eltwise.hpp"
#include "tensor/shape_ops.hpp"

namespace saga {

namespace {

// Broadcast odometer: walks the output index space once, tracking the flat
// offsets into both (possibly lower-rank / size-1) inputs. O(1) amortized per
// element.
template <typename Fn>
void for_each_broadcast(const Shape& out_shape, const Shape& a_shape,
                        const Shape& b_shape, Fn&& fn) {
  const std::size_t rank = out_shape.size();
  const std::int64_t n = numel_of(out_shape);
  if (rank == 0) {
    if (n == 1) fn(0, 0, 0);
    return;
  }

  auto aligned_strides = [&](const Shape& in_shape) {
    std::vector<std::int64_t> strides(rank, 0);
    const auto in_strides = strides_of(in_shape);
    const std::size_t offset = rank - in_shape.size();
    for (std::size_t d = 0; d < in_shape.size(); ++d) {
      strides[offset + d] = in_shape[d] == 1 ? 0 : in_strides[d];
    }
    return strides;
  };
  const auto a_strides = aligned_strides(a_shape);
  const auto b_strides = aligned_strides(b_shape);

  std::vector<std::int64_t> counter(rank, 0);
  std::int64_t ai = 0;
  std::int64_t bi = 0;
  for (std::int64_t oi = 0; oi < n; ++oi) {
    fn(oi, ai, bi);
    for (std::int64_t d = static_cast<std::int64_t>(rank) - 1; d >= 0; --d) {
      const auto du = static_cast<std::size_t>(d);
      ++counter[du];
      ai += a_strides[du];
      bi += b_strides[du];
      if (counter[du] < out_shape[du]) break;
      counter[du] = 0;
      ai -= a_strides[du] * out_shape[du];
      bi -= b_strides[du] * out_shape[du];
    }
  }
}

// Generic broadcast-aware binary op. Policy supplies:
//   static float fwd(float a, float b);
//   static float dfda(float a, float b, float g);   // dL/da contribution
//   static float dfdb(float a, float b, float g);   // dL/db contribution
// View inputs are contiguized on entry; gradients written into the
// contiguized tensors scatter back through their views' nodes.
template <typename Policy>
Tensor binary_op(const Tensor& a_in, const Tensor& b_in, const char* name) {
  const Tensor a = contiguous(a_in);
  const Tensor b = contiguous(b_in);
  const Shape out_shape = broadcast_shapes(a.shape(), b.shape());
  Buffer out =
      Buffer::uninitialized(static_cast<std::size_t>(numel_of(out_shape)));
  const auto av = a.data();
  const auto bv = b.data();

  if (a.shape() == b.shape()) {  // fast path, no odometer
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = Policy::fwd(av[i], bv[i]);
    }
  } else {
    for_each_broadcast(out_shape, a.shape(), b.shape(),
                       [&](std::int64_t oi, std::int64_t ai, std::int64_t bi) {
                         out[oi] = Policy::fwd(av[ai], bv[bi]);
                       });
  }

  return detail::make_result(out_shape, std::move(out), {&a, &b}, name, [&] {
    return [a_impl = a.impl(), b_impl = b.impl(), a_shape = a.shape(),
            b_shape = b.shape(), out_shape](const TensorImpl& o) {
        const bool need_a = detail::wants_grad(*a_impl);
        const bool need_b = detail::wants_grad(*b_impl);
        if (!need_a && !need_b) return;
        float* ga = need_a ? a_impl->grad_ptr() : nullptr;
        float* gb = need_b ? b_impl->grad_ptr() : nullptr;
        const float* ad = a_impl->data_ptr();
        const float* bd = b_impl->data_ptr();
        const float* go = o.grad_ptr();
        if (a_shape == b_shape) {
          const auto n = static_cast<std::size_t>(o.numel());
          for (std::size_t i = 0; i < n; ++i) {
            if (ga != nullptr) ga[i] += Policy::dfda(ad[i], bd[i], go[i]);
            if (gb != nullptr) gb[i] += Policy::dfdb(ad[i], bd[i], go[i]);
          }
        } else {
          for_each_broadcast(
              out_shape, a_shape, b_shape,
              [&](std::int64_t oi, std::int64_t ai, std::int64_t bi) {
                if (ga != nullptr) ga[ai] += Policy::dfda(ad[ai], bd[bi], go[oi]);
                if (gb != nullptr) gb[bi] += Policy::dfdb(ad[ai], bd[bi], go[oi]);
              });
        }
    };
  });
}

struct AddPolicy {
  static float fwd(float a, float b) { return a + b; }
  static float dfda(float, float, float g) { return g; }
  static float dfdb(float, float, float g) { return g; }
};
struct SubPolicy {
  static float fwd(float a, float b) { return a - b; }
  static float dfda(float, float, float g) { return g; }
  static float dfdb(float, float, float g) { return -g; }
};
struct MulPolicy {
  static float fwd(float a, float b) { return a * b; }
  static float dfda(float, float b, float g) { return g * b; }
  static float dfdb(float a, float, float g) { return g * a; }
};
struct DivPolicy {
  static float fwd(float a, float b) { return a / b; }
  static float dfda(float, float b, float g) { return g / b; }
  static float dfdb(float a, float b, float g) { return -g * a / (b * b); }
};

// Generic unary op. Policy supplies:
//   static float fwd(float x);
//   static float grad(float x, float y, float g);  // y = fwd(x)
template <typename Policy>
Tensor unary_op(const Tensor& a_in, const char* name) {
  const Tensor a = contiguous(a_in);
  const auto av = a.data();
  Buffer out = Buffer::uninitialized(av.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = Policy::fwd(av[i]);
  return detail::make_result(a.shape(), std::move(out), {&a}, name, [&] {
    return [a_impl = a.impl()](const TensorImpl& o) {
      if (!detail::wants_grad(*a_impl)) return;
      float* ga = a_impl->grad_ptr();
      const float* ad = a_impl->data_ptr();
      const float* od = o.data_ptr();
      const float* go = o.grad_ptr();
      const auto n = static_cast<std::size_t>(o.numel());
      for (std::size_t i = 0; i < n; ++i) {
        ga[i] += Policy::grad(ad[i], od[i], go[i]);
      }
    };
  });
}

struct ReluPolicy {
  static float fwd(float x) { return x > 0.0F ? x : 0.0F; }
  static float grad(float x, float, float g) { return x > 0.0F ? g : 0.0F; }
};
struct TanhPolicy {
  static float fwd(float x) { return std::tanh(x); }
  static float grad(float, float y, float g) { return g * (1.0F - y * y); }
};
struct SigmoidPolicy {
  static float fwd(float x) { return 1.0F / (1.0F + std::exp(-x)); }
  static float grad(float, float y, float g) { return g * y * (1.0F - y); }
};
struct ExpPolicy {
  static float fwd(float x) { return std::exp(x); }
  static float grad(float, float y, float g) { return g * y; }
};
struct LogPolicy {
  static float fwd(float x) { return std::log(x); }
  static float grad(float x, float, float g) { return g / x; }
};
struct SquarePolicy {
  static float fwd(float x) { return x * x; }
  static float grad(float x, float, float g) { return 2.0F * g * x; }
};
struct SqrtPolicy {
  static float fwd(float x) { return std::sqrt(x); }
  static float grad(float, float y, float g) { return g / (2.0F * y); }
};
struct NegPolicy {
  static float fwd(float x) { return -x; }
  static float grad(float, float, float g) { return -g; }
};
}  // namespace

Tensor add(const Tensor& a, const Tensor& b) { return binary_op<AddPolicy>(a, b, "add"); }
Tensor sub(const Tensor& a, const Tensor& b) { return binary_op<SubPolicy>(a, b, "sub"); }
Tensor mul(const Tensor& a, const Tensor& b) { return binary_op<MulPolicy>(a, b, "mul"); }
Tensor div(const Tensor& a, const Tensor& b) { return binary_op<DivPolicy>(a, b, "div"); }

Tensor relu(const Tensor& a) { return unary_op<ReluPolicy>(a, "relu"); }
// GELU routes through the fused eltwise engine (vectorized tanh; the scalar
// kernel performs this file's historical per-element arithmetic exactly).
Tensor gelu(const Tensor& a) { return eltwise::bias_gelu(a, Tensor()); }
Tensor tanh_op(const Tensor& a) { return unary_op<TanhPolicy>(a, "tanh"); }
Tensor sigmoid(const Tensor& a) { return unary_op<SigmoidPolicy>(a, "sigmoid"); }
Tensor exp_op(const Tensor& a) { return unary_op<ExpPolicy>(a, "exp"); }
Tensor log_op(const Tensor& a) { return unary_op<LogPolicy>(a, "log"); }
Tensor square(const Tensor& a) { return unary_op<SquarePolicy>(a, "square"); }
Tensor sqrt_op(const Tensor& a) { return unary_op<SqrtPolicy>(a, "sqrt"); }
Tensor neg(const Tensor& a) { return unary_op<NegPolicy>(a, "neg"); }

Tensor scale(const Tensor& a_in, float factor) {
  const Tensor a = contiguous(a_in);
  const auto av = a.data();
  Buffer out = Buffer::uninitialized(av.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = av[i] * factor;
  return detail::make_result(a.shape(), std::move(out), {&a}, "scale", [&] {
    return [a_impl = a.impl(), factor](const TensorImpl& o) {
      if (!detail::wants_grad(*a_impl)) return;
      float* ga = a_impl->grad_ptr();
      const float* go = o.grad_ptr();
      const auto n = static_cast<std::size_t>(o.numel());
      for (std::size_t i = 0; i < n; ++i) ga[i] += go[i] * factor;
    };
  });
}

Tensor add_scalar(const Tensor& a_in, float value) {
  const Tensor a = contiguous(a_in);
  const auto av = a.data();
  Buffer out = Buffer::uninitialized(av.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = av[i] + value;
  return detail::make_result(a.shape(), std::move(out), {&a}, "add_scalar", [&] {
    return [a_impl = a.impl()](const TensorImpl& o) {
      if (!detail::wants_grad(*a_impl)) return;
      float* ga = a_impl->grad_ptr();
      const float* go = o.grad_ptr();
      const auto n = static_cast<std::size_t>(o.numel());
      for (std::size_t i = 0; i < n; ++i) ga[i] += go[i];
    };
  });
}

Tensor dropout(const Tensor& a_in, double p, bool training, util::Rng& rng) {
  if (!training || p <= 0.0) return a_in;
  if (p >= 1.0) throw std::invalid_argument("dropout: p must be < 1");
  const Tensor a = contiguous(a_in);
  const float keep_scale = static_cast<float>(1.0 / (1.0 - p));
  const auto drop_p = static_cast<float>(p);
  const auto av = a.data();
  Buffer mask = Buffer::uninitialized(av.size());
  Buffer out = Buffer::uninitialized(av.size());
  // One fast stream per call, seeded from the layer's Rng: mask generation is
  // the hot loop of every training forward pass.
  util::FastRng fast(rng.engine()());
  for (std::size_t i = 0; i < out.size(); ++i) {
    mask[i] = fast.uniform01() < drop_p ? 0.0F : keep_scale;
    out[i] = av[i] * mask[i];
  }
  return detail::make_result(a.shape(), std::move(out), {&a}, "dropout", [&] {
    return [a_impl = a.impl(), mask = std::move(mask)](const TensorImpl& o) {
      if (!detail::wants_grad(*a_impl)) return;
      float* ga = a_impl->grad_ptr();
      const float* go = o.grad_ptr();
      const auto n = static_cast<std::size_t>(o.numel());
      for (std::size_t i = 0; i < n; ++i) ga[i] += go[i] * mask[i];
    };
  });
}

}  // namespace saga
