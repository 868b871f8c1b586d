// Eltwise driver: runtime kernel dispatch and autograd wiring for the fused
// elementwise ops. The heavy loops live in kernel_scalar.cpp /
// kernel_avx2.cpp behind the detail::Kernels table; this file validates
// shapes, resolves the kernel once per op call, and builds backward closures
// lazily through detail::make_result (so NoGrad forwards allocate no tape
// state at all). Backward closures capture the same kernel table the forward
// used — a forward/backward pair never mixes kernels.
//
// View handling: the kernels sweep dense storage, so inputs are contiguized
// at entry (an identity — no copy, no node — for tensors that already are,
// including contiguous views). The one deliberate exception is gru_cell's gi
// operand, which is consumed as a row-strided view so per-timestep slices of
// a precomputed [B, T, 3H] gate buffer feed the cell copy-free.
//
// All kernels run serially on the calling thread, which keeps every sweep
// trivially deterministic. That is not free at pre-training shapes: the
// bias-GELU over a 128-window batch's FFN activations sweeps 15360 rows of
// 96, far more work than a fork-join call costs, so these sweeps are a
// serial share of the training step that splitting rows over the pool
// would remove.
#include "tensor/eltwise/eltwise.hpp"

#include <memory>
#include <stdexcept>

#include "tensor/cpu.hpp"
#include "tensor/eltwise/kernels.hpp"
#include "tensor/shape_ops.hpp"

namespace saga::eltwise {

namespace {

// SAGA_FORCE_SCALAR=1 (cpu::features) pins dispatch to the portable kernels.
bool avx2_dispatchable() {
  return cpu_supports_avx2() && !cpu::features().force_scalar;
}

Kernel resolve_auto() {
  static const Kernel picked =
      avx2_dispatchable() ? Kernel::kAvx2 : Kernel::kScalar;
  return picked;
}

// Per-thread test/bench pin installed by ForceKernelGuard.
thread_local Kernel t_forced = Kernel::kAuto;

const detail::Kernels& table_for(Kernel kernel) {
  switch (kernel) {
    case Kernel::kScalar:
      return detail::scalar_kernels();
    case Kernel::kAvx2: {
      if (!cpu_supports_avx2()) {
        throw std::runtime_error(
            "eltwise: AVX2 kernels requested but not available "
            "(unsupported CPU or build)");
      }
      return *detail::avx2_kernels();
    }
    case Kernel::kAuto:
      break;
  }
  return table_for(t_forced != Kernel::kAuto ? t_forced : resolve_auto());
}

void check_bias(const Tensor& x, const Tensor& bias, const char* op) {
  if (bias.dim() != 1 || x.dim() < 1 || x.size(-1) != bias.numel()) {
    throw std::invalid_argument(std::string(op) + ": bias must be [D] with D" +
                                " == x's last dimension, got x " +
                                shape_str(x.shape()) + " bias " +
                                shape_str(bias.shape()));
  }
}

}  // namespace

const detail::Kernels& detail::active_kernels() {
  return table_for(Kernel::kAuto);
}

bool cpu_supports_avx2() {
  return detail::avx2_kernels() != nullptr && cpu::features().avx2_fma;
}

std::vector<Kernel> available_kernels() {
  std::vector<Kernel> kernels{Kernel::kScalar};
  if (avx2_dispatchable()) kernels.push_back(Kernel::kAvx2);
  return kernels;
}

std::string kernel_name(Kernel kernel) {
  if (kernel == Kernel::kAuto) {
    kernel = t_forced != Kernel::kAuto ? t_forced : resolve_auto();
  }
  return kernel == Kernel::kAvx2 ? "avx2-m256" : "scalar";
}

ForceKernelGuard::ForceKernelGuard(Kernel kernel) : previous_(t_forced) {
  if (kernel != Kernel::kAuto) table_for(kernel);  // validates availability
  t_forced = kernel;
}

ForceKernelGuard::~ForceKernelGuard() { t_forced = previous_; }

Tensor bias_add(const Tensor& x_in, const Tensor& bias_in) {
  check_bias(x_in, bias_in, "bias_add");
  const Tensor x = contiguous(x_in);
  const Tensor bias = contiguous(bias_in);
  const std::int64_t m = bias.numel();
  const std::int64_t blocks = x.numel() / m;
  const detail::Kernels& kt = detail::active_kernels();
  Buffer out = Buffer::uninitialized(static_cast<std::size_t>(x.numel()));
  kt.tile_add(x.impl()->data_ptr(), bias.impl()->data_ptr(), 1.0F, out.data(),
              blocks, m);
  return saga::detail::make_result(
      x.shape(), std::move(out), {&x, &bias}, "bias_add", [&] {
        return [x_impl = x.impl(), b_impl = bias.impl(), kt = &kt, blocks,
                m](const TensorImpl& o) {
          const float* go = o.grad_ptr();
          if (saga::detail::wants_grad(*x_impl)) {
            float* gx = x_impl->grad_ptr();
            const auto n = static_cast<std::size_t>(o.numel());
            for (std::size_t i = 0; i < n; ++i) gx[i] += go[i];
          }
          if (saga::detail::wants_grad(*b_impl)) {
            kt->tile_add_bwd(go, 1.0F, b_impl->grad_ptr(), blocks, m);
          }
        };
      });
}

Tensor scale_add(const Tensor& x_in, const Tensor& tile_in, float alpha) {
  const std::int64_t rank = x_in.dim();
  const std::int64_t tile_rank = tile_in.dim();
  bool suffix_ok = tile_rank >= 1 && tile_rank <= rank;
  for (std::int64_t d = 0; suffix_ok && d < tile_rank; ++d) {
    suffix_ok = tile_in.size(tile_rank - 1 - d) == x_in.size(rank - 1 - d);
  }
  if (!suffix_ok) {
    throw std::invalid_argument(
        "scale_add: tile shape must be a suffix of x's shape, got x " +
        shape_str(x_in.shape()) + " tile " + shape_str(tile_in.shape()));
  }
  const Tensor x = contiguous(x_in);
  const Tensor tile = contiguous(tile_in);
  const std::int64_t m = tile.numel();
  const std::int64_t blocks = x.numel() / m;
  const detail::Kernels& kt = detail::active_kernels();
  Buffer out = Buffer::uninitialized(static_cast<std::size_t>(x.numel()));
  kt.tile_add(x.impl()->data_ptr(), tile.impl()->data_ptr(), alpha, out.data(),
              blocks, m);
  return saga::detail::make_result(
      x.shape(), std::move(out), {&x, &tile}, "scale_add", [&] {
        return [x_impl = x.impl(), t_impl = tile.impl(), kt = &kt, alpha,
                blocks, m](const TensorImpl& o) {
          const float* go = o.grad_ptr();
          if (saga::detail::wants_grad(*x_impl)) {
            float* gx = x_impl->grad_ptr();
            const auto n = static_cast<std::size_t>(o.numel());
            for (std::size_t i = 0; i < n; ++i) gx[i] += go[i];
          }
          if (saga::detail::wants_grad(*t_impl)) {
            kt->tile_add_bwd(go, alpha, t_impl->grad_ptr(), blocks, m);
          }
        };
      });
}

Tensor bias_gelu(const Tensor& x_in, const Tensor& bias_in) {
  const bool with_bias = bias_in.defined();
  if (with_bias) check_bias(x_in, bias_in, "bias_gelu");
  const Tensor x = contiguous(x_in);
  const Tensor bias = with_bias ? contiguous(bias_in) : bias_in;
  const std::int64_t m = with_bias ? bias.numel() : x.numel();
  const std::int64_t blocks = with_bias ? x.numel() / m : 1;
  const detail::Kernels& kt = detail::active_kernels();
  Buffer out = Buffer::uninitialized(static_cast<std::size_t>(x.numel()));
  kt.bias_gelu(x.impl()->data_ptr(),
               with_bias ? bias.impl()->data_ptr() : nullptr, out.data(),
               blocks, m);

  const auto backward_factory = [&] {
    return [x_impl = x.impl(),
            b_impl = with_bias ? bias.impl() : std::shared_ptr<TensorImpl>(),
            kt = &kt, blocks, m](const TensorImpl& o) {
      const bool need_x = saga::detail::wants_grad(*x_impl);
      const bool need_b =
          b_impl != nullptr && saga::detail::wants_grad(*b_impl);
      if (!need_x && !need_b) return;
      kt->bias_gelu_bwd(x_impl->data_ptr(),
                        b_impl == nullptr ? nullptr : b_impl->data_ptr(),
                        o.grad_ptr(), need_x ? x_impl->grad_ptr() : nullptr,
                        need_b ? b_impl->grad_ptr() : nullptr, blocks, m);
    };
  };
  if (with_bias) {
    return saga::detail::make_result(x.shape(), std::move(out), {&x, &bias},
                                     "bias_gelu", backward_factory);
  }
  return saga::detail::make_result(x.shape(), std::move(out), {&x}, "gelu",
                                   backward_factory);
}

Tensor residual_layer_norm(const Tensor& x_in, const Tensor& residual_in,
                           const Tensor& gamma_in, const Tensor& beta_in,
                           float eps) {
  const std::int64_t d = x_in.size(-1);
  const std::int64_t rows = x_in.numel() / d;
  if (gamma_in.numel() != d || beta_in.numel() != d) {
    throw std::invalid_argument(
        "residual_layer_norm: gamma/beta must be [D], got D = " +
        std::to_string(d));
  }
  const bool with_residual = residual_in.defined();
  if (with_residual && residual_in.shape() != x_in.shape()) {
    throw std::invalid_argument(
        "residual_layer_norm: residual shape " +
        shape_str(residual_in.shape()) + " must match x " +
        shape_str(x_in.shape()));
  }
  const Tensor x = contiguous(x_in);
  const Tensor residual = with_residual ? contiguous(residual_in) : residual_in;
  const Tensor gamma = contiguous(gamma_in);
  const Tensor beta = contiguous(beta_in);
  const detail::Kernels& kt = detail::active_kernels();
  // xhat / inv_std are backward-only state: computed and saved only when the
  // tape is active (the y arithmetic is identical either way, keeping NoGrad
  // and tape forwards bit-identical).
  const bool tape =
      with_residual
          ? saga::detail::tape_active({&x, &residual, &gamma, &beta})
          : saga::detail::tape_active({&x, &gamma, &beta});
  Buffer out = Buffer::uninitialized(static_cast<std::size_t>(x.numel()));
  Buffer xhat =
      Buffer::uninitialized(tape ? static_cast<std::size_t>(x.numel()) : 0);
  Buffer inv_std =
      Buffer::uninitialized(tape ? static_cast<std::size_t>(rows) : 0);
  kt.layer_norm(x.impl()->data_ptr(),
                with_residual ? residual.impl()->data_ptr() : nullptr,
                gamma.impl()->data_ptr(), beta.impl()->data_ptr(), eps,
                out.data(), tape ? xhat.data() : nullptr,
                tape ? inv_std.data() : nullptr, rows, d);

  const auto backward_factory = [&] {
    return [x_impl = x.impl(),
            r_impl = with_residual ? residual.impl()
                                   : std::shared_ptr<TensorImpl>(),
            g_impl = gamma.impl(), b_impl = beta.impl(), kt = &kt, rows, d,
            xhat = std::move(xhat),
            inv_std = std::move(inv_std)](const TensorImpl& o) {
      const bool need_x = saga::detail::wants_grad(*x_impl);
      const bool need_r =
          r_impl != nullptr && saga::detail::wants_grad(*r_impl);
      const bool need_g = saga::detail::wants_grad(*g_impl);
      const bool need_b = saga::detail::wants_grad(*b_impl);
      if (!need_x && !need_r && !need_g && !need_b) return;
      kt->layer_norm_bwd(xhat.data(), inv_std.data(), g_impl->data_ptr(),
                         o.grad_ptr(), need_x ? x_impl->grad_ptr() : nullptr,
                         need_r ? r_impl->grad_ptr() : nullptr,
                         need_g ? g_impl->grad_ptr() : nullptr,
                         need_b ? b_impl->grad_ptr() : nullptr, rows, d);
    };
  };
  if (with_residual) {
    return saga::detail::make_result(x.shape(), std::move(out),
                                     {&x, &residual, &gamma, &beta},
                                     "residual_layer_norm", backward_factory);
  }
  return saga::detail::make_result(x.shape(), std::move(out),
                                   {&x, &gamma, &beta}, "layer_norm",
                                   backward_factory);
}

Tensor gru_cell(const Tensor& gi_in, const Tensor& gh_in, const Tensor& h_in) {
  if (h_in.dim() != 2 || gi_in.dim() != 2 || gh_in.dim() != 2) {
    throw std::invalid_argument("gru_cell: expects 2-D tensors, got gi " +
                                shape_str(gi_in.shape()) + " gh " +
                                shape_str(gh_in.shape()) + " h " +
                                shape_str(h_in.shape()));
  }
  const std::int64_t batch = h_in.size(0);
  const std::int64_t hidden = h_in.size(1);
  if (gi_in.size(0) != batch || gi_in.size(1) != 3 * hidden ||
      gh_in.size(0) != batch || gh_in.size(1) != 3 * hidden) {
    throw std::invalid_argument(
        "gru_cell: gi/gh must be [B, 3H] for h [B, H], got gi " +
        shape_str(gi_in.shape()) + " gh " + shape_str(gh_in.shape()) + " h " +
        shape_str(h_in.shape()));
  }
  // gi keeps its strided-view form when rows are dense (unit inner stride and
  // non-overlapping rows) — the timestep slice of the precomputed [B, T, 3H]
  // gate buffer lands here with row stride T*3H, consumed copy-free. The
  // backward then scatters dgi straight into the base buffer's grad through
  // the same strides.
  const bool gi_rows_dense = gi_in.impl()->strides[1] == 1 &&
                             gi_in.impl()->strides[0] >= 3 * hidden;
  const Tensor gi = gi_rows_dense ? gi_in : contiguous(gi_in);
  const std::int64_t gi_stride = gi.impl()->strides[0];
  const Tensor gh = contiguous(gh_in);
  const Tensor h = contiguous(h_in);
  const detail::Kernels& kt = detail::active_kernels();
  // Gate activations r/z/n are backward-only state, saved only when the tape
  // is active; the forward arithmetic is identical either way.
  const bool tape = saga::detail::tape_active({&gi, &gh, &h});
  Buffer rzn = Buffer::uninitialized(
      tape ? static_cast<std::size_t>(batch * 3 * hidden) : 0);
  Buffer out = Buffer::uninitialized(static_cast<std::size_t>(batch * hidden));
  kt.gru_cell(gi.impl()->data_ptr(), gi_stride, gh.impl()->data_ptr(),
              h.impl()->data_ptr(), out.data(), tape ? rzn.data() : nullptr,
              batch, hidden);
  return saga::detail::make_result(
      {batch, hidden}, std::move(out), {&gi, &gh, &h}, "gru_cell", [&] {
        return [gi_impl = gi.impl(), gh_impl = gh.impl(), h_impl = h.impl(),
                kt = &kt, gi_stride, rzn = std::move(rzn), batch,
                hidden](const TensorImpl& o) {
          const bool need_gi = saga::detail::wants_grad(*gi_impl);
          const bool need_gh = saga::detail::wants_grad(*gh_impl);
          const bool need_h = saga::detail::wants_grad(*h_impl);
          if (!need_gi && !need_gh && !need_h) return;
          kt->gru_cell_bwd(rzn.data(), gh_impl->data_ptr(),
                           h_impl->data_ptr(), o.grad_ptr(),
                           need_gi ? gi_impl->grad_ptr() : nullptr, gi_stride,
                           need_gh ? gh_impl->grad_ptr() : nullptr,
                           need_h ? h_impl->grad_ptr() : nullptr, batch,
                           hidden);
        };
      });
}

void bias_act_quantize(const float* x, const float* bias, std::int64_t rows,
                       std::int64_t d, bool gelu, float act_scale,
                       std::int32_t act_zero, std::int32_t act_max,
                       std::uint8_t* out, std::int64_t out_stride) {
  if (out_stride < d) {
    throw std::invalid_argument(
        "bias_act_quantize: out_stride must cover the row width");
  }
  if (rows <= 0 || d <= 0) return;
  // Reciprocal (not division per element) to match quantize_activations'
  // arithmetic exactly — the fused path must be bit-identical to the
  // two-pass composition it replaces.
  const float inv = 1.0F / act_scale;
  detail::active_kernels().bias_act_quant(x, bias, gelu, inv, act_zero,
                                          act_max, out, out_stride, rows, d);
}

}  // namespace saga::eltwise
