#include "tensor/matmul.hpp"

#include <stdexcept>

#include "tensor/gemm/gemm.hpp"
#include "tensor/shape_ops.hpp"
#include "util/thread_pool.hpp"

namespace saga {

namespace {

// A matmul operand resolved to a dense 2-D storage description the strided
// GEMM entry can consume directly. Views whose last dimension is unit-stride
// (row-strided slices, contiguous reshapes) pass through with ld = row
// stride; views whose second-to-last dimension is unit-stride (transposes)
// pass through with the effective trans flag flipped — both without copying.
// Anything else (rare) falls back to one materializing copy.
struct Operand {
  Tensor t;                 // resolved tensor; the op's recorded input
  std::int64_t ld = 0;      // leading dimension of the stored matrix
  bool trans = false;       // stored -> logical needs a transpose
  std::int64_t batch_stride = 0;  // storage elements between batches (3-D)
};

Operand resolve(const Tensor& t, bool requested_trans) {
  const TensorImpl& impl = *t.impl();
  const std::size_t rank = impl.shape.size();
  const std::int64_t rows = impl.shape[rank - 2];
  const std::int64_t cols = impl.shape[rank - 1];
  const std::int64_t rs = impl.strides[rank - 2];
  const std::int64_t cs = impl.strides[rank - 1];
  const auto bs = [&](const TensorImpl& i) {
    return rank == 3 ? i.strides[0] : 0;
  };
  if (cs == 1 && rs >= cols) {
    return {t, rs, requested_trans, bs(impl)};
  }
  if (rs == 1 && cs >= rows) {
    // Stored transposed: the buffer holds the logical matrix's transpose.
    return {t, cs, !requested_trans, bs(impl)};
  }
  Tensor c = contiguous(t);
  return {c, cols, requested_trans, bs(*c.impl())};
}

// Accumulates the gradients of one batch's stored operand buffers given the
// effective layout (pa/pb stored matrices with leading dims la/lb and trans
// flags ta/tb; go is the dense [M,N] output gradient). Derivations mirror
// the four cases below in storage space: grad-of-stored = grad-of-logical,
// transposed when the operand is stored transposed.
void accumulate_operand_grads(const float* go, const float* pa, float* ga,
                              std::int64_t la, bool ta, const float* pb,
                              float* gb, std::int64_t lb, bool tb,
                              std::int64_t m, std::int64_t n, std::int64_t k,
                              bool parallel) {
  if (ga != nullptr) {
    if (!ta) {
      // Stored A is [M,K]: dA = dC[M,N] x B_logical^T. With B stored [K,N]
      // (!tb) read transposed; stored [N,K] (tb) read as-is.
      gemm::gemm(go, n, pb, lb, ga, la, m, k, n, false, !tb, true,
                 gemm::Kernel::kAuto, parallel);
    } else {
      // Stored A is [K,M]: dA_st = B_logical x dC^T (rows K, cols M,
      // inner N).
      gemm::gemm(pb, lb, go, n, ga, la, k, m, n, tb, true, true,
                 gemm::Kernel::kAuto, parallel);
    }
  }
  if (gb != nullptr) {
    if (!tb) {
      // Stored B is [K,N]: dB = A_logical^T x dC (rows K, cols N, inner M).
      gemm::gemm(pa, la, go, n, gb, lb, k, n, m, !ta, false, true,
                 gemm::Kernel::kAuto, parallel);
    } else {
      // Stored B is [N,K]: dB_st = dC^T x A_logical (rows N, cols K,
      // inner M).
      gemm::gemm(go, n, pa, la, gb, lb, n, k, m, true, ta, true,
                 gemm::Kernel::kAuto, parallel);
    }
  }
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (a.dim() != 2 || b.dim() != 2) {
    throw std::invalid_argument("matmul: expects 2-D tensors, got " +
                                shape_str(a.shape()) + " x " +
                                shape_str(b.shape()));
  }
  const std::int64_t m = a.size(0);
  const std::int64_t k = a.size(1);
  const std::int64_t n = b.size(1);
  if (b.size(0) != k) {
    throw std::invalid_argument("matmul: inner dims differ: " +
                                shape_str(a.shape()) + " x " +
                                shape_str(b.shape()));
  }
  const Operand oa = resolve(a, false);
  const Operand ob = resolve(b, false);
  // gemm(accumulate=false) writes every element.
  Buffer out = Buffer::uninitialized(static_cast<std::size_t>(m * n));
  gemm::gemm(oa.t.impl()->data_ptr(), oa.ld, ob.t.impl()->data_ptr(), ob.ld,
             out.data(), n, m, n, k, oa.trans, ob.trans,
             /*accumulate=*/false);

  return detail::make_result(
      {m, n}, std::move(out), {&oa.t, &ob.t}, "matmul", [&] {
    return [a_impl = oa.t.impl(), b_impl = ob.t.impl(), la = oa.ld,
            lb = ob.ld, ta = oa.trans, tb = ob.trans, m, n,
            k](const TensorImpl& o) {
      const bool need_a = detail::wants_grad(*a_impl);
      const bool need_b = detail::wants_grad(*b_impl);
      if (!need_a && !need_b) return;
      accumulate_operand_grads(
          o.grad_ptr(), a_impl->data_ptr(),
          need_a ? a_impl->grad_ptr() : nullptr, la, ta, b_impl->data_ptr(),
          need_b ? b_impl->grad_ptr() : nullptr, lb, tb, m, n, k,
          /*parallel=*/true);
    };
  });
}

Tensor bmm(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  if (a.dim() != 3 || b.dim() != 3) {
    throw std::invalid_argument("bmm: expects 3-D tensors, got " +
                                shape_str(a.shape()) + " x " +
                                shape_str(b.shape()));
  }
  const std::int64_t batch = a.size(0);
  if (b.size(0) != batch) {
    throw std::invalid_argument("bmm: batch mismatch: " + shape_str(a.shape()) +
                                " x " + shape_str(b.shape()));
  }
  const std::int64_t m = trans_a ? a.size(2) : a.size(1);
  const std::int64_t ka = trans_a ? a.size(1) : a.size(2);
  const std::int64_t kb = trans_b ? b.size(2) : b.size(1);
  const std::int64_t n = trans_b ? b.size(1) : b.size(2);
  if (ka != kb) {
    throw std::invalid_argument("bmm: inner dims differ: " +
                                shape_str(a.shape()) + " x " +
                                shape_str(b.shape()));
  }
  const std::int64_t k = ka;
  const Operand oa = resolve(a, trans_a);
  const Operand ob = resolve(b, trans_b);
  const std::int64_t c_stride = m * n;

  Buffer out = Buffer::uninitialized(static_cast<std::size_t>(batch * m * n));
  const float* ad = oa.t.impl()->data_ptr();
  const float* bd = ob.t.impl()->data_ptr();
  // Parallelism lives at the batch level; each per-batch GEMM runs serially.
  util::parallel_for(0, static_cast<std::size_t>(batch), [&](std::size_t i) {
    const auto bi = static_cast<std::int64_t>(i);
    gemm::gemm(ad + bi * oa.batch_stride, oa.ld, bd + bi * ob.batch_stride,
               ob.ld, out.data() + bi * c_stride, n, m, n, k, oa.trans,
               ob.trans, /*accumulate=*/false, gemm::Kernel::kAuto,
               /*parallel=*/false);
  });

  return detail::make_result(
      {batch, m, n}, std::move(out), {&oa.t, &ob.t}, "bmm", [&] {
    return [a_impl = oa.t.impl(), b_impl = ob.t.impl(), la = oa.ld,
            lb = ob.ld, ta = oa.trans, tb = ob.trans,
            as = oa.batch_stride, bs = ob.batch_stride, batch, m, n, k,
            c_stride](const TensorImpl& o) {
        const bool need_a = detail::wants_grad(*a_impl);
        const bool need_b = detail::wants_grad(*b_impl);
        if (!need_a && !need_b) return;
        const float* go = o.grad_ptr();
        const float* adata = a_impl->data_ptr();
        const float* bdata = b_impl->data_ptr();
        float* ga = need_a ? a_impl->grad_ptr() : nullptr;
        float* gb = need_b ? b_impl->grad_ptr() : nullptr;
        util::parallel_for(0, static_cast<std::size_t>(batch), [&](std::size_t i) {
          const auto bi = static_cast<std::int64_t>(i);
          accumulate_operand_grads(
              go + bi * c_stride, adata + bi * as,
              ga != nullptr ? ga + bi * as : nullptr, la, ta, bdata + bi * bs,
              gb != nullptr ? gb + bi * bs : nullptr, lb, tb, m, n, k,
              /*parallel=*/false);
        });
    };
  });
}

}  // namespace saga
