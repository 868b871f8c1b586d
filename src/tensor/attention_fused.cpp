#include "tensor/attention_fused.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "tensor/eltwise/kernels.hpp"
#include "tensor/gemm/gemm.hpp"
#include "tensor/shape_ops.hpp"
#include "util/thread_pool.hpp"

namespace saga {

namespace {

// Strided head view: element (t, c) of head h in a [B, T, D] tensor.
inline std::int64_t offset(std::int64_t b, std::int64_t t, std::int64_t c,
                           std::int64_t seq, std::int64_t dim) {
  return (b * seq + t) * dim + c;
}

// Per-(batch, head) GEMM on [B,T,D] slabs: the head's [T, head_dim] panel is
// a strided view with row stride `dim`, which the gemm driver packs directly
// — no per-head copies. Runs serially; parallelism lives at the (b,h) level.
inline void head_gemm(const float* a, std::int64_t lda, const float* b,
                      std::int64_t ldb, float* c, std::int64_t ldc,
                      std::int64_t m, std::int64_t n, std::int64_t k,
                      bool trans_a, bool trans_b, bool accumulate) {
  gemm::gemm(a, lda, b, ldb, c, ldc, m, n, k, trans_a, trans_b, accumulate,
             gemm::Kernel::kAuto, /*parallel=*/false);
}

}  // namespace

Tensor fused_multi_head_attention(const Tensor& q_in, const Tensor& k_in,
                                  const Tensor& v_in, std::int64_t num_heads) {
  if (q_in.dim() != 3 || k_in.shape() != q_in.shape() ||
      v_in.shape() != q_in.shape()) {
    throw std::invalid_argument("fused_attention: q/k/v must share [B,T,D]");
  }
  const Tensor q = contiguous(q_in);
  const Tensor k = contiguous(k_in);
  const Tensor v = contiguous(v_in);
  const std::int64_t batch = q.size(0);
  const std::int64_t seq = q.size(1);
  const std::int64_t dim = q.size(2);
  if (dim % num_heads != 0) {
    throw std::invalid_argument("fused_attention: D % heads != 0");
  }
  const std::int64_t head_dim = dim / num_heads;
  const float inv_sqrt_d = 1.0F / std::sqrt(static_cast<float>(head_dim));

  const float* qd = q.data().data();
  const float* kd = k.data().data();
  const float* vd = v.data().data();

  std::vector<float> out(static_cast<std::size_t>(batch * seq * dim));
  // Softmax probabilities are backward-only state. Under the tape they are
  // saved for all pairs ([B, H, T, T], shared with the backward closure);
  // under NoGrad each worker reuses a per-thread [T, T] scratch instead —
  // same arithmetic, no B*H-sized allocation. The saved buffer is left
  // uninitialized: the scores GEMM overwrites every element, and each worker
  // first-touches its own pairs.
  const bool tape = detail::tape_active({&q, &k, &v});
  std::shared_ptr<float[]> probs;
  if (tape) {
    probs = std::make_shared_for_overwrite<float[]>(
        static_cast<std::size_t>(batch * num_heads * seq * seq));
  }
  // The softmax kernel pair is resolved here, on the calling thread: the
  // (b, h) loop runs on pool workers, and a caller's eltwise pin is
  // thread-local. The backward closure reuses the forward's pair.
  const eltwise::detail::Kernels* kt = &eltwise::detail::active_kernels();

  const std::int64_t pairs = batch * num_heads;
  util::parallel_for(0, static_cast<std::size_t>(pairs), [&](std::size_t pair) {
    const std::int64_t b = static_cast<std::int64_t>(pair) / num_heads;
    const std::int64_t h = static_cast<std::int64_t>(pair) % num_heads;
    const std::int64_t c0 = h * head_dim;  // head channel offset
    thread_local std::vector<float> scores_scratch;
    float* prow_base;
    if (tape) {
      prow_base = probs.get() + pair * seq * seq;
    } else {
      if (static_cast<std::int64_t>(scores_scratch.size()) < seq * seq) {
        scores_scratch.resize(static_cast<std::size_t>(seq * seq));
      }
      prow_base = scores_scratch.data();
    }

    // Scores: P = Q_h x K_h^T (both [T, head_dim] strided views).
    head_gemm(qd + offset(b, 0, c0, seq, dim), dim,
              kd + offset(b, 0, c0, seq, dim), dim, prow_base, seq, seq, seq,
              head_dim, /*trans_a=*/false, /*trans_b=*/true,
              /*accumulate=*/false);
    // Scale + row-wise stable softmax in place.
    kt->softmax_rows(prow_base, seq, seq, inv_sqrt_d);
    // Context: Out_h = P x V_h.
    head_gemm(prow_base, seq, vd + offset(b, 0, c0, seq, dim), dim,
              out.data() + offset(b, 0, c0, seq, dim), dim, seq, head_dim, seq,
              /*trans_a=*/false, /*trans_b=*/false, /*accumulate=*/false);
  });

  return detail::make_result(
      q.shape(), std::move(out), {&q, &k, &v}, "fused_attention", [&] {
    return [q_impl = q.impl(), k_impl = k.impl(), v_impl = v.impl(), probs,
            kt, batch, seq, dim, num_heads, head_dim,
            inv_sqrt_d](const TensorImpl& o) {
        const bool need_q = detail::wants_grad(*q_impl);
        const bool need_k = detail::wants_grad(*k_impl);
        const bool need_v = detail::wants_grad(*v_impl);
        if (!need_q && !need_k && !need_v) return;
        float* gq = need_q ? q_impl->grad_ptr() : nullptr;
        float* gk = need_k ? k_impl->grad_ptr() : nullptr;
        float* gv = need_v ? v_impl->grad_ptr() : nullptr;
        const float* qb = q_impl->data_ptr();
        const float* kb = k_impl->data_ptr();
        const float* go = o.grad_ptr();

        // Parallel over (b, h): every pair touches disjoint channel ranges of
        // the gradients, so no synchronization is needed.
        const std::int64_t bwd_pairs = batch * num_heads;
        util::parallel_for(0, static_cast<std::size_t>(bwd_pairs), [&](std::size_t pair) {
          const std::int64_t b = static_cast<std::int64_t>(pair) / num_heads;
          const std::int64_t h = static_cast<std::int64_t>(pair) % num_heads;
          const std::int64_t c0 = h * head_dim;
          const float* prow_base = probs.get() + pair * seq * seq;
          const float* go_h = go + offset(b, 0, c0, seq, dim);

          // dV_h += P^T x dOut_h.
          if (gv != nullptr) {
            head_gemm(prow_base, seq, go_h, dim,
                      gv + offset(b, 0, c0, seq, dim), dim, seq, head_dim, seq,
                      /*trans_a=*/true, /*trans_b=*/false, /*accumulate=*/true);
          }
          if (gq == nullptr && gk == nullptr) return;

          // dP = dOut_h x V_h^T, then in place dS_ij = P_ij (dP_ij - dP.P_i)
          // / sqrt(d) (softmax backward fused with the score scale).
          // Reused per pool thread across pairs/calls to avoid a seq x seq
          // allocation inside the hot loop.
          thread_local std::vector<float> ds;
          if (static_cast<std::int64_t>(ds.size()) < seq * seq) {
            ds.resize(static_cast<std::size_t>(seq * seq));
          }
          head_gemm(go_h, dim, v_impl->data_ptr() + offset(b, 0, c0, seq, dim),
                    dim, ds.data(), seq, seq, seq, head_dim, /*trans_a=*/false,
                    /*trans_b=*/true, /*accumulate=*/false);
          kt->softmax_rows_bwd(prow_base, ds.data(), seq, seq, inv_sqrt_d);
          // dQ_h += dS x K_h and dK_h += dS^T x Q_h.
          if (gq != nullptr) {
            head_gemm(ds.data(), seq, kb + offset(b, 0, c0, seq, dim), dim,
                      gq + offset(b, 0, c0, seq, dim), dim, seq, head_dim, seq,
                      /*trans_a=*/false, /*trans_b=*/false,
                      /*accumulate=*/true);
          }
          if (gk != nullptr) {
            head_gemm(ds.data(), seq, qb + offset(b, 0, c0, seq, dim), dim,
                      gk + offset(b, 0, c0, seq, dim), dim, seq, head_dim, seq,
                      /*trans_a=*/true, /*trans_b=*/false, /*accumulate=*/true);
          }
        });
    };
  });
}

}  // namespace saga
