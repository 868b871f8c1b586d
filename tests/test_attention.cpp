#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "gradcheck.hpp"
#include "nn/attention.hpp"
#include "softmax_reference.hpp"
#include "tensor/attention_fused.hpp"
#include "tensor/eltwise/eltwise.hpp"
#include "tensor/gemm/gemm.hpp"
#include "tensor/reduce.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace saga {
namespace {

TEST(FusedAttention, OutputShape) {
  util::Rng rng(1);
  Tensor q = Tensor::randn({2, 5, 8}, rng);
  Tensor k = Tensor::randn({2, 5, 8}, rng);
  Tensor v = Tensor::randn({2, 5, 8}, rng);
  Tensor out = fused_multi_head_attention(q, k, v, 2);
  EXPECT_EQ(out.shape(), (Shape{2, 5, 8}));
}

TEST(FusedAttention, RejectsBadShapes) {
  util::Rng rng(2);
  Tensor q = Tensor::randn({2, 5, 8}, rng);
  Tensor k = Tensor::randn({2, 5, 6}, rng);
  EXPECT_THROW(fused_multi_head_attention(q, k, q, 2), std::invalid_argument);
  EXPECT_THROW(fused_multi_head_attention(q, q, q, 3), std::invalid_argument);
}

TEST(FusedAttention, SingleHeadUniformValuesAveragesV) {
  // With q = 0, scores are constant -> softmax uniform -> output = mean of V.
  Tensor q = Tensor::zeros({1, 3, 2});
  Tensor k = Tensor::zeros({1, 3, 2});
  Tensor v = Tensor::from_data({1, 3, 2}, {1, 10, 2, 20, 3, 30});
  Tensor out = fused_multi_head_attention(q, k, v, 1);
  EXPECT_NEAR(out.at(0), 2.0F, 1e-5F);
  EXPECT_NEAR(out.at(1), 20.0F, 1e-5F);
}

TEST(FusedAttention, MatchesComposedPath) {
  // Composed reference path (eval mode, dropout off) must match the fused op.
  util::Rng rng(3);
  nn::MultiHeadSelfAttention attention(8, 2, /*dropout_p=*/0.0, rng, 7);
  attention.set_training(false);
  Tensor x = Tensor::randn({2, 6, 8}, rng);

  Tensor fused = attention.forward(x);
  Tensor composed = attention.forward_composed(x);
  ASSERT_EQ(fused.shape(), composed.shape());
  for (std::int64_t i = 0; i < fused.numel(); ++i) {
    EXPECT_NEAR(fused.at(i), composed.at(i), 1e-4F);
  }
}

TEST(FusedAttention, GradCheckAllInputs) {
  util::Rng rng(4);
  Tensor q = Tensor::randn({1, 4, 4}, rng, 0.5F);
  Tensor k = Tensor::randn({1, 4, 4}, rng, 0.5F);
  Tensor v = Tensor::randn({1, 4, 4}, rng, 0.5F);
  Tensor w = Tensor::randn({1, 4, 4}, rng);
  saga::testing::check_gradients(
      [&]() { return sum(mul(fused_multi_head_attention(q, k, v, 2), w)); },
      {q, k, v});
}

TEST(FusedAttention, GradMatchesComposedPathGrad) {
  util::Rng rng(5);
  nn::MultiHeadSelfAttention attention(8, 2, 0.0, rng, 7);
  attention.set_training(false);
  Tensor x1 = Tensor::randn({2, 5, 8}, rng);
  Tensor x2 = x1.clone();
  x1.set_requires_grad(true);
  x2.set_requires_grad(true);

  attention.zero_grad();
  Tensor loss1 = sum(square(attention.forward(x1)));
  loss1.backward();

  attention.zero_grad();
  Tensor loss2 = sum(square(attention.forward_composed(x2)));
  loss2.backward();

  EXPECT_NEAR(loss1.item(), loss2.item(), 1e-3F);
  const auto g1 = x1.grad();
  const auto g2 = x2.grad();
  for (std::size_t i = 0; i < g1.size(); ++i) {
    EXPECT_NEAR(g1[i], g2[i], 2e-3F) << "at " << i;
  }
}

std::vector<float> values_of(std::span<const float> s) {
  return {s.begin(), s.end()};
}

struct AttentionTrace {
  std::vector<float> out, gq, gk, gv;
};

// Fused attention recomputed serially, one (batch, head) pair at a time,
// with the op's own per-head GEMM calls and the reference softmax loops;
// gradients are those of loss = sum(out * w).
AttentionTrace reference_attention(const Tensor& q, const Tensor& k,
                                   const Tensor& v, const Tensor& w,
                                   std::int64_t heads) {
  const std::int64_t batch = q.size(0), seq = q.size(1), dim = q.size(2);
  const std::int64_t head_dim = dim / heads;
  const float scale = 1.0F / std::sqrt(static_cast<float>(head_dim));
  const auto n = static_cast<std::size_t>(q.numel());
  AttentionTrace r{std::vector<float>(n), std::vector<float>(n),
                   std::vector<float>(n), std::vector<float>(n)};
  std::vector<float> p(static_cast<std::size_t>(seq * seq));
  std::vector<float> ds(p.size());
  const auto head_gemm = [](const float* a, std::int64_t lda, const float* b,
                            std::int64_t ldb, float* c, std::int64_t ldc,
                            std::int64_t m, std::int64_t nn, std::int64_t kk,
                            bool trans_a, bool trans_b, bool accumulate) {
    gemm::gemm(a, lda, b, ldb, c, ldc, m, nn, kk, trans_a, trans_b, accumulate,
               gemm::Kernel::kAuto, /*parallel=*/false);
  };
  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t h = 0; h < heads; ++h) {
      const std::int64_t off = b * seq * dim + h * head_dim;
      const float* qh = q.data().data() + off;
      const float* kh = k.data().data() + off;
      const float* vh = v.data().data() + off;
      const float* go = w.data().data() + off;
      head_gemm(qh, dim, kh, dim, p.data(), seq, seq, seq, head_dim, false,
                true, false);
      saga::testing::softmax_rows_reference(p.data(), seq, seq, scale);
      head_gemm(p.data(), seq, vh, dim, r.out.data() + off, dim, seq, head_dim,
                seq, false, false, false);
      head_gemm(p.data(), seq, go, dim, r.gv.data() + off, dim, seq, head_dim,
                seq, true, false, true);
      head_gemm(go, dim, vh, dim, ds.data(), seq, seq, seq, head_dim, false,
                true, false);
      saga::testing::softmax_rows_bwd_reference(p.data(), ds.data(), seq, seq,
                                                scale);
      head_gemm(ds.data(), seq, kh, dim, r.gq.data() + off, dim, seq, head_dim,
                seq, false, false, true);
      head_gemm(ds.data(), seq, qh, dim, r.gk.data() + off, dim, seq, head_dim,
                seq, true, false, true);
    }
  }
  return r;
}

// A scalar pin on the calling thread reaches the softmax run by the pool
// workers (all 16 pairs run there), and the backward, run after the pin is
// gone, still uses the forward's kernel: forward and gradients are
// bit-identical to the reference loops. T = 13 leaves ragged vector tails;
// head_dim 6 makes the score scale inexact, so reordered scaling shows.
TEST(FusedAttention, CallerScalarPinIsBitIdenticalToReferenceLoops) {
  util::Rng rng(6);
  const std::int64_t batch = 4, seq = 13, dim = 24, heads = 4;
  Tensor q = Tensor::randn({batch, seq, dim}, rng, 1.0F, true);
  Tensor k = Tensor::randn({batch, seq, dim}, rng, 1.0F, true);
  Tensor v = Tensor::randn({batch, seq, dim}, rng, 1.0F, true);
  const Tensor w = Tensor::randn({batch, seq, dim}, rng);
  const AttentionTrace ref = reference_attention(q, k, v, w, heads);

  Tensor out;
  {
    const eltwise::ForceKernelGuard guard(eltwise::Kernel::kScalar);
    out = fused_multi_head_attention(q, k, v, heads);
  }
  sum(mul(out, w)).backward();
  EXPECT_EQ(values_of(out.data()), ref.out);
  EXPECT_EQ(values_of(q.grad()), ref.gq);
  EXPECT_EQ(values_of(k.grad()), ref.gk);
  EXPECT_EQ(values_of(v.grad()), ref.gv);
}

}  // namespace
}  // namespace saga
