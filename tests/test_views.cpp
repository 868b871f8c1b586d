// The strided-view memory model: shape ops alias one shared Storage instead
// of copying. This suite pins the aliasing semantics — view-of-view
// composition, write-through visibility in both directions, gradient
// accumulation through overlapping views into one base buffer, clone/detach
// decoupling — plus the stride-honoring at()/item() accessors and the
// zero-materializing-copy contract of a NoGrad backbone forward (counted by
// detail::materializing_copies(), the view analogue of
// autograd_nodes_created()). The BufferPool tests pin the recycling of
// Storage buffers: a warm training step takes no fresh buffer
// (detail::fresh_buffers()) and computes bit-identical results, the pool
// stays within its bound, and threads share it safely.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>

#include "gradcheck.hpp"
#include "models/backbone.hpp"
#include "models/classifier.hpp"
#include "tensor/buffer.hpp"
#include "tensor/grad_mode.hpp"
#include "tensor/loss.hpp"
#include "tensor/ops.hpp"
#include "tensor/reduce.hpp"
#include "tensor/shape_ops.hpp"
#include "util/rng.hpp"

namespace saga {
namespace {

TEST(Views, ReshapeOfContiguousAliasesStorage) {
  Tensor a = Tensor::from_data({2, 6}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  const std::uint64_t copies = detail::materializing_copies();
  Tensor b = reshape(a, {3, 4});
  Tensor c = squeeze(unsqueeze(b, 0), 0);
  EXPECT_EQ(detail::materializing_copies(), copies);
  EXPECT_EQ(b.impl()->storage, a.impl()->storage);
  EXPECT_EQ(c.impl()->storage, a.impl()->storage);
  EXPECT_TRUE(b.is_contiguous());
}

TEST(Views, TransposeAndSliceAreViews) {
  util::Rng rng(1);
  Tensor a = Tensor::randn({3, 4, 5}, rng);
  const std::uint64_t copies = detail::materializing_copies();
  Tensor t = transpose_last2(a);       // [3, 5, 4], strided
  Tensor s = slice(a, 2, 1, 3);        // [3, 4, 3], inner slice
  Tensor row = select(a, 1, 2);        // [3, 5]
  EXPECT_EQ(detail::materializing_copies(), copies);
  EXPECT_EQ(t.impl()->storage, a.impl()->storage);
  EXPECT_EQ(s.impl()->storage, a.impl()->storage);
  EXPECT_EQ(row.impl()->storage, a.impl()->storage);
  EXPECT_FALSE(t.is_contiguous());
  EXPECT_FALSE(s.is_contiguous());
}

TEST(Views, ViewOfViewComposition) {
  // transpose -> slice -> select, each a view of the previous one; every
  // element must still resolve to the right base-storage cell.
  util::Rng rng(2);
  Tensor a = Tensor::randn({2, 3, 4}, rng);
  Tensor t = transpose_last2(a);  // [2, 4, 3]
  Tensor s = slice(t, 1, 1, 2);   // [2, 2, 3] — rows 1..2 of the transpose
  Tensor v = select(s, 0, 1);     // [2, 3]
  ASSERT_EQ(v.shape(), (Shape{2, 3}));
  EXPECT_EQ(v.impl()->storage, a.impl()->storage);
  for (std::int64_t i = 0; i < 2; ++i) {
    for (std::int64_t j = 0; j < 3; ++j) {
      // v[i][j] = t[1][1 + i][j] = a[1][j][1 + i]
      EXPECT_EQ(v.at(i * 3 + j), a.at(1 * 12 + j * 4 + (1 + i)));
    }
  }
}

TEST(Views, WriteThroughBaseVisibleInViews) {
  Tensor a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = transpose_last2(a);  // [3, 2]
  Tensor r = reshape(a, {6});
  a.data()[4] = 50.0F;  // a[1][1]
  EXPECT_EQ(t.at(1 * 2 + 1), 50.0F);  // t[1][1] = a[1][1]
  EXPECT_EQ(r.at(4), 50.0F);
}

TEST(Views, WriteThroughViewVisibleInBase) {
  Tensor a = Tensor::from_data({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor row = slice(a, 0, 1, 1);  // [1, 2] — dense middle row, contiguous
  ASSERT_TRUE(row.is_contiguous());
  row.data()[0] = -9.0F;
  EXPECT_EQ(a.at(2), -9.0F);
}

TEST(Views, NonContiguousDataAccessThrows) {
  Tensor a = Tensor::zeros({2, 3});
  Tensor t = transpose_last2(a);
  EXPECT_THROW(t.data(), std::logic_error);
  EXPECT_NO_THROW(contiguous(t).data());
}

TEST(Views, CloneGathersAndDecouples) {
  Tensor a = Tensor::from_data({2, 2}, {1, 2, 3, 4});
  Tensor t = transpose_last2(a);
  Tensor c = t.clone();
  EXPECT_TRUE(c.is_contiguous());
  EXPECT_NE(c.impl()->storage, a.impl()->storage);
  // Clone captured the gathered transpose: [1, 3, 2, 4].
  EXPECT_EQ(c.at(1), 3.0F);
  a.data()[1] = 99.0F;          // a[0][1], i.e. t[1][0]
  EXPECT_EQ(t.at(2), 99.0F);    // view sees the write...
  EXPECT_EQ(c.at(2), 2.0F);     // ...the clone does not.
}

TEST(Views, DetachDecouplesGraphAndStorage) {
  util::Rng rng(3);
  Tensor a = Tensor::randn({4}, rng, 1.0F, true);
  Tensor v = slice(a, 0, 1, 2);
  Tensor d = v.detach();
  EXPECT_FALSE(d.requires_grad());
  EXPECT_EQ(d.impl()->node, nullptr);
  EXPECT_NE(d.impl()->storage, a.impl()->storage);
  a.data()[1] = 123.0F;
  EXPECT_EQ(v.at(0), 123.0F);
  EXPECT_NE(d.at(0), 123.0F);
}

// Overlapping views of one base: each view's gradient lands in the shared
// base buffer, so covered-twice elements accumulate both contributions.
TEST(Views, GradAccumulatesThroughOverlappingViews) {
  Tensor a = Tensor::from_data({4}, {1, 2, 3, 4}, true);
  Tensor s1 = slice(a, 0, 0, 3);  // elements 0..2
  Tensor s2 = slice(a, 0, 1, 3);  // elements 1..3
  Tensor loss = add(sum(square(s1)), sum(square(s2)));
  loss.backward();
  // d/da_i = 2 * a_i * (#views covering i); coverage = {1, 2, 2, 1}.
  const float cover[] = {1.0F, 2.0F, 2.0F, 1.0F};
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(a.grad()[static_cast<std::size_t>(i)],
                    2.0F * a.at(i) * cover[i])
        << "element " << i;
  }
}

TEST(Views, GradScattersThroughTransposedSlice) {
  util::Rng rng(4);
  Tensor a = Tensor::randn({3, 4, 5}, rng);
  saga::testing::check_gradients(
      [&] { return sum(square(slice(transpose_last2(a), 1, 2, 2))); }, {a});
}

TEST(Views, GradThroughViewOfViewChain) {
  util::Rng rng(5);
  Tensor a = Tensor::randn({2, 6}, rng);
  saga::testing::check_gradients(
      [&] {
        return sum(square(select(reshape(a, {2, 3, 2}), 1, 1)));
      },
      {a});
}

// Regression: at() must honor strides/offset, not index raw storage.
TEST(Views, AtHonorsStridesAndOffset) {
  Tensor a = Tensor::from_data({2, 3}, {0, 1, 2, 3, 4, 5});
  Tensor t = transpose_last2(a);  // [[0,3],[1,4],[2,5]]
  EXPECT_EQ(t.at(0), 0.0F);
  EXPECT_EQ(t.at(1), 3.0F);
  EXPECT_EQ(t.at(3), 4.0F);
  EXPECT_EQ(t.at(4), 2.0F);
  Tensor s = slice(a, 1, 1, 2);  // [[1,2],[4,5]]
  EXPECT_EQ(s.at(0), 1.0F);
  EXPECT_EQ(s.at(3), 5.0F);
  EXPECT_THROW(s.at(4), std::out_of_range);
  Tensor col = select(a, 1, 2);  // [2, 5]
  EXPECT_EQ(col.at(0), 2.0F);
  EXPECT_EQ(col.at(1), 5.0F);
}

// Regression: item() on a one-element view must read through the offset.
TEST(Views, ItemHonorsOffset) {
  Tensor a = Tensor::from_data({2, 3}, {0, 1, 2, 3, 4, 5});
  EXPECT_EQ(select(select(a, 0, 1), 0, 2).item(), 5.0F);
  EXPECT_EQ(slice(select(a, 0, 1), 0, 1, 1).item(), 4.0F);
  EXPECT_THROW(a.item(), std::logic_error);
}

TEST(Views, CopyCounterCountsOnlyRealCopies) {
  util::Rng rng(6);
  Tensor a = Tensor::randn({3, 4}, rng);
  const std::uint64_t before = detail::materializing_copies();
  (void)contiguous(a);                     // identity, no copy
  (void)reshape(a, {4, 3});                // aliasing fast path
  (void)select(a, 0, 1);                   // view
  EXPECT_EQ(detail::materializing_copies(), before);
  (void)contiguous(transpose_last2(a));    // genuine gather
  EXPECT_EQ(detail::materializing_copies(), before + 1);
  (void)reshape(transpose_last2(a), {12});  // reshape's copy fallback
  EXPECT_EQ(detail::materializing_copies(), before + 2);
}

// The tentpole contract: a NoGrad backbone forward performs zero
// materializing copies — every contiguous reshape, transpose_last2, and
// last-dim slice on the hot path stays an aliasing view (and, as before,
// allocates zero tape nodes).
TEST(Views, NoGradBackboneForwardPerformsZeroCopies) {
  models::BackboneConfig config;
  config.num_blocks = 2;
  models::LimuBertBackbone backbone(config);
  backbone.set_training(false);
  util::Rng rng(7);
  const Tensor x = Tensor::randn({2, 16, 6}, rng);

  NoGradGuard no_grad;
  (void)backbone.encode(x);  // warm-up: surfaces lazy one-time init
  const std::uint64_t copies = detail::materializing_copies();
  const std::uint64_t nodes = detail::autograd_nodes_created();
  const Tensor out = backbone.encode(x);
  EXPECT_EQ(detail::materializing_copies(), copies)
      << "NoGrad backbone forward must not materialize any view";
  EXPECT_EQ(detail::autograd_nodes_created(), nodes);
  EXPECT_EQ(out.shape(), (Shape{2, 16, config.hidden_dim}));
}

struct StepResult {
  std::vector<float> logits;
  float loss = 0.0F;
  std::vector<std::vector<float>> grads;
};

// One backbone + GRU classifier training step (forward, loss, backward);
// the graph and every op output die before it returns.
StepResult train_step(models::LimuBertBackbone& backbone,
                      models::GruClassifier& classifier, const Tensor& x,
                      const std::vector<std::int64_t>& labels) {
  backbone.zero_grad();
  classifier.zero_grad();
  const Tensor logits = classifier.forward(backbone.encode(x));
  Tensor loss = cross_entropy(logits, labels);
  loss.backward();
  StepResult result;
  result.logits.assign(logits.data().begin(), logits.data().end());
  result.loss = loss.item();
  for (Tensor p : backbone.parameters()) {
    result.grads.emplace_back(p.grad().begin(), p.grad().end());
  }
  for (Tensor p : classifier.parameters()) {
    result.grads.emplace_back(p.grad().begin(), p.grad().end());
  }
  return result;
}

// The recycling contract: once a step has run, an identical step is served
// entirely from the buffers the first one freed, and reading recycled
// (stale) buffers changes no bit of the logits, the loss or any gradient.
TEST(BufferPool, WarmTrainingStepTakesNoFreshBuffers) {
  models::BackboneConfig config;
  config.max_seq_len = 32;
  config.hidden_dim = 24;
  config.num_blocks = 2;
  config.num_heads = 2;
  config.ff_dim = 48;
  config.dropout = 0.0;
  models::LimuBertBackbone backbone(config);
  models::ClassifierConfig head;
  head.input_dim = config.hidden_dim;
  head.gru_hidden = 16;
  models::GruClassifier classifier(head);
  util::Rng rng(11);
  const Tensor x = Tensor::randn({8, 32, 6}, rng);
  const std::vector<std::int64_t> labels{0, 1, 2, 3, 4, 5, 0, 1};

  const StepResult first = train_step(backbone, classifier, x, labels);
  ASSERT_GT(detail::buffer_pool_stats().parked_bytes, 0U)
      << "the first step's buffers must be parked for reuse";
  const std::uint64_t fresh = detail::fresh_buffers();
  const StepResult second = train_step(backbone, classifier, x, labels);
  EXPECT_EQ(detail::fresh_buffers(), fresh)
      << "a warm training step must reuse the buffers of the previous one";

  EXPECT_EQ(second.logits, first.logits);
  EXPECT_EQ(second.loss, first.loss);
  ASSERT_EQ(second.grads.size(), first.grads.size());
  for (std::size_t i = 0; i < first.grads.size(); ++i) {
    EXPECT_EQ(second.grads[i], first.grads[i]) << "parameter " << i;
  }
}

TEST(BufferPool, RecycledBuffersKeepFactoryContents) {
  { const Tensor junk = Tensor::full({64, 64}, 7.0F); }
  Tensor z = Tensor::zeros({64, 64}, true);
  for (const float v : z.data()) ASSERT_EQ(v, 0.0F);
  { const Tensor junk = Tensor::full({64, 64}, -3.0F); }
  for (const float v : z.grad()) ASSERT_EQ(v, 0.0F);
}

// The pool's bound: it never holds more than the live high-water mark, and
// parked plus live bytes stay within it, through a sweep of distinct shapes
// where some tensors outlive others.
TEST(BufferPool, ShapeSweepStaysWithinLiveHighWater) {
  const auto check = [] {
    const detail::BufferPoolStats s = detail::buffer_pool_stats();
    EXPECT_LE(s.parked_bytes, s.high_water_bytes);
    EXPECT_LE(s.parked_bytes + s.live_bytes, s.high_water_bytes);
  };
  std::vector<Tensor> kept;
  for (std::int64_t i = 0; i < 20; ++i) {
    // Growing then shrinking row counts: each shape differs from the last.
    const std::int64_t rows = i < 10 ? 4 + 9 * i : 190 - 9 * i;
    const Tensor t = Tensor::full({rows, 257}, static_cast<float>(i));
    const Tensor u = add(t, t);
    if (i % 3 == 0) kept.push_back(u);
    check();
  }
  kept.clear();
  check();
}

// Four threads allocate, fill, check and free tensors of overlapping sizes at
// once (TSan-checked in scripts/check.sh): no buffer is handed out twice,
// zeros stay zero, and every byte returns to the pool.
TEST(BufferPool, FourThreadsAllocateAndFreeConcurrently) {
  const std::size_t live_before = detail::buffer_pool_stats().live_bytes;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t, &wrong] {
      const auto value = static_cast<float>(t + 1);
      std::vector<Tensor> ring(3);
      int mismatches = 0;
      for (int i = 0; i < 300; ++i) {
        const std::int64_t rows = 2 + (i * 7 + t * 13) % 40;
        const Tensor a = Tensor::full({rows, 512}, value);
        const Tensor z = Tensor::zeros({rows, 256});
        const Tensor b = add(a, a);
        for (const float v : a.data()) mismatches += v != value;
        for (const float v : z.data()) mismatches += v != 0.0F;
        for (const float v : b.data()) mismatches += v != 2.0F * value;
        ring[static_cast<std::size_t>(i) % ring.size()] = b;
      }
      wrong += mismatches;
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(detail::buffer_pool_stats().live_bytes, live_before);
}

}  // namespace
}  // namespace saga
