#include "tensor/tensor.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

namespace saga {

namespace {

// True when `strides` lay `shape` out densely row-major (size-1 dims carry
// no information and are ignored).
bool dense_row_major(const Shape& shape,
                     const std::vector<std::int64_t>& strides) {
  std::int64_t expect = 1;
  for (std::int64_t d = static_cast<std::int64_t>(shape.size()) - 1; d >= 0;
       --d) {
    const auto du = static_cast<std::size_t>(d);
    if (shape[du] == 1) continue;
    if (strides[du] != expect) return false;
    expect *= shape[du];
  }
  return true;
}

std::shared_ptr<TensorImpl> make_dense_impl(Shape shape, Buffer values,
                                            bool requires_grad) {
  auto impl = std::make_shared<TensorImpl>();
  impl->count = static_cast<std::int64_t>(values.size());
  impl->strides = strides_of(shape);
  impl->shape = std::move(shape);
  impl->storage = std::make_shared<Storage>();
  impl->storage->data = std::move(values);
  impl->requires_grad = requires_grad;
  return impl;
}

}  // namespace

Buffer& TensorImpl::grad_buffer() {
  auto& g = storage->grad;
  if (g.size() != storage->data.size()) {
    g = Buffer::zeros(storage->data.size());
  }
  return g;
}

Tensor Tensor::zeros(Shape shape, bool requires_grad) {
  return full(std::move(shape), 0.0F, requires_grad);
}

Tensor Tensor::ones(Shape shape, bool requires_grad) {
  return full(std::move(shape), 1.0F, requires_grad);
}

Tensor Tensor::full(Shape shape, float value, bool requires_grad) {
  const auto n = static_cast<std::size_t>(numel_of(shape));
  return Tensor(
      make_dense_impl(std::move(shape), Buffer::full(n, value), requires_grad));
}

Tensor Tensor::scalar(float value) { return full({1}, value, false); }

Tensor Tensor::from_data(Shape shape, std::vector<float> values,
                         bool requires_grad) {
  return from_data(std::move(shape), Buffer(std::move(values)),
                   requires_grad);
}

Tensor Tensor::from_data(Shape shape, Buffer values, bool requires_grad) {
  if (numel_of(shape) != static_cast<std::int64_t>(values.size())) {
    throw std::invalid_argument("from_data: size mismatch for shape " +
                                shape_str(shape));
  }
  return Tensor(
      make_dense_impl(std::move(shape), std::move(values), requires_grad));
}

Tensor Tensor::randn(Shape shape, util::Rng& rng, float stddev,
                     bool requires_grad) {
  Buffer values =
      Buffer::uninitialized(static_cast<std::size_t>(numel_of(shape)));
  for (auto& v : values) v = static_cast<float>(rng.normal(0.0, stddev));
  return from_data(std::move(shape), std::move(values), requires_grad);
}

Tensor Tensor::rand_uniform(Shape shape, util::Rng& rng, float lo, float hi,
                            bool requires_grad) {
  Buffer values =
      Buffer::uninitialized(static_cast<std::size_t>(numel_of(shape)));
  for (auto& v : values) v = static_cast<float>(rng.uniform(lo, hi));
  return from_data(std::move(shape), std::move(values), requires_grad);
}

const Shape& Tensor::shape() const {
  if (!impl_) throw std::logic_error("Tensor: undefined");
  return impl_->shape;
}

std::int64_t Tensor::size(std::int64_t d) const {
  const auto& s = shape();
  const std::int64_t rank = static_cast<std::int64_t>(s.size());
  if (d < 0) d += rank;
  if (d < 0 || d >= rank) throw std::out_of_range("Tensor::size: bad dim");
  return s[static_cast<std::size_t>(d)];
}

std::int64_t Tensor::numel() const {
  if (!impl_) return 0;
  return impl_->numel();
}

bool Tensor::is_contiguous() const { return impl_ && impl_->is_contiguous(); }

std::span<float> Tensor::data() {
  if (!impl_) throw std::logic_error("Tensor: undefined");
  if (!impl_->contiguous) {
    throw std::logic_error(
        "Tensor::data: non-contiguous view; materialize with contiguous()");
  }
  return {impl_->data_ptr(), static_cast<std::size_t>(impl_->count)};
}

std::span<const float> Tensor::data() const {
  if (!impl_) throw std::logic_error("Tensor: undefined");
  if (!impl_->contiguous) {
    throw std::logic_error(
        "Tensor::data: non-contiguous view; materialize with contiguous()");
  }
  return {impl_->data_ptr(), static_cast<std::size_t>(impl_->count)};
}

std::span<float> Tensor::grad() {
  if (!impl_) throw std::logic_error("Tensor: undefined");
  if (!impl_->contiguous) {
    throw std::logic_error(
        "Tensor::grad: non-contiguous view; materialize with contiguous()");
  }
  return {impl_->grad_ptr(), static_cast<std::size_t>(impl_->count)};
}

bool Tensor::has_grad() const { return impl_ && impl_->grad_allocated(); }

void Tensor::zero_grad() {
  if (impl_ && impl_->grad_allocated()) {
    auto& g = impl_->storage->grad;
    std::fill(g.begin(), g.end(), 0.0F);
  }
}

bool Tensor::requires_grad() const { return impl_ && impl_->requires_grad; }

Tensor& Tensor::set_requires_grad(bool value) {
  if (!impl_) throw std::logic_error("Tensor: undefined");
  impl_->requires_grad = value;
  return *this;
}

float Tensor::item() const {
  if (numel() != 1) {
    throw std::logic_error("Tensor::item: tensor has " +
                           std::to_string(numel()) + " elements");
  }
  // A one-element view's single element sits exactly at `offset`, whatever
  // the strides.
  return impl_->data_ptr()[0];
}

float Tensor::at(std::int64_t flat_index) const {
  if (!impl_ || flat_index < 0 || flat_index >= numel()) {
    throw std::out_of_range("Tensor::at");
  }
  if (impl_->contiguous) {
    return impl_->data_ptr()[static_cast<std::size_t>(flat_index)];
  }
  // Map the logical row-major index through the view's strides.
  std::int64_t rem = flat_index;
  std::int64_t si = impl_->offset;
  for (std::int64_t d = static_cast<std::int64_t>(impl_->shape.size()) - 1;
       d >= 0; --d) {
    const auto du = static_cast<std::size_t>(d);
    si += (rem % impl_->shape[du]) * impl_->strides[du];
    rem /= impl_->shape[du];
  }
  return impl_->storage->data[static_cast<std::size_t>(si)];
}

Tensor Tensor::clone() const {
  if (!impl_) return Tensor();
  Buffer values =
      Buffer::uninitialized(static_cast<std::size_t>(impl_->count));
  if (impl_->contiguous) {
    std::copy_n(impl_->data_ptr(), values.size(), values.begin());
  } else {
    const float* src = impl_->storage->data.data();
    detail::for_each_element(impl_->shape, impl_->strides, impl_->offset,
                             [&](std::int64_t flat, std::int64_t si) {
                               values[static_cast<std::size_t>(flat)] =
                                   src[static_cast<std::size_t>(si)];
                             });
  }
  return from_data(impl_->shape, std::move(values), impl_->requires_grad);
}

Tensor Tensor::detach() const {
  Tensor copy = clone();
  if (copy.impl()) copy.impl()->requires_grad = false;
  return copy;
}

void Tensor::backward() {
  if (!impl_) throw std::logic_error("backward: undefined tensor");
  if (numel() != 1) {
    throw std::logic_error("backward: only scalar outputs supported");
  }

  // Iterative post-order DFS to get a reverse topological order.
  std::vector<TensorImpl*> order;
  std::unordered_set<TensorImpl*> visited;
  std::vector<std::pair<TensorImpl*, std::size_t>> stack;
  stack.emplace_back(impl_.get(), 0);
  visited.insert(impl_.get());
  while (!stack.empty()) {
    auto& [impl, next_child] = stack.back();
    if (impl->node && next_child < impl->node->inputs.size()) {
      TensorImpl* child = impl->node->inputs[next_child].get();
      ++next_child;
      if (child->node && visited.insert(child).second) {
        stack.emplace_back(child, 0);
      }
    } else {
      order.push_back(impl);
      stack.pop_back();
    }
  }

  // Seed: dL/dL = 1 at the scalar's own element (its storage may be shared
  // if the loss is itself a view).
  auto& seed = impl_->grad_buffer();
  std::fill(seed.begin(), seed.end(), 0.0F);
  impl_->grad_ptr()[0] = 1.0F;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TensorImpl* impl = *it;
    if (impl->node && impl->grad_allocated()) {
      impl->node->backward(*impl);
    }
  }
}

namespace detail {

namespace {

thread_local std::uint64_t t_nodes_created = 0;
thread_local std::uint64_t t_copies_materialized = 0;

inline bool input_carries_tape(const Tensor& input) noexcept {
  return input.defined() &&
         (input.requires_grad() || input.impl()->node != nullptr);
}

template <typename Range, typename Deref>
std::shared_ptr<AutogradNode> build_node(
    const Range& inputs, Deref&& deref, const char* op_name,
    std::function<void(const TensorImpl&)> backward) {
  auto node = std::make_shared<AutogradNode>();
  node->op = op_name;
  node->inputs.reserve(inputs.size());
  for (const auto& input : inputs) node->inputs.push_back(deref(input).impl());
  node->backward = std::move(backward);
  ++t_nodes_created;
  return node;
}

}  // namespace

bool tape_active(std::initializer_list<const Tensor*> inputs) noexcept {
  if (!grad_enabled()) return false;
  for (const Tensor* input : inputs) {
    if (input_carries_tape(*input)) return true;
  }
  return false;
}

bool tape_active(const std::vector<Tensor>& inputs) noexcept {
  if (!grad_enabled()) return false;
  for (const Tensor& input : inputs) {
    if (input_carries_tape(input)) return true;
  }
  return false;
}

std::uint64_t autograd_nodes_created() noexcept { return t_nodes_created; }

std::uint64_t materializing_copies() noexcept { return t_copies_materialized; }

void note_materializing_copy() noexcept { ++t_copies_materialized; }

void for_each_element(
    const Shape& shape, const std::vector<std::int64_t>& strides,
    std::int64_t offset,
    const std::function<void(std::int64_t, std::int64_t)>& fn) {
  const std::int64_t n = numel_of(shape);
  const std::size_t rank = shape.size();
  if (rank == 0) {
    if (n == 1) fn(0, offset);
    return;
  }
  std::vector<std::int64_t> counter(rank, 0);
  std::int64_t si = offset;
  for (std::int64_t flat = 0; flat < n; ++flat) {
    fn(flat, si);
    for (std::int64_t d = static_cast<std::int64_t>(rank) - 1; d >= 0; --d) {
      const auto du = static_cast<std::size_t>(d);
      ++counter[du];
      si += strides[du];
      if (counter[du] < shape[du]) break;
      counter[du] = 0;
      si -= strides[du] * shape[du];
    }
  }
}

Tensor make_view(const Tensor& base, Shape shape,
                 std::vector<std::int64_t> strides, std::int64_t offset,
                 const char* op_name) {
  auto impl = std::make_shared<TensorImpl>();
  impl->count = numel_of(shape);
  impl->contiguous = dense_row_major(shape, strides);
  impl->shape = std::move(shape);
  impl->strides = std::move(strides);
  impl->offset = offset;
  impl->storage = base.impl()->storage;
  Tensor out(std::move(impl));
  if (tape_active({&base})) {
    // Connectivity-only node: the view shares grad storage with its base, so
    // gradients written through the view already sit in the base buffer.
    // The edge keeps the base reachable from downstream losses.
    attach_node(out, {&base}, op_name, [](const TensorImpl&) {});
  }
  return out;
}

void attach_node(Tensor& out, std::initializer_list<const Tensor*> inputs,
                 const char* op_name,
                 std::function<void(const TensorImpl&)> backward) {
  out.impl()->node = build_node(
      inputs, [](const Tensor* t) -> const Tensor& { return *t; }, op_name,
      std::move(backward));
  out.impl()->requires_grad = true;
}

void attach_node(Tensor& out, const std::vector<Tensor>& inputs,
                 const char* op_name,
                 std::function<void(const TensorImpl&)> backward) {
  out.impl()->node = build_node(
      inputs, [](const Tensor& t) -> const Tensor& { return t; }, op_name,
      std::move(backward));
  out.impl()->requires_grad = true;
}

}  // namespace detail

}  // namespace saga
