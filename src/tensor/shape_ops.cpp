#include "tensor/shape_ops.hpp"

#include <cstring>
#include <stdexcept>

namespace saga {

namespace {

std::int64_t normalize_dim(std::int64_t dim, std::int64_t rank) {
  if (dim < 0) dim += rank;
  if (dim < 0 || dim >= rank) throw std::out_of_range("bad dim");
  return dim;
}

// Erases dimension `dim` from a (shape, strides) pair; a rank-0 result
// collapses to the scalar geometry {1}/{1}.
void erase_dim(Shape& shape, std::vector<std::int64_t>& strides,
               std::int64_t dim) {
  shape.erase(shape.begin() + static_cast<std::ptrdiff_t>(dim));
  strides.erase(strides.begin() + static_cast<std::ptrdiff_t>(dim));
  if (shape.empty()) {
    shape = {1};
    strides = {1};
  }
}

}  // namespace

Tensor contiguous(const Tensor& a) {
  if (a.is_contiguous()) return a;
  const TensorImpl& impl = *a.impl();
  detail::note_materializing_copy();
  Buffer out = Buffer::uninitialized(static_cast<std::size_t>(impl.numel()));
  const float* src = impl.storage->data.data();
  detail::for_each_element(impl.shape, impl.strides, impl.offset,
                           [&](std::int64_t flat, std::int64_t si) {
                             out[static_cast<std::size_t>(flat)] =
                                 src[static_cast<std::size_t>(si)];
                           });
  return detail::make_result(impl.shape, std::move(out), {&a}, "contiguous",
                             [&] {
    return [a_impl = a.impl()](const TensorImpl& o) {
      if (!detail::wants_grad(*a_impl)) return;
      // Scatter through the view's strides into its (storage-level) grad.
      float* ga = a_impl->grad_buffer().data();
      const float* go = o.grad_ptr();
      detail::for_each_element(a_impl->shape, a_impl->strides, a_impl->offset,
                               [&](std::int64_t flat, std::int64_t si) {
                                 ga[static_cast<std::size_t>(si)] +=
                                     go[static_cast<std::size_t>(flat)];
                               });
    };
  });
}

Tensor reshape(const Tensor& a, Shape new_shape) {
  std::int64_t known = 1;
  std::int64_t infer = -1;
  for (std::size_t d = 0; d < new_shape.size(); ++d) {
    if (new_shape[d] == -1) {
      if (infer != -1) throw std::invalid_argument("reshape: two -1 dims");
      infer = static_cast<std::int64_t>(d);
    } else {
      known *= new_shape[d];
    }
  }
  if (infer >= 0) {
    if (known == 0 || a.numel() % known != 0) {
      throw std::invalid_argument("reshape: cannot infer dim");
    }
    new_shape[static_cast<std::size_t>(infer)] = a.numel() / known;
  }
  if (numel_of(new_shape) != a.numel()) {
    throw std::invalid_argument("reshape: element count mismatch " +
                                shape_str(a.shape()) + " -> " +
                                shape_str(new_shape));
  }
  // Contiguous input: free aliasing view. Otherwise materialize once and
  // view the copy (the general strided case has no stride relabeling).
  const Tensor base = a.is_contiguous() ? a : contiguous(a);
  std::vector<std::int64_t> strides = strides_of(new_shape);
  return detail::make_view(base, std::move(new_shape), std::move(strides),
                           base.impl()->offset, "reshape");
}

Tensor slice(const Tensor& a, std::int64_t dim, std::int64_t start,
             std::int64_t length) {
  const std::int64_t rank = a.dim();
  dim = normalize_dim(dim, rank);
  const std::int64_t extent = a.size(dim);
  if (start < 0 || length < 0 || start + length > extent) {
    throw std::out_of_range("slice: range [" + std::to_string(start) + ", " +
                            std::to_string(start + length) + ") out of dim " +
                            std::to_string(extent));
  }
  const TensorImpl& impl = *a.impl();
  Shape out_shape = impl.shape;
  out_shape[static_cast<std::size_t>(dim)] = length;
  return detail::make_view(
      a, std::move(out_shape), impl.strides,
      impl.offset + start * impl.strides[static_cast<std::size_t>(dim)],
      "slice");
}

Tensor select(const Tensor& a, std::int64_t dim, std::int64_t index) {
  const std::int64_t rank = a.dim();
  dim = normalize_dim(dim, rank);
  Tensor sliced = slice(a, dim, index, 1);
  Shape shape = sliced.shape();
  std::vector<std::int64_t> strides = sliced.impl()->strides;
  erase_dim(shape, strides, dim);
  return detail::make_view(sliced, std::move(shape), std::move(strides),
                           sliced.impl()->offset, "select");
}

Tensor squeeze(const Tensor& a, std::int64_t dim) {
  const std::int64_t rank = a.dim();
  dim = normalize_dim(dim, rank);
  if (a.size(dim) != 1) {
    throw std::invalid_argument("squeeze: dim " + std::to_string(dim) +
                                " has extent " + std::to_string(a.size(dim)));
  }
  Shape shape = a.shape();
  std::vector<std::int64_t> strides = a.impl()->strides;
  erase_dim(shape, strides, dim);
  return detail::make_view(a, std::move(shape), std::move(strides),
                           a.impl()->offset, "squeeze");
}

Tensor squeeze(const Tensor& a) {
  Shape shape;
  std::vector<std::int64_t> strides;
  for (std::size_t d = 0; d < a.shape().size(); ++d) {
    if (a.shape()[d] != 1) {
      shape.push_back(a.shape()[d]);
      strides.push_back(a.impl()->strides[d]);
    }
  }
  if (shape.empty()) {
    shape = {1};
    strides = {1};
  }
  return detail::make_view(a, std::move(shape), std::move(strides),
                           a.impl()->offset, "squeeze");
}

Tensor unsqueeze(const Tensor& a, std::int64_t dim) {
  const std::int64_t rank = a.dim();
  if (dim < 0) dim += rank + 1;
  if (dim < 0 || dim > rank) throw std::out_of_range("bad dim");
  Shape shape = a.shape();
  std::vector<std::int64_t> strides = a.impl()->strides;
  // Stride of a size-1 dim never advances; pick the conventional value.
  const std::int64_t stride =
      dim == rank ? 1
                  : shape[static_cast<std::size_t>(dim)] *
                        strides[static_cast<std::size_t>(dim)];
  shape.insert(shape.begin() + static_cast<std::ptrdiff_t>(dim), 1);
  strides.insert(strides.begin() + static_cast<std::ptrdiff_t>(dim), stride);
  return detail::make_view(a, std::move(shape), std::move(strides),
                           a.impl()->offset, "unsqueeze");
}

Tensor concat(const std::vector<Tensor>& tensors, std::int64_t dim) {
  if (tensors.empty()) throw std::invalid_argument("concat: empty input");
  const std::int64_t rank = tensors.front().dim();
  dim = normalize_dim(dim, rank);
  Shape out_shape = tensors.front().shape();
  std::int64_t total = 0;
  for (const auto& t : tensors) {
    if (t.dim() != rank) throw std::invalid_argument("concat: rank mismatch");
    for (std::int64_t d = 0; d < rank; ++d) {
      if (d != dim && t.size(d) != out_shape[static_cast<std::size_t>(d)]) {
        throw std::invalid_argument("concat: shape mismatch");
      }
    }
    total += t.size(dim);
  }
  out_shape[static_cast<std::size_t>(dim)] = total;

  // Concat inherently copies; contiguize view inputs so the row sweeps below
  // are valid (identity for contiguous inputs). The contiguized tensors are
  // captured as the op inputs so gradients route back through their views.
  std::vector<Tensor> srcs;
  srcs.reserve(tensors.size());
  for (const auto& t : tensors) srcs.push_back(contiguous(t));

  std::int64_t outer = 1;
  for (std::int64_t d = 0; d < dim; ++d) outer *= out_shape[static_cast<std::size_t>(d)];
  std::int64_t inner = 1;
  for (std::size_t d = static_cast<std::size_t>(dim) + 1; d < out_shape.size(); ++d) {
    inner *= out_shape[d];
  }

  Buffer out =
      Buffer::uninitialized(static_cast<std::size_t>(numel_of(out_shape)));
  std::vector<std::int64_t> offsets;  // running offset of each input in `dim`
  offsets.reserve(srcs.size());
  {
    std::int64_t off = 0;
    for (const auto& t : srcs) {
      offsets.push_back(off);
      const std::int64_t mid = t.size(dim);
      const float* src = t.impl()->data_ptr();
      for (std::int64_t o = 0; o < outer; ++o) {
        std::memcpy(out.data() + (o * total + off) * inner,
                    src + o * mid * inner,
                    static_cast<std::size_t>(mid * inner) * sizeof(float));
      }
      off += mid;
    }
  }

  return detail::make_result(
      std::move(out_shape), std::move(out), srcs, "concat", [&] {
    std::vector<std::shared_ptr<TensorImpl>> impls;
    std::vector<std::int64_t> mids;
    impls.reserve(srcs.size());
    mids.reserve(srcs.size());
    for (const auto& t : srcs) {
      impls.push_back(t.impl());
      mids.push_back(t.size(dim));
    }
    return [impls = std::move(impls), mids = std::move(mids), offsets, outer,
            inner, total](const TensorImpl& o) {
      const float* go = o.grad_ptr();
      for (std::size_t idx = 0; idx < impls.size(); ++idx) {
        if (!detail::wants_grad(*impls[idx])) continue;
        float* g = impls[idx]->grad_ptr();
        const std::int64_t mid = mids[idx];
        const std::int64_t off = offsets[idx];
        for (std::int64_t ob = 0; ob < outer; ++ob) {
          const float* src = go + (ob * total + off) * inner;
          float* dst = g + ob * mid * inner;
          for (std::int64_t i = 0; i < mid * inner; ++i) dst[i] += src[i];
        }
      }
    };
  });
}

Tensor transpose_last2(const Tensor& a) {
  const std::int64_t rank = a.dim();
  if (rank < 2) throw std::invalid_argument("transpose_last2: rank < 2");
  Shape shape = a.shape();
  std::vector<std::int64_t> strides = a.impl()->strides;
  std::swap(shape[static_cast<std::size_t>(rank - 1)],
            shape[static_cast<std::size_t>(rank - 2)]);
  std::swap(strides[static_cast<std::size_t>(rank - 1)],
            strides[static_cast<std::size_t>(rank - 2)]);
  return detail::make_view(a, std::move(shape), std::move(strides),
                           a.impl()->offset, "transpose_last2");
}

Tensor stack(const std::vector<Tensor>& tensors) {
  if (tensors.empty()) throw std::invalid_argument("stack: empty input");
  std::vector<Tensor> expanded;
  expanded.reserve(tensors.size());
  for (const auto& t : tensors) {
    Shape s = t.shape();
    s.insert(s.begin(), 1);
    expanded.push_back(reshape(t, std::move(s)));
  }
  return concat(expanded, 0);
}

}  // namespace saga
