#include "data/batch.hpp"

#include <algorithm>
#include <stdexcept>

namespace saga::data {

Batch make_batch(const Dataset& dataset, const std::vector<std::int64_t>& indices,
                 Task task) {
  if (indices.empty()) throw std::invalid_argument("make_batch: empty indices");
  const std::int64_t t = dataset.window_length;
  const std::int64_t c = dataset.channels;
  const auto b = static_cast<std::int64_t>(indices.size());

  Buffer values = Buffer::uninitialized(static_cast<std::size_t>(b * t * c));
  Batch batch;
  batch.labels.reserve(indices.size());
  batch.indices = indices;
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const auto& sample = dataset.samples.at(static_cast<std::size_t>(indices[i]));
    if (static_cast<std::int64_t>(sample.values.size()) != t * c) {
      throw std::invalid_argument("make_batch: sample size mismatch");
    }
    std::copy(sample.values.begin(), sample.values.end(),
              values.begin() + static_cast<std::ptrdiff_t>(i) * t * c);
    batch.labels.push_back(dataset.label(indices[i], task));
  }
  batch.inputs = Tensor::from_data({b, t, c}, std::move(values));
  return batch;
}

BatchIterator::BatchIterator(const Dataset& dataset,
                             std::vector<std::int64_t> indices, Task task,
                             std::int64_t batch_size, std::uint64_t seed)
    : dataset_(&dataset),
      indices_(std::move(indices)),
      task_(task),
      batch_size_(batch_size),
      rng_(seed) {
  if (batch_size_ < 1) throw std::invalid_argument("BatchIterator: batch_size >= 1");
  reset();
}

void BatchIterator::reset() {
  std::shuffle(indices_.begin(), indices_.end(), rng_.engine());
  cursor_ = 0;
}

bool BatchIterator::next(Batch& out) {
  if (cursor_ >= indices_.size()) return false;
  const std::size_t take = std::min(static_cast<std::size_t>(batch_size_),
                                    indices_.size() - cursor_);
  std::vector<std::int64_t> chunk(indices_.begin() + static_cast<std::ptrdiff_t>(cursor_),
                                  indices_.begin() + static_cast<std::ptrdiff_t>(cursor_ + take));
  cursor_ += take;
  out = make_batch(*dataset_, chunk, task_);
  return true;
}

std::int64_t BatchIterator::batches_per_epoch() const noexcept {
  const auto n = static_cast<std::int64_t>(indices_.size());
  return (n + batch_size_ - 1) / batch_size_;
}

}  // namespace saga::data
