// saga::Buffer — a float buffer recycled through one size-keyed pool.
//
// Every large float buffer of the tensor stack is a Buffer: Storage's data
// and grad, attention's saved softmax probabilities, layer norm's xhat /
// inv_std and the GRU cell's gate cache. When a Buffer of at least
// kMinPooledFloats elements dies, its memory is parked in one process-wide
// pool keyed by capacity instead of going back to the heap, and a later
// request takes the smallest parked buffer that holds it (and is at most
// 8x its size). A training step or a served batch therefore reuses the
// buffers the previous one freed, rather than asking the heap for fresh
// pages (which the heap had handed back to the kernel, so each step faulted
// them in again).
//
// Bound: the pool derives its own limit. It tracks the bytes held by live
// pooled Buffers and their high-water mark, and keeps parked + live at or
// below that mark: a request the pool cannot serve first frees parked
// buffers, least recently parked size first, so pooling never lets the
// process hold more buffer memory than its live peak.
//
// Threading: one mutex guards the pool; Buffers are created and destroyed
// from any thread (Engine replicas' dispatchers, pool workers, callers).
//
// AddressSanitizer: parked buffers are poisoned, so a read or write through
// a pointer into a dead tensor's buffer is reported (use-after-poison) until
// the pool hands that buffer out again.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace saga {

class Buffer {
 public:
  /// Buffers below this many floats bypass the pool: they are smaller than a
  /// page, so the heap serves them without faulting fresh pages.
  static constexpr std::size_t kMinPooledFloats = 1024;

  Buffer() noexcept = default;
  /// Adopts `values` without copying.
  explicit Buffer(std::vector<float> values);
  Buffer(const Buffer& other);
  Buffer(Buffer&& other) noexcept;
  Buffer& operator=(Buffer other) noexcept;
  ~Buffer();

  /// n floats, all zero.
  static Buffer zeros(std::size_t n);
  /// n floats, all `value`.
  static Buffer full(std::size_t n, float value);
  /// n floats with unspecified contents: a recycled buffer keeps whatever
  /// its last owner wrote. Only for callers that overwrite every element.
  static Buffer uninitialized(std::size_t n);

  float* data() noexcept { return values_.data(); }
  const float* data() const noexcept { return values_.data(); }
  std::size_t size() const noexcept { return values_.size(); }
  float& operator[](std::size_t i) noexcept { return values_[i]; }
  float operator[](std::size_t i) const noexcept { return values_[i]; }
  float* begin() noexcept { return data(); }
  float* end() noexcept { return data() + size(); }
  const float* begin() const noexcept { return data(); }
  const float* end() const noexcept { return data() + size(); }

 private:
  // Wraps a vector the pool has already counted as live.
  struct Taken {};
  Buffer(Taken, std::vector<float> values) noexcept;
  static Buffer take(std::size_t n, bool zero);

  std::vector<float> values_;
};

namespace detail {

/// Pooled-size buffers the pool could not serve from its parked buffers
/// (process-wide, all threads). A repeated training step or forward must
/// leave this unchanged once warm — the recycling contract is tested
/// against it.
std::uint64_t fresh_buffers() noexcept;

struct BufferPoolStats {
  std::size_t parked_bytes = 0;      // held by the pool, waiting for reuse
  std::size_t live_bytes = 0;        // held by live pooled Buffers
  std::size_t high_water_bytes = 0;  // peak of live_bytes
};
BufferPoolStats buffer_pool_stats();

}  // namespace detail

}  // namespace saga
