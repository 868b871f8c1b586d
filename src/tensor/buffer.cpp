#include "tensor/buffer.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define SAGA_POISON(v) \
  ASAN_POISON_MEMORY_REGION((v).data(), (v).capacity() * sizeof(float))
#define SAGA_UNPOISON(v) \
  ASAN_UNPOISON_MEMORY_REGION((v).data(), (v).capacity() * sizeof(float))
#else
#define SAGA_POISON(v) static_cast<void>(v)
#define SAGA_UNPOISON(v) static_cast<void>(v)
#endif

namespace saga {

namespace {

bool pooled(std::size_t n) noexcept { return n >= Buffer::kMinPooledFloats; }

// A parked buffer serves a request of at least 1/kMaxSlack of its capacity.
// A strict size match would keep a ragged last batch, a single served window
// or a partial serve batch from reusing the full batches' buffers: each
// would miss and evict them, and the next full batch would miss in turn.
constexpr std::size_t kMaxSlack = 8;

std::atomic<std::uint64_t> g_fresh{0};

std::size_t bytes_of(const std::vector<float>& v) noexcept {
  return v.capacity() * sizeof(float);
}

class Pool {
 public:
  /// A vector of n floats (n pooled-size): the smallest parked buffer that
  /// holds n within kMaxSlack, resized to n (`zero` fills it), otherwise a
  /// fresh, zero-filled allocation.
  std::vector<float> take(std::size_t n, bool zero) {
    std::vector<float> v;
    std::vector<std::vector<float>> evicted;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = classes_.lower_bound(n);
      if (it != classes_.end() && it->first <= kMaxSlack * n) {
        v = std::move(it->second.parked.back());
        it->second.parked.pop_back();
        if (it->second.parked.empty()) classes_.erase(it);
        parked_ -= bytes_of(v);
        live_ += bytes_of(v);
      } else {
        grow_locked(n * sizeof(float), evicted);
      }
    }
    if (v.capacity() == 0) {  // nothing parked fits
      g_fresh.fetch_add(1, std::memory_order_relaxed);
      return std::vector<float>(n);
    }
    SAGA_UNPOISON(v);
    v.resize(n);  // within capacity: no reallocation
    if (zero) std::fill(v.begin(), v.end(), 0.0F);
    return v;
  }

  /// Counts an adopted vector as live.
  void adopt(const std::vector<float>& v) {
    std::vector<std::vector<float>> evicted;
    std::lock_guard<std::mutex> lock(mu_);
    grow_locked(bytes_of(v), evicted);
  }

  /// Parks `v` for reuse; if the pool cannot grow its bookkeeping, `v` is
  /// simply freed.
  void park(std::vector<float>&& v) noexcept {
    const std::size_t bytes = bytes_of(v);
    SAGA_POISON(v);
    std::lock_guard<std::mutex> lock(mu_);
    live_ -= bytes;
    try {
      SizeClass& cls = classes_[v.capacity()];
      cls.parked.push_back(std::move(v));
      cls.last_parked = ++clock_;
      parked_ += bytes;
    } catch (...) {
      SAGA_UNPOISON(v);
    }
  }

  detail::BufferPoolStats stats() {
    std::lock_guard<std::mutex> lock(mu_);
    return {parked_, live_, high_water_};
  }

 private:
  struct SizeClass {
    std::vector<std::vector<float>> parked;
    std::uint64_t last_parked = 0;
  };

  // Adds `bytes` to the live count, then restores parked + live <=
  // high_water by moving parked buffers, least recently parked size first,
  // into `evicted`; the caller frees them after dropping the lock. Takes and
  // parks move bytes between parked and live, so only growth can break the
  // bound.
  void grow_locked(std::size_t bytes,
                   std::vector<std::vector<float>>& evicted) {
    live_ += bytes;
    high_water_ = std::max(high_water_, live_);
    while (parked_ + live_ > high_water_) {
      auto victim = classes_.begin();
      for (auto it = classes_.begin(); it != classes_.end(); ++it) {
        if (it->second.last_parked < victim->second.last_parked) victim = it;
      }
      std::vector<float>& v = victim->second.parked.back();
      parked_ -= bytes_of(v);
      SAGA_UNPOISON(v);
      evicted.push_back(std::move(v));
      victim->second.parked.pop_back();
      if (victim->second.parked.empty()) classes_.erase(victim);
    }
  }

  std::mutex mu_;
  // Parked buffers by capacity (in floats); a class is erased when empty.
  std::map<std::size_t, SizeClass> classes_;
  std::size_t parked_ = 0;
  std::size_t live_ = 0;
  std::size_t high_water_ = 0;
  std::uint64_t clock_ = 0;
};

// Never destroyed: Buffers with static or thread storage duration may die
// after any static destructor would have run.
Pool& pool() {
  static Pool* const instance = new Pool();
  return *instance;
}

}  // namespace

Buffer::Buffer(std::vector<float> values) : values_(std::move(values)) {
  if (pooled(values_.size())) pool().adopt(values_);
}

Buffer::Buffer(Taken, std::vector<float> values) noexcept
    : values_(std::move(values)) {}

Buffer Buffer::take(std::size_t n, bool zero) {
  return {Taken{}, pooled(n) ? pool().take(n, zero) : std::vector<float>(n)};
}

Buffer::Buffer(const Buffer& other) : Buffer(take(other.size(), false)) {
  std::copy(other.begin(), other.end(), begin());
}

Buffer::Buffer(Buffer&& other) noexcept
    : values_(std::exchange(other.values_, {})) {}

Buffer& Buffer::operator=(Buffer other) noexcept {
  values_.swap(other.values_);
  return *this;
}

Buffer::~Buffer() {
  if (pooled(values_.size())) pool().park(std::move(values_));
}

Buffer Buffer::zeros(std::size_t n) { return take(n, true); }

Buffer Buffer::uninitialized(std::size_t n) { return take(n, false); }

Buffer Buffer::full(std::size_t n, float value) {
  Buffer b = take(n, false);
  std::fill(b.begin(), b.end(), value);
  return b;
}

namespace detail {

std::uint64_t fresh_buffers() noexcept {
  return g_fresh.load(std::memory_order_relaxed);
}

BufferPoolStats buffer_pool_stats() { return pool().stats(); }

}  // namespace detail

}  // namespace saga
