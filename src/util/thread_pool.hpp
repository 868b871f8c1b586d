// Static-partition fork-join pool for matmul rows, attention pairs and
// per-sample preprocessing. parallel_for splits [begin, end) into at most
// size() contiguous chunks; the calling thread and size() - 1 workers claim
// them through one atomic word, and the caller returns once every claimed
// chunk is done, without waiting for a sleeping worker to wake. Chunk i
// always covers the same indices, so results do not depend on which thread
// ran it. Callers join before reading results, so no further
// synchronization is needed on the data itself.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace saga::util {

class ThreadPool {
 public:
  /// A pool of `threads` participants (the caller plus threads - 1 workers);
  /// 0 means the number of CPUs in this process's affinity mask.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Participants in a fork: the workers plus the calling thread.
  std::size_t size() const noexcept { return workers_.size() + 1; }

  /// Runs fn(i) for i in [begin, end) and returns when every index has run.
  /// `fn` is borrowed, never copied. A call made from inside a chunk, or
  /// while another thread's fork is in flight, runs its range inline on the
  /// calling thread. Exceptions from fn propagate to the caller (first one
  /// wins) after every chunk has finished.
  template <typename Fn>
  void parallel_for(std::size_t begin, std::size_t end, Fn&& fn) {
    using F = std::remove_reference_t<Fn>;
    fork({const_cast<void*>(static_cast<const void*>(std::addressof(fn))),
          [](void* f, std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) (*static_cast<F*>(f))(i);
          }},
         begin, end);
  }

  /// Process-wide pool (lazily constructed). Kept as a function-local static
  /// per C++ Core Guidelines I.22 to avoid global-init order issues.
  static ThreadPool& global();

 private:
  // Non-owning reference to the caller's callable, run over one chunk.
  struct Body {
    void* fn;
    void (*run)(void* fn, std::size_t lo, std::size_t hi);
  };

  void fork(Body body, std::size_t begin, std::size_t end);
  void run_chunks(std::uint64_t state);  // claims and runs until none left
  void worker_loop();

  // The job in flight: written by the forking thread before it publishes
  // state_, read by a claimant only after its claim on state_ succeeds.
  Body body_{};
  std::size_t begin_ = 0, end_ = 0, chunk_ = 0;
  std::mutex error_mutex_;
  std::exception_ptr error_;  // guarded by error_mutex_

  // epoch (32 bits) | next chunk (16) | chunk count (16).
  alignas(64) std::atomic<std::uint64_t> state_{0};
  alignas(64) std::atomic<std::uint32_t> done_{0};  // chunks finished
  std::atomic<bool> forking_{false};  // a fork is in flight
  std::atomic<bool> stop_{false};
  std::vector<std::thread> workers_;  // last: started after the state above
};

/// Convenience forward to ThreadPool::global().parallel_for.
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, Fn&& fn) {
  ThreadPool::global().parallel_for(begin, end, std::forward<Fn>(fn));
}

}  // namespace saga::util
