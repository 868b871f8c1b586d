#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#if defined(__linux__)
#include <sched.h>
#endif
#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace saga::util {

namespace {
// Set on pool workers, and on a forking caller while it runs chunks: a
// parallel_for made there runs inline, so no participant ever waits on
// chunks that only it could run.
thread_local bool t_in_fork = false;

// How long an idle worker polls for the next fork before it sleeps, and a
// joining caller polls before it yields. It bridges the gaps between the
// forks of one forward pass; a much longer spin (~1 ms) steals the cores
// that other threads (Router replicas, the stream pump) need between requests.
constexpr auto kSpin = std::chrono::microseconds(50);

constexpr std::uint64_t kNextOne = std::uint64_t{1} << 16;
constexpr std::size_t kMaxChunks = 0xFFFF;
std::uint64_t next_of(std::uint64_t s) { return (s >> 16) & 0xFFFF; }
std::uint64_t count_of(std::uint64_t s) { return s & 0xFFFF; }

// Polls pred() for at most kSpin; returns whether it came true.
template <typename Pred>
bool spin_until(Pred pred) {
  const auto deadline = std::chrono::steady_clock::now() + kSpin;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }
  return true;
}

std::size_t affinity_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
#endif
  return std::max(1U, std::thread::hardware_concurrency());
}
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t n = threads != 0 ? threads : affinity_cpus();
  workers_.reserve(n - 1);
  for (std::size_t i = 1; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_relaxed);
  // A new epoch with no chunks wakes every worker to see stop_.
  state_.store(((state_.load() >> 32) + 1) << 32, std::memory_order_release);
  state_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_chunks(std::uint64_t state) {
  while (next_of(state) < count_of(state)) {
    // Claiming re-checks the epoch, so a stale `state` never claims a chunk
    // of a finished job; the job fields are read only after the claim.
    if (!state_.compare_exchange_weak(state, state + kNextOne,
                                      std::memory_order_acquire)) {
      continue;
    }
    const std::size_t lo = begin_ + next_of(state) * chunk_;
    try {
      body_.run(body_.fn, lo, std::min(end_, lo + chunk_));
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex_);
      if (!error_) error_ = std::current_exception();
    }
    done_.fetch_add(1, std::memory_order_release);
    state += kNextOne;
  }
}

void ThreadPool::worker_loop() {
  t_in_fork = true;
  std::uint64_t seen = state_.load(std::memory_order_acquire);
  for (;;) {
    run_chunks(seen);
    if (stop_.load(std::memory_order_relaxed)) return;
    const auto changed = [&] {
      return state_.load(std::memory_order_acquire) != seen;
    };
    if (!spin_until(changed)) state_.wait(seen, std::memory_order_acquire);
    seen = state_.load(std::memory_order_acquire);
  }
}

void ThreadPool::fork(Body body, std::size_t begin, std::size_t end) {
  if (begin >= end) return;
  const std::size_t total = end - begin;
  const std::size_t parts = std::min({total, size(), kMaxChunks});
  const std::size_t chunk = (total + parts - 1) / parts;
  const std::size_t chunks = (total + chunk - 1) / chunk;
  if (chunks <= 1 || t_in_fork ||
      forking_.exchange(true, std::memory_order_acquire)) {
    body.run(body.fn, begin, end);
    return;
  }

  body_ = body;
  begin_ = begin;
  end_ = end;
  chunk_ = chunk;
  done_.store(0, std::memory_order_relaxed);
  const std::uint64_t state =
      (((state_.load(std::memory_order_relaxed) >> 32) + 1) << 32) | chunks;
  state_.store(state, std::memory_order_release);
  state_.notify_all();

  // Run chunks until none is left to claim, then wait only for the chunks
  // that workers have already claimed and are running.
  t_in_fork = true;
  run_chunks(state);
  t_in_fork = false;
  const auto finished = [&] {
    return done_.load(std::memory_order_acquire) == chunks;
  };
  if (!spin_until(finished)) {
    while (!finished()) std::this_thread::yield();
  }

  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    error = std::exchange(error_, nullptr);
  }
  forking_.store(false, std::memory_order_release);
  if (error) std::rethrow_exception(error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace saga::util
