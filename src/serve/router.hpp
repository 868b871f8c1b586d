// serve::Router — multi-core serving and artifact hot-swap behind one
// submit() front door.
//
// The Router holds one serve::Engine built with `shards` replicas: each
// replica is a full model copy with its own dispatcher thread, and every
// replica takes its batches from the Engine's one queue. An idle replica
// picks up the next batch as soon as one exists, so there is nothing to
// route and nothing to rebalance. Because every replica serves the same
// model, which one handles a request never changes its result — only its
// latency.
//
// swap_artifact(next) validates the incoming bundle against the running
// one, builds a replacement Engine (seeded with the running Engine's
// admission EWMA), publishes it to new submissions, then drains the old
// Engine: every request the old Engine had admitted is fulfilled by the
// version it was submitted to, so a cutover drops and misroutes nothing.
// A submission that races the cutover and reaches the draining Engine sees
// EngineStoppedError internally and is resubmitted to the replacement.
//
// Consumes: the same windows/RequestOptions as Engine::submit. Produces:
// ResponseHandles and the Engine's EngineStats. Thread-safe: any number of
// clients may submit concurrently, including across a swap_artifact.
// shutdown() drains the Engine; like Engine, further submissions then
// throw.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "serve/engine.hpp"

namespace saga::serve {

struct RouterConfig {
  /// Number of model replicas draining the one queue. Each holds a full
  /// copy of the model, so memory scales linearly with shards.
  std::size_t shards = 2;
  /// Engine configuration (batching, backpressure, admission). The queue
  /// bound max_queue_depth applies per replica.
  EngineConfig engine;
};

class Router {
 public:
  /// Builds one Engine with `config.shards` replicas of `artifact`. Throws
  /// std::invalid_argument when shards == 0.
  Router(const Artifact& artifact, RouterConfig config = {});
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Same contract as Engine::submit. A submission that reaches an Engine
  /// retired by a concurrent swap_artifact is resubmitted to its
  /// replacement.
  ResponseHandle submit(std::span<const float> window,
                        RequestOptions options = {});

  /// Blocking convenience: submit(window, options).get().
  Prediction predict(std::span<const float> window,
                     RequestOptions options = {});

  /// Hot-swaps the serving artifact: validates `next` (manifest integrity
  /// plus window_length/channels compatibility with the running bundle,
  /// so every queued request stays a valid input), builds its Engine with
  /// the running Engine's admission EWMA (keeping deadline admission
  /// closed across the cutover), publishes it, then drains the old Engine
  /// so every admitted request completes on the version it was admitted
  /// to. Serialized with other swaps and shutdown; throws
  /// std::invalid_argument on an incompatible artifact (the running Engine
  /// is untouched) and EngineStoppedError after shutdown.
  void swap_artifact(const Artifact& next);

  /// Monotonic version counter: 0 for the construction artifact, +1 per
  /// completed swap_artifact.
  std::uint64_t artifact_generation() const;

  /// Drains and stops the Engine. Idempotent.
  void shutdown();

  std::size_t shards() const noexcept { return config_.shards; }

  /// Undispatched + in-flight requests.
  std::size_t queue_depth() const;
  /// The serving Engine's snapshot (a swap starts the counters afresh).
  EngineStats stats() const;
  /// Per-replica snapshots carrying requests and batches: how the queue's
  /// work split across replicas.
  std::vector<EngineStats> shard_stats() const;

  const RouterConfig& config() const noexcept { return config_; }
  /// The serving artifact's metadata (weight blobs are cleared — see
  /// Engine::artifact). By value: a swap may retire the engine holding the
  /// referenced copy at any time.
  Artifact artifact() const;

 private:
  std::shared_ptr<Engine> engine() const;

  RouterConfig config_;
  mutable std::mutex mutex_;  // guards engine_ and generation_
  std::shared_ptr<Engine> engine_;
  std::uint64_t generation_ = 0;
  /// Serializes swap_artifact and shutdown (slow control-plane operations)
  /// without blocking submit, which only needs mutex_. Acquired strictly
  /// before mutex_.
  std::mutex swap_mutex_;
  std::atomic<bool> stopping_{false};
};

}  // namespace saga::serve
