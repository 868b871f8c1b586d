#include "serve/router.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace saga::serve {

namespace {

RouterConfig checked(RouterConfig config) {
  if (config.shards == 0) {
    throw std::invalid_argument("Router: shards must be positive");
  }
  return config;
}

}  // namespace

Router::Router(const Artifact& artifact, RouterConfig config)
    : config_(checked(std::move(config))),
      // The replica constructor is private to Engine, hence no make_shared.
      engine_(new Engine(artifact, config_.engine, config_.shards)) {}

Router::~Router() { shutdown(); }

std::shared_ptr<Engine> Router::engine() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return engine_;
}

ResponseHandle Router::submit(std::span<const float> window,
                              RequestOptions options) {
  // An Engine stops only after swap_artifact has published its replacement
  // (or once shutdown has set stopping_), so each retry reads a newer
  // Engine: the loop repeats at most once per concurrent swap.
  while (!stopping_.load(std::memory_order_relaxed)) {
    try {
      return engine()->submit(window, options);
    } catch (const EngineStoppedError&) {
    }
  }
  throw EngineStoppedError("Router::submit: router is shut down");
}

Prediction Router::predict(std::span<const float> window,
                           RequestOptions options) {
  return submit(window, options).get();
}

void Router::swap_artifact(const Artifact& next) {
  // One swap (or shutdown) at a time; submissions proceed concurrently.
  const std::lock_guard<std::mutex> swap_lock(swap_mutex_);
  if (stopping_.load(std::memory_order_relaxed)) {
    throw EngineStoppedError("Router::swap_artifact: router is shut down");
  }
  const std::shared_ptr<Engine> retiring = engine();
  // Shape compatibility against the running bundle: every queued request
  // is a window_length x channels window, and the replacement must accept
  // it unchanged. num_classes may differ (a new version may add classes);
  // requests carry no class-count expectation.
  const Artifact& running = retiring->artifact();
  if (next.window_length() != running.window_length() ||
      next.channels() != running.channels()) {
    throw std::invalid_argument(
        "Router::swap_artifact: incompatible artifact (running " +
        std::to_string(running.window_length()) + "x" +
        std::to_string(running.channels()) + ", next " +
        std::to_string(next.window_length()) + "x" +
        std::to_string(next.channels()) +
        "); the running engine is unchanged");
  }
  // The running estimate seeds the replacement directly, so deadline
  // admission never reopens during the cutover (and the replacement skips
  // its warmup forwards). Structural problems in `next` throw here, before
  // anything is published.
  EngineConfig engine_config = config_.engine;
  const double ewma_ms = retiring->stats().ewma_batch_ms;
  if (ewma_ms > 0.0) engine_config.initial_ewma_batch_ms = ewma_ms;
  std::shared_ptr<Engine> replacement(
      new Engine(next, engine_config, config_.shards));
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    engine_ = std::move(replacement);
    ++generation_;
  }
  // Publish before drain: new submissions go to the replacement, and
  // draining fulfils every request the old Engine admitted on the version
  // it was admitted to. A submission that reaches the old Engine from here
  // on gets EngineStoppedError and is resubmitted by Router::submit.
  retiring->shutdown();
}

std::uint64_t Router::artifact_generation() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return generation_;
}

void Router::shutdown() {
  const std::lock_guard<std::mutex> swap_lock(swap_mutex_);
  stopping_.store(true, std::memory_order_relaxed);
  engine()->shutdown();
}

std::size_t Router::queue_depth() const { return engine()->queue_depth(); }

EngineStats Router::stats() const { return engine()->stats(); }

std::vector<EngineStats> Router::shard_stats() const {
  return engine()->replica_stats();
}

Artifact Router::artifact() const { return engine()->artifact(); }

}  // namespace saga::serve
