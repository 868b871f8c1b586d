// The workloads of the Saga benchmark and the inputs they share.
//
//   train       one Pipeline::run(kSaga): LWS trials, four-level masked
//               pre-training, fine-tuning at 20% labels, evaluation
//   serve_fp32  a paper-size deployed model behind one serve::Engine:
//               blocking single windows and bulk bursts
//   serve_int8  the same traffic on its quantize_artifact int8 twin
//   stream      many users' 100 Hz traces pushed from one thread through
//               SessionManager sessions over a two-shard serve::Router
//
// Each workload has a set-up (inputs generated from the seed, models fitted
// and quantized, written to the run directory) and repetitions that each
// run in a fresh process on those files. Traced sections call the layers'
// public functions one by one under spans instead of the end-to-end entry
// points.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "data/dataset.hpp"
#include "harness.hpp"
#include "quant/quant.hpp"
#include "serve/artifact.hpp"
#include "serve/engine.hpp"
#include "serve/router.hpp"
#include "stream/manager.hpp"
#include "stream/replay.hpp"

namespace sagabench {

// ---- sizes ----------------------------------------------------------------
inline constexpr saga::data::Task kTask = saga::data::Task::kActivityRecognition;
inline constexpr std::int64_t kTrainWindows = 300;
inline constexpr double kTrainLabelRate = 0.2;
/// 1200 windows give a 240-window test split: one window is 0.42 pt, finer
/// than the 0.5 pt int8 accuracy gate.
inline constexpr std::int64_t kDeployWindows = 1200;
inline constexpr double kDeployLabelRate = 0.2;
inline constexpr std::size_t kCalibrationWindows = 64;
/// Test accuracy must beat chance by this many binomial standard errors of
/// the test split.
inline constexpr double kChanceSigmas = 3.0;
inline constexpr double kQuantGatePoints = 0.5;
/// The quant gate is checked on a deployed model fitted at this seed,
/// whatever --seed is, so that it passes or fails alike in every run. At
/// this seed int8 loses two of 240 test windows against fp32, beyond the
/// gate: every serve_int8 repetition counts that as one failed operation,
/// which a fix of the quantizer would move to 0.
inline constexpr std::uint64_t kGateSeed = 23;
inline constexpr std::int64_t kReferenceBatch = 16;

inline constexpr int kServeRounds = 3;
inline constexpr int kServeSingles = 60;
inline constexpr int kServeWarmSingles = 10;

inline constexpr std::int64_t kStreamSessions = 32;
inline constexpr double kStreamSeconds = 48.0;
inline constexpr std::int64_t kStreamSegmentWindows = 2;  // 12 s per activity
inline constexpr std::int64_t kStreamChunk = 10;  // samples per push burst
inline constexpr int kStreamRounds = 2;
/// Paced rounds replay the traces at 10x real time: 32 sessions then offer
/// 107 windows/s, under a third of what the two shards drain at full speed,
/// so the event lag stays a service time and not a backlog when the host is
/// busy.
inline constexpr double kStreamSpeed = 10.0;
inline constexpr int kStreamPacedRounds = 1;

// ---- inputs -----------------------------------------------------------------
/// HHAR-like synthetic windows (6 channels, 120 samples at 20 Hz) from a seed.
saga::data::Dataset make_dataset(std::int64_t windows, std::uint64_t seed);
/// The Saga run the train workload times (fast-profile model sizes).
saga::core::PipelineConfig train_config(std::uint64_t seed);
/// The deployed model the serve and stream workloads load (paper_profile()
/// backbone), fitted without pre-training: serving cost does not depend on
/// how the backbone was pre-trained.
saga::core::PipelineConfig deploy_config(std::uint64_t seed);

/// Labelled windows in one flat buffer, as written to the run directory.
struct Windows {
  std::int64_t count = 0;
  std::int64_t length = 0;
  std::int64_t channels = 0;
  std::vector<std::int32_t> labels;
  std::vector<float> values;  // [count, length, channels]

  std::int64_t stride() const noexcept { return length * channels; }
  std::span<const float> view(std::int64_t i) const {
    return {values.data() + i * stride(), static_cast<std::size_t>(stride())};
  }
  std::vector<float> window(std::int64_t i) const {
    const auto v = view(i);
    return {v.begin(), v.end()};
  }
};

void save_windows(const std::string& path, const Windows& windows);
Windows load_windows(const std::string& path);
Windows select_windows(const saga::data::Dataset& dataset,
                       const std::vector<std::int64_t>& indices,
                       saga::data::Task task);

/// NoGrad forward of `count` windows through fresh make_backbone() /
/// make_classifier() models of `artifact`: the reference every served
/// prediction is compared with, bit for bit.
std::vector<std::vector<float>> direct_logits(const saga::serve::Artifact& artifact,
                                              const float* values,
                                              std::int64_t count);
std::int32_t argmax(const std::vector<float>& logits);
bool same_bits(const std::vector<float>& a, const std::vector<float>& b);

/// Dataset generation, model fit and (optionally) quantization into `dir`.
Result setup_deploy(std::uint64_t seed, const std::string& dir, bool quantize);

// ---- serve ------------------------------------------------------------------
/// One artifact of a run directory (fp32 or int8) behind one Engine, with
/// the direct-forward reference logits of every test window.
class ServeSession {
 public:
  ServeSession(const std::string& dir, saga::quant::Precision precision);

  /// A round untimed: single windows and one burst.
  void warm_up(Result& result);
  /// `singles` blocking predict() calls, then the whole test split submitted
  /// as one bulk burst from this thread and drained. Every prediction is
  /// checked against the reference.
  void round(Result& result, int singles, Tracer* tracer);
  const Windows& windows() const noexcept { return windows_; }
  const saga::serve::Artifact& artifact() const noexcept { return artifact_; }
  saga::serve::Engine& engine() { return *engine_; }

 private:
  void check(Result& result, std::int64_t window,
             const saga::serve::Prediction& prediction) const;

  const char* tag_;
  saga::serve::Artifact artifact_;
  Windows windows_;
  std::vector<std::vector<float>> reference_;
  std::unique_ptr<saga::serve::Engine> engine_;
  std::size_t cursor_ = 0;
  std::uint64_t next_request_ = 0;
};

/// One operation: the int8 artifact in `dir` must reach the test accuracy
/// of its fp32 parent less the quant gate (0.5 pt, or one window if that is
/// larger), both counted from direct forwards of the test windows.
void check_quant_gate(const std::string& dir, Result& result);

// ---- stream -----------------------------------------------------------------
/// 100 Hz traces for `sessions` users built from the test windows, their expected windows and
/// events (computed offline from direct forwards and a fresh Composer), and
/// the two-shard Router the sessions are served through.
class StreamSession {
 public:
  StreamSession(const std::string& dir, std::uint64_t seed, std::int64_t sessions);

  /// One fresh SessionManager: every trace pushed from this thread, every
  /// session finished, and windows and events checked against the offline
  /// expectation. With `speed` 0 the samples go in as fast as the thread can
  /// push them (throughput: windows_per_s); with `speed` > 0 they are due at
  /// their trace time divided by `speed` (event lag at a fixed offered rate:
  /// latency_ms, timed from when the sample that triggered each event was
  /// due).
  void round(Result& result, Tracer* tracer, double speed);

  const saga::stream::StreamConfig& config() const noexcept { return config_; }
  const std::vector<saga::stream::ReplayTrace>& traces() const noexcept { return traces_; }
  /// Raw windows of one trace as the session seals them (offline slicing).
  std::vector<std::vector<float>> raw_windows(std::size_t session) const;
  const std::vector<std::vector<float>>& logits(std::size_t session) const {
    return logits_[session];
  }
  saga::serve::Router& router() { return *router_; }

 private:
  saga::serve::Artifact artifact_;
  saga::stream::StreamConfig config_;
  std::vector<saga::stream::ReplayTrace> traces_;
  std::vector<std::vector<std::vector<float>>> logits_;  // per session, window
  std::vector<std::vector<saga::stream::Event>> expected_;
  std::vector<std::vector<std::size_t>> trigger_sample_;  // per expected event
  std::int64_t raw_window_ = 0;
  std::int64_t raw_hop_ = 0;
  std::unique_ptr<saga::serve::Router> router_;
};

// ---- processes --------------------------------------------------------------
/// Cold set-up of `workload` into `dir`: "train", "serve_fp32",
/// "serve_int8", "stream", "trace" for the traced sections, or "gate" for
/// the quant gate's fixed-seed model (in `dir`/gate, untimed by run.py);
/// `t0_s` is the CLOCK_MONOTONIC reading taken just before this process was
/// spawned.
Result run_setup(const std::string& workload, std::uint64_t seed,
                 const std::string& dir, double t0_s);
/// One untraced repetition of `workload` on the set-up in `dir`.
Result run_repetition(const std::string& workload, std::uint64_t seed,
                      const std::string& dir);
/// One traced section (train, serve, stream or pool); spans go to `dir`.
Result run_traced(const std::string& section, std::uint64_t seed,
                  const std::string& dir);

/// Kernel dispatch and pool facts printed with every run.
void add_fingerprint(Result& result);

}  // namespace sagabench
