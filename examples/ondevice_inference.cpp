// Mobile-deployment story (paper §VII-D2): train a model through the
// Pipeline, export it as a serve::Artifact in one call, reload it into a
// fresh serve::Engine (our stand-in for the paper's ONNX Runtime export),
// and measure single-window inference latency — the quantity Fig. 13
// reports per phone. When the dataset is at hand (the training path), the
// example also runs the int8 deployment flow: calibrate, quantize, export a
// v3 bundle, and compare its size and latency against fp32.
//
// Set SAGA_ARTIFACT=/path/to/file to make the hand-off cross processes: the
// first run trains and exports to that path (and keeps it); a second run of
// this binary finds the file and serves it WITHOUT training — a genuinely
// fresh process reconstructing the model from the artifact alone. The file
// may hold either precision; the engine serves whatever was loaded.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>

#include "core/saga.hpp"
#include "quant/quantize.hpp"
#include "util/env.hpp"

using namespace saga;
using Clock = std::chrono::steady_clock;

namespace {

/// Mean blocking predict() latency over `runs` calls (one warm-up first) —
/// the path a phone app uses for one window at a time.
double single_window_ms(serve::Engine& engine, const Tensor& window,
                        int runs = 10) {
  (void)engine.predict(window.data());  // warm-up
  const auto start = Clock::now();
  for (int r = 0; r < runs; ++r) {
    const auto prediction = engine.predict(window.data());
    (void)prediction.label;
  }
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
             .count() /
         runs;
}

void print_bundle_info(const serve::Artifact& artifact,
                       const std::string& path) {
  std::printf("artifact bundle: precision=%s manifest=v%lld, %.0f KB on disk\n",
              quant::precision_name(artifact.precision),
              static_cast<long long>(artifact.manifest_version()),
              static_cast<double>(std::filesystem::file_size(path)) / 1024.0);
}

}  // namespace

int main() {
  std::printf("== On-device inference: artifact round trip + latency ==\n");

  const char* artifact_env = std::getenv("SAGA_ARTIFACT");
  const std::string path =
      artifact_env != nullptr
          ? std::string(artifact_env)
          : std::string(std::filesystem::temp_directory_path() /
                        "saga_deploy.artifact");

  // Reuse an existing artifact only if it actually loads; a corrupt or
  // incompatible leftover falls back to retraining instead of aborting.
  std::optional<serve::Artifact> artifact;
  std::optional<data::Dataset> dataset;
  if (artifact_env != nullptr && std::filesystem::exists(path)) {
    try {
      artifact = serve::Artifact::load(path);
    } catch (const std::exception& e) {
      std::printf("existing artifact %s is unusable (%s) — retraining\n",
                  path.c_str(), e.what());
    }
  }

  if (artifact) {
    std::printf("found existing artifact %s — serving without training\n",
                path.c_str());
  } else {
    // A small trained model (paper-size backbone; tiny training budget).
    dataset = data::generate_dataset(data::hhar_like(120));
    core::PipelineConfig config = core::fast_profile();
    config.finetune.epochs = util::env_int("SAGA_EPOCHS", 2);
    core::Pipeline pipeline(*dataset, data::Task::kActivityRecognition, config);
    const auto run = pipeline.run(core::Method::kNoPretrain, 0.5);
    std::printf("trained %s: test acc %.1f%%\n",
                core::method_name(run.method).c_str(),
                100.0 * run.test.accuracy);

    // Deployment hand-off: one call to export, one to load.
    serve::export_artifact(pipeline, path);
    artifact = serve::Artifact::load(path);
  }
  // Report the bundle actually loaded, whatever precision it carries: the
  // on-disk bytes ARE the deployment cost a phone pays per model download.
  print_bundle_info(*artifact, path);

  // The int8 deployment flow needs calibration windows, so it runs when the
  // dataset is at hand (the training path); a fresh process just serves the
  // precision it loaded.
  std::optional<serve::Artifact> int8_artifact;
  std::string int8_path;
  if (dataset && artifact->precision == quant::Precision::kFp32) {
    std::vector<std::vector<float>> calibration;
    for (std::size_t i = 0; i < 32 && i < dataset->samples.size(); ++i) {
      calibration.push_back(dataset->samples[i].values);
    }
    int8_artifact = quant::quantize_artifact(*artifact, calibration);
    int8_path = std::filesystem::temp_directory_path() /
                "saga_deploy_int8.artifact";
    int8_artifact->save(int8_path);
    print_bundle_info(*int8_artifact, int8_path);
    std::printf("int8 bundle shrink: %.2fx\n",
                static_cast<double>(std::filesystem::file_size(path)) /
                    static_cast<double>(std::filesystem::file_size(int8_path)));
  }

  serve::Engine engine(std::move(*artifact));
  if (artifact_env == nullptr) std::filesystem::remove(path);
  std::printf("engine loaded: task=%s window=%lldx%lld classes=%lld "
              "precision=%s (from %s)\n",
              data::task_name(engine.artifact().task).c_str(),
              static_cast<long long>(engine.artifact().window_length()),
              static_cast<long long>(engine.artifact().channels()),
              static_cast<long long>(engine.artifact().num_classes()),
              quant::precision_name(engine.precision()),
              engine.artifact().source.c_str());

  // Single-window latency, averaged over 10 runs (paper protocol).
  // predict() is a thin submit().get() wrapper, so this is the blocking
  // request path a phone app would use for one window at a time.
  util::Rng rng(3);
  const Tensor window = Tensor::randn(
      {engine.artifact().window_length(), engine.artifact().channels()}, rng);
  const double ms = single_window_ms(engine, window);
  std::printf("single-window (1x%lldx%lld) inference: %.2f ms on this host\n",
              static_cast<long long>(engine.artifact().window_length()),
              static_cast<long long>(engine.artifact().channels()), ms);

  if (int8_artifact) {
    serve::Engine int8_engine(std::move(*int8_artifact));
    std::filesystem::remove(int8_path);
    const double int8_ms = single_window_ms(int8_engine, window);
    const auto fp32_prediction = engine.predict(window.data());
    const auto int8_prediction = int8_engine.predict(window.data());
    std::printf("int8 single-window inference: %.2f ms (%.2fx vs fp32), "
                "labels %s\n",
                int8_ms, ms / int8_ms,
                fp32_prediction.label == int8_prediction.label ? "agree"
                                                               : "DIFFER");
  }

  // Async fan-out: a burst of buffered windows (the "phone was in a pocket
  // for a minute" catch-up case) submitted as kBulk with a 2 ms batching
  // deadline, collected after the fact. The dispatcher coalesces them into
  // micro-batches; each handle reports its own submit->completion latency.
  constexpr int kBurst = 8;
  std::vector<serve::ResponseHandle> burst;
  burst.reserve(kBurst);
  serve::RequestOptions bulk;
  bulk.priority = serve::Priority::kBulk;
  bulk.deadline = std::chrono::microseconds(2000);
  for (int r = 0; r < kBurst; ++r) burst.push_back(engine.submit(window.data(), bulk));
  double worst_ms = 0.0;
  for (auto& handle : burst) {
    (void)handle.get().label;
    if (handle.latency_ms() > worst_ms) worst_ms = handle.latency_ms();
  }
  const auto stats = engine.stats();
  std::printf("burst of %d buffered windows (bulk, 2 ms deadline): worst "
              "latency %.2f ms, mean batch %.2f\n",
              kBurst, worst_ms, stats.mean_batch());
  std::printf("(paper Fig. 13: <= 12 ms on all five phones; see "
              "bench_fig13_latency for per-device scaling and "
              "examples/serve_throughput for the batched serving path)\n");
  return 0;
}
