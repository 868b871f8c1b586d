#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "data/synthetic.hpp"
#include "quant/quantize.hpp"
#include "tensor/eltwise/eltwise.hpp"
#include "tensor/gemm/gemm.hpp"
#include "tensor/gemm/gemm_s8.hpp"
#include "util/thread_pool.hpp"

namespace sagabench {

using namespace saga;

data::Dataset make_dataset(std::int64_t windows, std::uint64_t seed) {
  data::SyntheticSpec spec = data::hhar_like(windows);
  spec.seed = seed;
  return data::generate_dataset(spec);
}

core::PipelineConfig train_config(std::uint64_t seed) {
  core::PipelineConfig config = core::fast_profile();
  config.backbone.dropout = 0.0;
  config.pretrain.epochs = 1;
  config.finetune.epochs = 24;
  config.pretrain.learning_rate = 2e-3;
  config.finetune.learning_rate = 2e-3;
  config.lws.initial_random = 1;
  config.lws.budget = 1;
  config.lws_epoch_fraction = 0.5;
  // A 40% test split (120 windows) resolves accuracy to 0.8 pt at the
  // training cost of the paper's 6:2:2 split of a smaller set.
  config.train_fraction = 0.5;
  config.validation_fraction = 0.1;
  config.seed = seed;
  return config;
}

core::PipelineConfig deploy_config(std::uint64_t seed) {
  core::PipelineConfig config = core::paper_profile();
  config.backbone.dropout = 0.0;
  config.finetune.epochs = 4;
  config.finetune.learning_rate = 2e-3;
  config.seed = seed;
  return config;
}

void add_fingerprint(Result& result) {
  result.info["gemm_kernel"] = gemm::kernel_name();
  result.info["int8_kernel"] = gemm::int8_kernel_name();
  result.info["eltwise_kernel"] = eltwise::kernel_name();
  result.info["int8_act_encoding"] =
      quant::act_encoding_name(quant::preferred_act_encoding());
  result.info["pool_threads"] = std::to_string(util::ThreadPool::global().size());
  result.info["hardware_concurrency"] =
      std::to_string(std::thread::hardware_concurrency());
}

// ---- windows file -------------------------------------------------------

void save_windows(const std::string& path, const Windows& windows) {
  std::ofstream out(path, std::ios::binary);
  const std::int64_t header[3] = {windows.count, windows.length, windows.channels};
  out.write(reinterpret_cast<const char*>(header), sizeof header);
  out.write(reinterpret_cast<const char*>(windows.labels.data()),
            static_cast<std::streamsize>(windows.labels.size() * sizeof(std::int32_t)));
  out.write(reinterpret_cast<const char*>(windows.values.data()),
            static_cast<std::streamsize>(windows.values.size() * sizeof(float)));
  if (!out) throw std::runtime_error("sagabench: cannot write " + path);
}

Windows load_windows(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  Windows windows;
  std::int64_t header[3] = {0, 0, 0};
  in.read(reinterpret_cast<char*>(header), sizeof header);
  if (!in || header[0] <= 0 || header[1] <= 0 || header[2] <= 0 ||
      header[0] > (1 << 20) || header[1] * header[2] > (1 << 20)) {
    throw std::runtime_error("sagabench: malformed windows file " + path);
  }
  windows.count = header[0];
  windows.length = header[1];
  windows.channels = header[2];
  windows.labels.resize(static_cast<std::size_t>(windows.count));
  windows.values.resize(static_cast<std::size_t>(windows.count * windows.stride()));
  in.read(reinterpret_cast<char*>(windows.labels.data()),
          static_cast<std::streamsize>(windows.labels.size() * sizeof(std::int32_t)));
  in.read(reinterpret_cast<char*>(windows.values.data()),
          static_cast<std::streamsize>(windows.values.size() * sizeof(float)));
  if (!in) throw std::runtime_error("sagabench: truncated windows file " + path);
  return windows;
}

Windows select_windows(const data::Dataset& dataset,
                       const std::vector<std::int64_t>& indices, data::Task task) {
  Windows windows;
  windows.count = static_cast<std::int64_t>(indices.size());
  windows.length = dataset.window_length;
  windows.channels = dataset.channels;
  for (const std::int64_t index : indices) {
    const auto& values = dataset.samples[static_cast<std::size_t>(index)].values;
    windows.values.insert(windows.values.end(), values.begin(), values.end());
    windows.labels.push_back(dataset.label(index, task));
  }
  return windows;
}

// ---- direct forwards (the reference every served prediction must equal) --

std::vector<std::vector<float>> direct_logits(const serve::Artifact& artifact,
                                              const float* values,
                                              std::int64_t count) {
  auto backbone = artifact.make_backbone();
  auto classifier = artifact.make_classifier();
  const std::int64_t length = artifact.window_length();
  const std::int64_t channels = artifact.channels();
  NoGradGuard no_grad;
  std::vector<std::vector<float>> logits;
  logits.reserve(static_cast<std::size_t>(count));
  for (std::int64_t begin = 0; begin < count; begin += kReferenceBatch) {
    const std::int64_t rows = std::min(kReferenceBatch, count - begin);
    const float* first = values + begin * length * channels;
    Tensor input = Tensor::from_data(
        {rows, length, channels},
        std::vector<float>(first, first + rows * length * channels));
    const Tensor out = classifier.forward(backbone.encode(input));
    const auto flat = out.data();
    const auto classes = static_cast<std::size_t>(out.size(1));
    for (std::int64_t r = 0; r < rows; ++r) {
      const auto offset = static_cast<std::size_t>(r) * classes;
      logits.emplace_back(flat.begin() + static_cast<std::ptrdiff_t>(offset),
                          flat.begin() + static_cast<std::ptrdiff_t>(offset + classes));
    }
  }
  return logits;
}

std::int32_t argmax(const std::vector<float>& logits) {
  return static_cast<std::int32_t>(
      std::max_element(logits.begin(), logits.end()) - logits.begin());
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// ---- set-up ---------------------------------------------------------------

namespace {

double monotonic_now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

/// The train workload's inputs: its dataset, which each repetition
/// regenerates from the seed (a Saga run fits its models itself).
Result setup_train(std::uint64_t seed) {
  Result result;
  const auto start = Clock::now();
  const data::Dataset dataset = make_dataset(kTrainWindows, seed);
  result.values["data.generate_s"] = seconds_since(start);
  result.check(dataset.size() == kTrainWindows, "train dataset has the wrong size");
  return result;
}

}  // namespace

Result setup_deploy(std::uint64_t seed, const std::string& dir, bool quantize) {
  Result result;
  auto start = Clock::now();
  const data::Dataset dataset = make_dataset(kDeployWindows, seed);
  result.values["data.generate_s"] = seconds_since(start);

  start = Clock::now();
  core::Pipeline pipeline(dataset, kTask, deploy_config(seed));
  const core::RunResult fit = pipeline.run(core::Method::kNoPretrain, kDeployLabelRate);
  const serve::Artifact fp32 = serve::Artifact::from_pipeline(pipeline, "sagabench");
  result.values["setup.fit_s"] = seconds_since(start);
  result.check(std::isfinite(fit.test.accuracy), "deploy fit accuracy is finite");
  fp32.save(dir + "/fp32.artifact");
  save_windows(dir + "/test.windows",
               select_windows(dataset, pipeline.split().test, kTask));

  if (quantize) {
    start = Clock::now();
    std::vector<std::vector<float>> calibration;
    const auto& train = pipeline.split().train;
    for (std::size_t i = 0; i < train.size() && i < kCalibrationWindows; ++i) {
      calibration.push_back(dataset.samples[static_cast<std::size_t>(train[i])].values);
    }
    const serve::Artifact int8 = quant::quantize_artifact(fp32, calibration);
    result.values["quant.quantize_s"] = seconds_since(start);
    int8.save(dir + "/int8.artifact");
  }
  return result;
}

Result run_setup(const std::string& workload, std::uint64_t seed,
                 const std::string& dir, double t0_s) {
  Result result;
  if (workload == "train") {
    result = setup_train(seed);
  } else if (workload == "serve_int8" || workload == "trace") {
    result = setup_deploy(seed, dir, /*quantize=*/true);
  } else if (workload == "serve_fp32" || workload == "stream") {
    result = setup_deploy(seed, dir, /*quantize=*/false);
  } else if (workload == "gate") {
    std::filesystem::create_directories(dir + "/gate");
    result = setup_deploy(kGateSeed, dir + "/gate", /*quantize=*/true);
  } else {
    throw std::invalid_argument("sagabench: unknown workload " + workload);
  }
  result.values["setup_s"] = monotonic_now_s() - t0_s;
  add_fingerprint(result);
  return result;
}

// ---- repetitions ----------------------------------------------------------

namespace {

Result train_repetition(std::uint64_t seed) {
  Result result;
  const data::Dataset dataset = make_dataset(kTrainWindows, seed);
  const core::PipelineConfig config = train_config(seed);
  core::Pipeline pipeline(dataset, kTask, config);

  const auto start = Clock::now();
  const core::RunResult run = pipeline.run(core::Method::kSaga, kTrainLabelRate);
  const double train_s = seconds_since(start);
  result.ops = 1;

  const auto unlabelled = static_cast<double>(pipeline.split().train.size());
  const auto labelled = static_cast<double>(run.labelled_samples);
  const auto trial_epochs = [&](std::int64_t epochs) {
    return static_cast<double>(std::max<std::int64_t>(
        1, static_cast<std::int64_t>(static_cast<double>(epochs) *
                                     config.lws_epoch_fraction)));
  };
  const double trials = static_cast<double>(run.lws_trials);
  const double pretrain_epochs =
      trials * trial_epochs(config.pretrain.epochs) + static_cast<double>(config.pretrain.epochs);
  const double finetune_epochs =
      trials * trial_epochs(config.finetune.epochs) + static_cast<double>(config.finetune.epochs);
  result.samples["latency_ms"] = {1e3 * train_s};
  result.samples["windows_per_s"] = {unlabelled * pretrain_epochs / run.pretrain_seconds};
  result.samples["finetune_windows_per_s"] = {labelled * finetune_epochs /
                                              run.finetune_seconds};

  // Output checks: properties of the run, then an independent recount.
  result.check(run.lws_trials == config.lws.initial_random + config.lws.budget,
               "lws_trials != initial_random + budget");
  double weight_sum = 0.0;
  for (const double w : run.weights) {
    result.check(w >= 0.0, "negative LWS weight");
    weight_sum += w;
  }
  result.check(std::abs(weight_sum - 1.0) < 1e-9, "LWS weights do not sum to 1");
  bool finite = std::isfinite(run.pretrain_seconds) && std::isfinite(run.finetune_seconds);
  for (const auto* state : {&pipeline.trained().backbone_state,
                            &pipeline.trained().classifier_state}) {
    for (const auto& [name, blob] : *state) {
      for (const float v : blob) finite = finite && std::isfinite(v);
    }
  }
  result.check(finite, "non-finite loss: trained weights are not finite");

  const auto& test = pipeline.split().test;
  const double n = static_cast<double>(test.size());
  const double chance = 1.0 / static_cast<double>(dataset.num_classes(kTask));
  const double margin = kChanceSigmas * std::sqrt(chance * (1.0 - chance) / n);
  result.check(run.test.accuracy > chance + margin,
               "test accuracy " + std::to_string(run.test.accuracy) +
                   " not above chance + margin " + std::to_string(chance + margin));

  serve::Engine engine{serve::Artifact::from_pipeline(pipeline, "sagabench-train")};
  const Windows windows = select_windows(dataset, test, kTask);
  std::vector<std::vector<float>> batch;
  for (std::int64_t i = 0; i < windows.count; ++i) batch.push_back(windows.window(i));
  const auto predictions = engine.predict_batch(batch);
  std::int64_t correct = 0;
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    correct += predictions[i].label == windows.labels[i] ? 1 : 0;
  }
  const double recount = static_cast<double>(correct) / n;
  result.check(recount == run.test.accuracy,
               "Engine-recounted accuracy " + std::to_string(recount) +
                   " != RunResult::test.accuracy " + std::to_string(run.test.accuracy));
  result.samples["test_accuracy"] = {run.test.accuracy};
  return result;
}

}  // namespace

Result run_repetition(const std::string& workload, std::uint64_t seed,
                      const std::string& dir) {
  if (workload == "train") return train_repetition(seed);
  if (workload == "serve_fp32" || workload == "serve_int8") {
    Result result;
    ServeSession session(dir, quant::parse_precision(workload.substr(6)));
    session.warm_up(result);
    for (int round = 0; round < kServeRounds; ++round) {
      session.round(result, kServeSingles, nullptr);
    }
    result.samples.erase("serve.request_ms");
    if (workload == "serve_int8") check_quant_gate(dir + "/gate", result);
    return result;
  }
  if (workload == "stream") {
    Result result;
    StreamSession session(dir, seed, kStreamSessions);
    session.round(result, nullptr, 0.0);  // warm-up round, checked but not timed
    result.samples.clear();
    result.values.clear();
    result.ops = 0;
    for (int round = 0; round < kStreamRounds; ++round) session.round(result, nullptr, 0.0);
    for (int round = 0; round < kStreamPacedRounds; ++round) {
      session.round(result, nullptr, kStreamSpeed);
    }
    return result;
  }
  throw std::invalid_argument("sagabench: unknown workload " + workload);
}

}  // namespace sagabench
