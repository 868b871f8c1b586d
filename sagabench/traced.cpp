// Traced sections: the layers' public functions called one by one under
// spans, so a change in an end-to-end number can be traced to the module
// that moved. Spans are written to <dir>/trace-<section>.json at the end;
// run.py derives self times and the per-layer metrics from them.
#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "bo/gp.hpp"
#include "bo/lws.hpp"
#include "data/batch.hpp"
#include "data/preprocess.hpp"
#include "masking/masking.hpp"
#include "nn/optimizer.hpp"
#include "signal/keypoints.hpp"
#include "signal/period.hpp"
#include "tensor/attention_fused.hpp"
#include "tensor/eltwise/eltwise.hpp"
#include "tensor/gemm/gemm.hpp"
#include "tensor/gemm/gemm_s8.hpp"
#include "tensor/grad_mode.hpp"
#include "tensor/loss.hpp"
#include "tensor/ops.hpp"
#include "tensor/shape_ops.hpp"
#include "train/finetune.hpp"
#include "train/pretrain.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace sagabench {

using namespace saga;

namespace {

constexpr std::int64_t kTracedEpochs = 2;
// Traced and untraced pre-training passes of kTracedEpochs each, alternated
// and compared pass by pass, so that the host's drift cancels.
constexpr int kAgreementPasses = 3;
// Sample counts: 180 single windows per precision and ~200 stream events
// carry a p90 with ten samples beyond it; 1440 burst requests carry a p99.
constexpr int kTracedServeRounds = 3;
constexpr int kTracedStreamRounds = 2;
constexpr int kTracedPacedRounds = 2;
constexpr int kProbeIterations = 30;

const char* mask_span(mask::MaskLevel level) {
  switch (level) {
    case mask::MaskLevel::kSensor: return "mask.sensor";
    case mask::MaskLevel::kPoint: return "mask.point";
    case mask::MaskLevel::kSubPeriod: return "mask.subperiod";
    case mask::MaskLevel::kPeriod: return "mask.period";
  }
  return "mask.unknown";
}

double counter_delta(std::uint64_t before, std::uint64_t after) {
  return static_cast<double>(after - before);
}

/// GFLOP/s of gemm::gemm over the Linear shapes of one transformer block
/// (Q/K/V/output projections and the two FFN matrices) at `rows` tokens.
double gemm_gflops(std::int64_t rows, std::int64_t hidden, std::int64_t ff) {
  const std::int64_t widest = std::max(hidden, ff);
  util::Rng rng(17);
  const Tensor a = Tensor::randn({rows, widest}, rng);
  const Tensor b = Tensor::randn({widest, widest}, rng);
  std::vector<float> c(static_cast<std::size_t>(rows * widest));
  const std::array<std::array<std::int64_t, 2>, 3> shapes{
      {{hidden, hidden}, {ff, hidden}, {hidden, ff}}};  // {n, k}
  const auto pass = [&] {
    double flops = 0.0;
    for (const auto& [n, k] : shapes) {
      gemm::gemm(a.data().data(), b.data().data(), c.data(), rows, n, k,
                 /*trans_a=*/false, /*trans_b=*/true, /*accumulate=*/false);
      flops += 2.0 * static_cast<double>(rows * n * k);
    }
    return flops;
  };
  pass();
  const auto start = Clock::now();
  double flops = 0.0;
  for (int i = 0; i < 5; ++i) flops += pass();
  return flops / seconds_since(start) / 1e9;
}

/// GOP/s of gemm::gemm_s8 over the same shapes with 7-bit activations
/// (valid for every int8 kernel).
double gemm_s8_gops(std::int64_t rows, std::int64_t hidden, std::int64_t ff) {
  const std::int64_t widest = std::max(hidden, ff);
  util::Rng rng(19);
  std::vector<std::uint8_t> a(static_cast<std::size_t>(rows * widest));
  for (auto& v : a) v = static_cast<std::uint8_t>(rng.uniform(1.0, 127.0));
  std::vector<std::int32_t> c(static_cast<std::size_t>(rows * widest));
  const std::array<std::array<std::int64_t, 2>, 3> shapes{
      {{hidden, hidden}, {ff, hidden}, {hidden, ff}}};  // {n, k}
  std::vector<gemm::PackedB8> packed;
  for (const auto& [n, k] : shapes) {
    std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
    for (auto& v : b) v = static_cast<std::int8_t>(rng.uniform(-127.0, 127.0));
    packed.push_back(gemm::pack_b8(b.data(), k, n));
  }
  const auto pass = [&] {
    double ops = 0.0;
    for (std::size_t s = 0; s < shapes.size(); ++s) {
      const auto [n, k] = shapes[s];
      gemm::gemm_s8(a.data(), widest, packed[s], c.data(), n, rows);
      ops += 2.0 * static_cast<double>(rows * n * k);
    }
    return ops;
  };
  pass();
  const auto start = Clock::now();
  double ops = 0.0;
  for (int i = 0; i < 5; ++i) ops += pass();
  return ops / seconds_since(start) / 1e9;
}

// ---- train ------------------------------------------------------------------

Result traced_train(std::uint64_t seed, Tracer& tracer) {
  Result result;
  const data::Dataset dataset = make_dataset(kTrainWindows, seed);
  core::PipelineConfig config = train_config(seed);
  config.backbone.input_channels = dataset.channels;
  config.backbone.max_seq_len = dataset.window_length;
  config.classifier.input_dim = config.backbone.hidden_dim;
  config.classifier.num_classes = dataset.num_classes(kTask);
  const data::Split split = data::split_dataset(
      dataset, config.train_fraction, config.validation_fraction, config.seed);

  // signal: the key-point and main-period searches behind the sub-period
  // and period masks, per window.
  for (const std::int64_t index : split.train) {
    const auto& values = dataset.samples[static_cast<std::size_t>(index)].values;
    std::vector<double> energy;
    {
      Tracer::Scope span(&tracer, "signal.keypoints");
      energy = signal::energy_series(values, dataset.window_length, dataset.channels,
                                     config.pretrain.masking.acc_axes);
      (void)signal::find_key_points(energy, config.pretrain.masking.keypoints);
    }
    Tracer::Scope span(&tracer, "signal.main_period");
    (void)signal::find_main_period(energy, config.pretrain.masking.period);
  }

  train::PretrainConfig pretrain = config.pretrain;
  pretrain.epochs = kTracedEpochs;
  pretrain.weights = train::kUniformWeights;
  const auto make_pair = [&] {
    return std::pair{models::LimuBertBackbone(config.backbone),
                     models::ReconstructionHead(config.backbone.hidden_dim,
                                                config.backbone.input_channels, seed)};
  };
  // Untraced reference of the same config: pretrain_backbone's own wall
  // time, in passes that alternate with the traced ones so that a drift of
  // the host's speed affects both sides alike.
  const auto untraced = [&](std::int64_t epochs) {
    auto [backbone, head] = make_pair();
    train::PretrainConfig config_pass = pretrain;
    config_pass.epochs = epochs;
    const auto stats =
        train::pretrain_backbone(backbone, head, dataset, split.train, config_pass);
    for (const double loss : stats.epoch_losses) {
      result.check(std::isfinite(loss), "non-finite pretrain_backbone loss");
    }
    return stats.wall_seconds;
  };
  std::int64_t steps = 0;
  const auto traced = [&] {
    auto [backbone, head] = make_pair();
    std::vector<Tensor> params = backbone.parameters();
    const auto head_params = head.parameters();
    params.insert(params.end(), head_params.begin(), head_params.end());
    nn::Adam::Options adam_options;
    adam_options.lr = pretrain.learning_rate;
    nn::Adam optimizer(params, adam_options);
    backbone.set_training(true);
    head.set_training(true);
    util::SeedSplitter seeds(pretrain.seed);
    data::BatchIterator batches(dataset, split.train, kTask, pretrain.batch_size,
                                seeds.next());
    for (std::int64_t epoch = 0; epoch < pretrain.epochs; ++epoch) {
      batches.reset();
      data::Batch batch;
      while (batches.next(batch)) {
        Tracer::Scope step(&tracer, "pretrain.step");
        const std::uint64_t nodes = detail::autograd_nodes_created();
        const std::uint64_t copies = detail::materializing_copies();
        optimizer.zero_grad();
        std::vector<mask::BatchMask> views;
        std::vector<Tensor> inputs;
        for (const mask::MaskLevel level : mask::kAllLevels) {
          Tracer::Scope span(&tracer, mask_span(level));
          views.push_back(mask::mask_batch(batch.inputs, level, pretrain.masking,
                                           seeds.next()));
          inputs.push_back(views.back().masked);
        }
        Tensor total;
        {
          Tracer::Scope span(&tracer, "pretrain.forward");
          const Tensor reconstructed = head.forward(backbone.encode(concat(inputs, 0)));
          const std::int64_t per_view = batch.inputs.size(0);
          for (std::size_t v = 0; v < views.size(); ++v) {
            const Tensor loss = mse_masked(
                slice(reconstructed, 0, static_cast<std::int64_t>(v) * per_view, per_view),
                batch.inputs, views[v].mask);
            (void)loss.item();
            const Tensor weighted = scale(loss, static_cast<float>(pretrain.weights[v]));
            total = total.defined() ? add(total, weighted) : weighted;
          }
        }
        {
          Tracer::Scope span(&tracer, "pretrain.backward");
          total.backward();
        }
        {
          Tracer::Scope span(&tracer, "adam.step");
          if (pretrain.grad_clip > 0.0) optimizer.clip_grad_norm(pretrain.grad_clip);
          optimizer.step();
        }
        result.check(std::isfinite(total.item()), "non-finite pre-training loss");
        result.samples["pretrain.nodes_per_step"].push_back(
            counter_delta(nodes, detail::autograd_nodes_created()));
        result.samples["pretrain.copies_per_step"].push_back(
            counter_delta(copies, detail::materializing_copies()));
        ++steps;
      }
    }
  };
  (void)untraced(1);  // warms caches and the pool
  for (int pass = 0; pass < kAgreementPasses; ++pass) {
    const double wall = untraced(pretrain.epochs);
    const std::int64_t before = steps;
    traced();
    result.samples["pretrain.untraced_step_ms"].push_back(
        1e3 * wall / static_cast<double>(steps - before));
  }

  // Fine-tuning through finetune_classifier itself (all training windows
  // labelled, so a step time is an average over many), then evaluation.
  {
    auto backbone = models::LimuBertBackbone(config.backbone);
    auto classifier = models::GruClassifier(config.classifier);
    train::FinetuneConfig finetune = config.finetune;
    finetune.epochs = kTracedEpochs;
    const train::FinetuneStats stats = train::finetune_classifier(
        backbone, classifier, dataset, split.train, kTask, finetune);
    for (const double loss : stats.epoch_losses) {
      result.check(std::isfinite(loss), "non-finite fine-tuning loss");
    }
    const data::BatchIterator batches(dataset, split.train, kTask, finetune.batch_size,
                                      finetune.seed);
    result.values["finetune.step_ms"] =
        1e3 * stats.wall_seconds /
        static_cast<double>(finetune.epochs * batches.batches_per_epoch());
    for (int i = 0; i < 5; ++i) {
      const auto start = Clock::now();
      Tracer::Scope span(&tracer, "train.evaluate");
      const auto metrics = train::evaluate(backbone, classifier, dataset, split.test, kTask);
      result.samples["evaluate.windows_per_s"].push_back(
          static_cast<double>(metrics.num_samples) / seconds_since(start));
    }
  }

  // bo: LWS bookkeeping with a zero-cost evaluate, then GP fits on its
  // history.
  bo::LwsConfig lws = config.lws;
  lws.seed = seed;
  const auto evaluate = [](const bo::TaskWeights& w) {
    double loss = 0.0;
    for (std::size_t i = 0; i < w.size(); ++i) loss += (w[i] - 0.1 * i) * (w[i] - 0.1 * i);
    return 1.0 - loss;
  };
  bo::LwsResult search;
  for (int i = 0; i < kProbeIterations; ++i) {
    const auto start = Clock::now();
    Tracer::Scope span(&tracer, "lws.search");
    search = bo::search_weights(evaluate, lws);
    result.samples["lws.overhead_ms_per_trial"].push_back(
        ms_since(start) / static_cast<double>(search.history.size()));
  }
  result.values["lws.trials"] = static_cast<double>(search.history.size());
  std::vector<std::vector<double>> points;
  std::vector<double> targets;
  for (const auto& trial : search.history) {
    points.emplace_back(trial.weights.begin(), trial.weights.end());
    targets.push_back(trial.performance);
  }
  for (int i = 0; i < kProbeIterations; ++i) {
    bo::GaussianProcess gp(lws.gp);
    Tracer::Scope span(&tracer, "gp.fit");
    gp.fit(points, targets);
  }

  // gemm at the pre-training shapes: 4 masked views x batch x window rows.
  const std::int64_t rows = 4 * pretrain.batch_size * dataset.window_length;
  for (int i = 0; i < 5; ++i) {
    result.samples["gemm.train_gflops"].push_back(
        gemm_gflops(rows, config.backbone.hidden_dim, config.backbone.ff_dim));
  }
  return result;
}

// ---- serve ------------------------------------------------------------------

Result traced_serve(const std::string& dir, Tracer& tracer) {
  Result result;
  const std::array<quant::Precision, 2> precisions{quant::Precision::kFp32,
                                                   quant::Precision::kInt8};
  serve::Histogram batch_ms = serve::Histogram::latency_ms();
  std::uint64_t requests = 0;
  std::uint64_t batches = 0;
  std::vector<serve::Artifact> artifacts;
  Windows windows;
  for (const quant::Precision precision : precisions) {
    const std::string tag = quant::precision_name(precision);
    ServeSession session(dir, precision);
    Result part;
    session.warm_up(part);
    for (int round = 0; round < kTracedServeRounds; ++round) {
      session.round(part, kServeSingles, &tracer);
    }
    const serve::EngineStats stats = session.engine().stats();
    batch_ms.merge(stats.batch_latency_ms_hist);
    requests += stats.requests;
    batches += stats.batches;
    // The traced counterparts of the serve workloads' end-to-end metrics.
    result.samples["serve." + tag + "_latency_ms"] = part.samples["latency_ms"];
    result.samples["traced." + tag + "_windows_per_s"] = part.samples["windows_per_s"];
    auto& all = result.samples["serve.request_ms"];
    all.insert(all.end(), part.samples["serve.request_ms"].begin(),
               part.samples["serve.request_ms"].end());
    for (const auto& error : part.errors) result.check(false, error);
    result.ops += part.ops;
    artifacts.push_back(session.artifact());
    windows = session.windows();
  }
  result.values["serve.batch_ms"] = batch_ms.mean();
  result.values["serve.mean_batch"] =
      static_cast<double>(requests) / static_cast<double>(batches);

  // Direct forwards of the deployed models at batch 1 and 16.
  const auto batch_of = [&](std::int64_t rows) {
    return Tensor::from_data({rows, windows.length, windows.channels},
                             {windows.values.begin(),
                              windows.values.begin() + rows * windows.stride()});
  };
  const Tensor b1 = batch_of(1);
  const Tensor b16 = batch_of(16);
  static const char* const kSpans[2][4] = {
      {"fp32.encode_b1", "fp32.classifier_b1", "fp32.encode_b16", "fp32.classifier_b16"},
      {"int8.encode_b1", "int8.classifier_b1", "int8.encode_b16", "int8.classifier_b16"}};
  for (int side = 0; side < 2; ++side) {
    auto backbone = artifacts[static_cast<std::size_t>(side)].make_backbone();
    auto classifier = artifacts[static_cast<std::size_t>(side)].make_classifier();
    NoGradGuard no_grad;
    for (int i = 0; i < kProbeIterations + 3; ++i) {
      Tracer* t = i < 3 ? nullptr : &tracer;  // three warm-up passes
      const std::uint64_t nodes = detail::autograd_nodes_created();
      const std::uint64_t copies = detail::materializing_copies();
      Tensor h;
      {
        Tracer::Scope span(t, kSpans[side][0]);
        h = backbone.encode(b1);
      }
      {
        Tracer::Scope span(t, kSpans[side][1]);
        (void)classifier.forward(h);
      }
      if (side == 0 && t != nullptr) {
        result.samples["infer.nodes_per_forward"].push_back(
            counter_delta(nodes, detail::autograd_nodes_created()));
        result.samples["infer.copies_per_forward"].push_back(
            counter_delta(copies, detail::materializing_copies()));
      }
      {
        Tracer::Scope span(t, kSpans[side][2]);
        h = backbone.encode(b16);
      }
      Tracer::Scope span(t, kSpans[side][3]);
      (void)classifier.forward(h);
    }
  }

  // tensor kernels at the serve shapes (batch 16 x window 120 tokens).
  const auto& bc = artifacts[0].backbone_config;
  const auto& cc = artifacts[0].classifier_config;
  const std::int64_t rows = 16 * bc.max_seq_len;
  util::Rng rng(23);
  NoGradGuard no_grad;
  const Tensor ff = Tensor::randn({rows, bc.ff_dim}, rng);
  const Tensor ff_bias = Tensor::randn({bc.ff_dim}, rng);
  const Tensor x = Tensor::randn({rows, bc.hidden_dim}, rng);
  const Tensor residual = Tensor::randn({rows, bc.hidden_dim}, rng);
  const Tensor gamma = Tensor::ones({bc.hidden_dim});
  const Tensor beta = Tensor::zeros({bc.hidden_dim});
  const Tensor gi = Tensor::randn({16, 3 * cc.gru_hidden}, rng);
  const Tensor gh = Tensor::randn({16, 3 * cc.gru_hidden}, rng);
  const Tensor h = Tensor::randn({16, cc.gru_hidden}, rng);
  const Tensor qkv = Tensor::randn({16, bc.max_seq_len, bc.hidden_dim}, rng);
  for (int i = 0; i < 10 * kProbeIterations; ++i) {
    Tracer* t = i < 3 ? nullptr : &tracer;
    {
      Tracer::Scope span(t, "eltwise.bias_gelu");
      (void)eltwise::bias_gelu(ff, ff_bias);
    }
    {
      Tracer::Scope span(t, "eltwise.residual_ln");
      (void)eltwise::residual_layer_norm(x, residual, gamma, beta);
    }
    Tracer::Scope span(t, "eltwise.gru_cell");
    (void)eltwise::gru_cell(gi, gh, h);
  }
  for (int i = 0; i < kProbeIterations + 3; ++i) {
    Tracer::Scope span(i < 3 ? nullptr : &tracer, "attention.fwd");
    (void)fused_multi_head_attention(qkv, qkv, qkv, bc.num_heads);
  }
  for (int i = 0; i < 5; ++i) {
    result.samples["gemm.serve_gflops"].push_back(
        gemm_gflops(rows, bc.hidden_dim, bc.ff_dim));
    result.samples["gemm_s8.serve_gops"].push_back(
        gemm_s8_gops(rows, bc.hidden_dim, bc.ff_dim));
  }
  return result;
}

// ---- stream -----------------------------------------------------------------

Result traced_stream(const std::string& dir, std::uint64_t seed, Tracer& tracer) {
  Result result;
  StreamSession session(dir, seed, kStreamSessions);
  session.round(result, nullptr, 0.0);  // warm-up
  result.samples.clear();
  result.values.clear();
  const serve::EngineStats before = session.router().stats();
  for (int round = 0; round < kTracedStreamRounds; ++round) {
    session.round(result, &tracer, 0.0);
  }
  for (int round = 0; round < kTracedPacedRounds; ++round) {
    session.round(result, &tracer, kStreamSpeed);
  }
  const int rounds = kTracedStreamRounds + kTracedPacedRounds;
  result.values["stream.windows_sealed"] /= rounds;

  const serve::EngineStats after = session.router().stats();
  result.values["router.stolen"] = static_cast<double>(after.stolen - before.stolen);
  double most = 0.0;
  double total = 0.0;
  const auto shards = session.router().shard_stats();
  for (const auto& shard : shards) {
    most = std::max(most, static_cast<double>(shard.requests));
    total += static_cast<double>(shard.requests);
  }
  result.values["router.shard_skew"] = most / (total / static_cast<double>(shards.size()));

  // The stream stages on their own: a session's push and poll, the
  // preprocess of one sealed window, and the Composer fed one prediction.
  const stream::StreamConfig& config = session.config();
  for (std::size_t s = 0; s < session.traces().size(); ++s) {
    const auto& samples = session.traces()[s].samples;
    stream::Session probe("probe", config.session);
    const auto start = Clock::now();
    for (const auto& sample : samples) (void)probe.push(sample);
    result.samples["session.push_ns"].push_back(
        1e9 * seconds_since(start) / static_cast<double>(samples.size()));

    stream::Session polled("probe", config.session);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      (void)polled.push(samples[i]);
      if ((i + 1) % static_cast<std::size_t>(polled.raw_hop()) == 0) {
        Tracer::Scope span(&tracer, "session.poll");
        (void)polled.poll();
      }
    }
  }
  for (std::size_t s = 0; s < 4 && s < session.traces().size(); ++s) {
    for (const auto& raw : session.raw_windows(s)) {
      Tracer::Scope span(&tracer, "preprocess.window");
      (void)data::preprocess_window(raw, stream::kStreamChannels,
                                    config.session.source_rate_hz,
                                    config.session.target_hz, config.g);
    }
  }
  for (std::size_t s = 0; s < session.traces().size(); ++s) {
    stream::Composer composer(config.composer);
    std::int64_t ts = 0;
    for (const auto& logits : session.logits(s)) {
      Tracer::Scope span(&tracer, "composer.push");
      (void)composer.push(argmax(logits), logits, ts, ts + 1);
      ts += 1;
    }
  }
  return result;
}

// ---- pool -------------------------------------------------------------------

Result traced_pool() {
  Result result;
  util::ThreadPool& pool = util::ThreadPool::global();
  const auto empty = [](std::size_t) {};
  for (int i = 0; i < 100; ++i) pool.parallel_for(0, 4, empty);
  for (int block = 0; block < 50; ++block) {
    constexpr int kCalls = 200;
    const auto start = Clock::now();
    for (int i = 0; i < kCalls; ++i) pool.parallel_for(0, 4, empty);
    result.samples["pool.parallel_for_us"].push_back(1e6 * seconds_since(start) / kCalls);
    result.ops += kCalls;
  }
  return result;
}

}  // namespace

Result run_traced(const std::string& section, std::uint64_t seed, const std::string& dir) {
  Tracer tracer;
  Result result;
  if (section == "train") {
    result = traced_train(seed, tracer);
  } else if (section == "serve") {
    result = traced_serve(dir, tracer);
  } else if (section == "stream") {
    result = traced_stream(dir, seed, tracer);
  } else if (section == "pool") {
    result = traced_pool();
  } else {
    throw std::invalid_argument("sagabench: unknown traced section " + section);
  }
  tracer.write(dir + "/trace-" + section + ".json");
  return result;
}

}  // namespace sagabench
