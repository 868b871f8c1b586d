// int8 end-to-end gate: for every task/dataset combo of the fig6-12 tables,
// train once, quantize the exported artifact (quant::quantize_artifact with a
// calibration batch from the train split), and compare the int8 serve path
// against fp32 on three axes:
//
//   accuracy   test accuracy delta in points — the documented gate is
//              one-sided: int8 must not degrade accuracy by more than
//              0.5 pt on any combo (docs/BASELINES.md)
//   bundle     on-disk artifact bytes (v2 fp32 vs v3 int8) and the shrink
//   latency    single-window blocking predict(), a 256-window bulk burst
//              drained through the engine (windows/s), and the per-request
//              latency tail inside that burst (p95/p99 over
//              ResponseHandle::latency_ms via serve::Histogram), fp32 vs int8
//
// The training method is NoPretrain: the gate measures quantization error of
// one trained model against itself, which is orthogonal to how the backbone
// was pre-trained. Same budget knobs as the other benches (bench_common.hpp).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "bench_common.hpp"
#include "quant/quantize.hpp"
#include "serve/artifact.hpp"
#include "serve/engine.hpp"
#include "serve/metrics.hpp"
#include "train/finetune.hpp"

using namespace saga;
using Clock = std::chrono::steady_clock;

namespace {

constexpr double kGatePoints = 0.5;  // documented accuracy-delta gate

struct ServeNumbers {
  double single_ms = 0.0;
  double burst_wps = 0.0;
  double burst_p95_ms = 0.0;
  double burst_p99_ms = 0.0;
};

ServeNumbers measure(serve::Engine& engine, const Tensor& window) {
  ServeNumbers numbers;
  (void)engine.predict(window.data());  // warm-up
  auto start = Clock::now();
  constexpr int kRuns = 10;
  for (int r = 0; r < kRuns; ++r) (void)engine.predict(window.data());
  numbers.single_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count() /
      kRuns;

  // Capacity probe: no deadline (a 256-deep queue against a ms-scale
  // deadline would trip the hopeless-at-admission shed), bulk priority so
  // the dispatcher is free to coalesce maximal batches.
  constexpr int kBurst = 256;
  serve::RequestOptions bulk;
  bulk.priority = serve::Priority::kBulk;
  std::vector<serve::ResponseHandle> handles;
  handles.reserve(kBurst);
  start = Clock::now();
  for (int r = 0; r < kBurst; ++r) {
    handles.push_back(engine.submit(window.data(), bulk));
  }
  // Per-request submit-to-complete tail inside the burst: the throughput
  // number hides head-of-line waits, the histogram shows them. A 256-deep
  // drain concentrates every request within one x2 bucket of the standard
  // latency_ms() layout (p95 == p99 == one bucket edge), so this uses a
  // finer 12%-growth layout over the same class: percentile() stays biased
  // high by at most one growth step.
  serve::Histogram tail(/*min_value=*/0.5, /*growth=*/1.12, /*buckets=*/64);
  for (auto& handle : handles) {
    (void)handle.get();
    tail.record(handle.latency_ms());
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  numbers.burst_wps = kBurst / seconds;
  numbers.burst_p95_ms = tail.percentile(0.95);
  numbers.burst_p99_ms = tail.percentile(0.99);
  return numbers;
}

}  // namespace

int main() {
  // A 0.5 pt gate needs >= 200 test windows to resolve (one flipped window
  // = 100/n pt), so this bench defaults to a larger dataset than the other
  // benches: 1200 windows -> 240-window test split -> 0.42 pt granularity.
  // SAGA_BENCH_SAMPLES still overrides (smaller runs fall back to the
  // one-window effective gate below).
  setenv("SAGA_BENCH_SAMPLES", "1200", /*overwrite=*/0);

  std::printf("== int8 quantization end-to-end: accuracy gate, bundle size, "
              "serve latency ==\n(gate: acc(int8) >= acc(fp32) - %.1f pt "
              "per combo; %lld windows per dataset)\n\n",
              kGatePoints, static_cast<long long>(bench::bench_samples()));

  util::Table accuracy({"Combo", "acc fp32 %", "acc int8 %", "delta pt", "gate"});
  util::Table deploy({"Combo", "fp32 KB", "int8 KB", "shrink", "fp32 ms",
                      "int8 ms", "fp32 w/s", "int8 w/s"});
  util::Table burst_tail({"Combo", "fp32 p95 ms", "fp32 p99 ms", "int8 p95 ms",
                          "int8 p99 ms"});
  bool all_pass = true;

  for (const auto& combo : bench::paper_combos()) {
    const data::Dataset dataset = bench::make_dataset(combo.dataset_name);
    core::Pipeline pipeline(dataset, combo.task, bench::bench_profile());
    (void)pipeline.run(core::Method::kNoPretrain, 0.2);

    const serve::Artifact fp32 =
        serve::Artifact::from_pipeline(pipeline, bench::combo_name(combo));
    std::vector<std::vector<float>> calibration;
    for (std::size_t i = 0; i < 64 && i < pipeline.split().train.size(); ++i) {
      const auto sample = static_cast<std::size_t>(pipeline.split().train[i]);
      calibration.push_back(dataset.samples[sample].values);
    }
    const serve::Artifact int8 = quant::quantize_artifact(fp32, calibration);

    auto fb = fp32.make_backbone();
    auto fc = fp32.make_classifier();
    auto qb = int8.make_backbone();
    auto qc = int8.make_classifier();
    const train::Metrics mf = train::evaluate(fb, fc, dataset,
                                              pipeline.split().test, combo.task);
    const train::Metrics mq = train::evaluate(qb, qc, dataset,
                                              pipeline.split().test, combo.task);
    const double delta_pt = 100.0 * (mq.accuracy - mf.accuracy);
    // The gate is one-sided: quantization must not DEGRADE accuracy by more
    // than kGatePoints (an int8 model beating its fp32 parent is tie-break
    // noise, not a defect). One flipped window on a small test split moves
    // accuracy by more than the gate itself (100/n pt), so the effective
    // bound is max(0.5 pt, one window); at the default 1200-window budget
    // the granularity term is 0.42 pt and the documented gate binds.
    const double one_window_pt =
        100.0 / static_cast<double>(std::max<std::int64_t>(mf.num_samples, 1));
    const bool pass = delta_pt >= -std::max(kGatePoints, one_window_pt);
    all_pass = all_pass && pass;
    accuracy.add_row({bench::combo_name(combo),
                      util::Table::fmt(100.0 * mf.accuracy, 1),
                      util::Table::fmt(100.0 * mq.accuracy, 1),
                      util::Table::fmt(delta_pt, 2), pass ? "pass" : "FAIL"});

    const std::string fp32_path = bench::temp_path("saga_bench_fp32.artifact");
    const std::string int8_path = bench::temp_path("saga_bench_int8.artifact");
    fp32.save(fp32_path);
    int8.save(int8_path);
    const double fp32_kb =
        static_cast<double>(std::filesystem::file_size(fp32_path)) / 1024.0;
    const double int8_kb =
        static_cast<double>(std::filesystem::file_size(int8_path)) / 1024.0;
    std::filesystem::remove(fp32_path);
    std::filesystem::remove(int8_path);

    util::Rng rng(7);
    const Tensor window =
        Tensor::randn({fp32.window_length(), fp32.channels()}, rng);
    serve::Engine fp32_engine{serve::Artifact(fp32)};
    serve::Engine int8_engine{serve::Artifact(int8)};
    const ServeNumbers nf = measure(fp32_engine, window);
    const ServeNumbers nq = measure(int8_engine, window);

    deploy.add_row({bench::combo_name(combo), util::Table::fmt(fp32_kb, 0),
                    util::Table::fmt(int8_kb, 0),
                    util::Table::fmt(fp32_kb / int8_kb, 2) + "x",
                    util::Table::fmt(nf.single_ms, 2),
                    util::Table::fmt(nq.single_ms, 2),
                    util::Table::fmt(nf.burst_wps, 0),
                    util::Table::fmt(nq.burst_wps, 0)});
    burst_tail.add_row({bench::combo_name(combo),
                        util::Table::fmt(nf.burst_p95_ms, 2),
                        util::Table::fmt(nf.burst_p99_ms, 2),
                        util::Table::fmt(nq.burst_p95_ms, 2),
                        util::Table::fmt(nq.burst_p99_ms, 2)});
  }

  std::printf("-- accuracy (test split, NoPretrain-trained model) --\n");
  accuracy.print();
  std::printf("\n-- deployment: bundle bytes and serve path --\n");
  deploy.print();
  std::printf("\n-- burst per-request tail (256-window bulk burst, "
              "submit-to-complete) --\n");
  burst_tail.print();
  std::printf("\naccuracy gate: %s\n", all_pass ? "PASS" : "FAIL");
  return all_pass ? 0 : 1;
}
