// Paper Table IV: training costs of all candidate methods — time to train one
// batch of 32 windows (length 120), parameter count, serialized (disk) size,
// and training-graph memory (our CPU substitute for the paper's GPU memory:
// the bytes held by data+grad buffers of the autograd graph of one step).
//
// Absolute times differ from the paper's RTX-3090 numbers; the ratios are the
// reproduced shape (paper: Saga/LIMU = 56/31 = 1.8x time, identical params
// and disk, ~1.2x memory).
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <unordered_set>

#include "baselines/augment.hpp"
#include "bench_common.hpp"
#include "nn/optimizer.hpp"
#include "tensor/loss.hpp"
#include "tensor/ops.hpp"
#include "tensor/shape_ops.hpp"
#include "util/serialize.hpp"

using namespace saga;
using Clock = std::chrono::steady_clock;

namespace {

// Bytes of data+grad held by every tensor reachable from `loss`'s graph.
// Views alias their base tensor's Storage, so buffers are deduplicated by
// storage — an aliased slice adds no bytes beyond its base.
double graph_megabytes(const Tensor& loss) {
  std::unordered_set<const TensorImpl*> seen;
  std::unordered_set<const Storage*> storages;
  std::vector<const TensorImpl*> stack{loss.impl().get()};
  double bytes = 0.0;
  while (!stack.empty()) {
    const TensorImpl* impl = stack.back();
    stack.pop_back();
    if (!seen.insert(impl).second) continue;
    if (storages.insert(impl->storage.get()).second) {
      bytes += static_cast<double>(impl->storage->data.size() +
                                   impl->storage->grad.size()) *
               sizeof(float);
    }
    if (impl->node) {
      for (const auto& input : impl->node->inputs) stack.push_back(input.get());
    }
  }
  return bytes / (1024.0 * 1024.0);
}

struct Cost {
  double train_ms = 0.0;
  double params_kb = 0.0;
  double disk_kb = 0.0;
  double graph_mb = 0.0;
};

}  // namespace

int main() {
  // Paper-size models (hidden 72, 4 blocks, window 120, batch 32).
  data::SyntheticSpec spec = data::hhar_like(32);
  const auto dataset = data::generate_dataset(spec);
  std::vector<std::int64_t> indices;
  for (std::int64_t i = 0; i < 32; ++i) indices.push_back(i);
  const auto batch = data::make_batch(dataset, indices,
                                      data::Task::kActivityRecognition);

  models::BackboneConfig bc;  // paper defaults
  bc.input_channels = dataset.channels;

  auto measure = [&](core::Method method) {
    models::LimuBertBackbone backbone(bc);
    models::ReconstructionHead recon(bc.hidden_dim, bc.input_channels, 2);
    models::PoolingHead pool(bc.hidden_dim, bc.hidden_dim, 32, 3);
    nn::Adam optimizer(backbone.parameters());
    util::Rng rng(7);

    Cost cost;
    const bool is_masking = method == core::Method::kSaga ||
                            method == core::Method::kLimu;
    // Parameters and disk size: backbone + the head the method trains with.
    nn::Module* head = is_masking ? static_cast<nn::Module*>(&recon)
                                  : static_cast<nn::Module*>(&pool);
    const std::int64_t params = backbone.num_parameters() + head->num_parameters();
    cost.params_kb = static_cast<double>(params) * sizeof(float) / 1024.0;
    {
      auto blobs = backbone.state_dict("backbone");
      blobs.merge(head->state_dict("head"));
      const std::string path = bench::temp_path("saga_cost_probe.ckpt");
      util::save_blobs(path, blobs);
      cost.disk_kb =
          static_cast<double>(std::filesystem::file_size(path)) / 1024.0;
      std::filesystem::remove(path);
    }

    // One training step, repeated; first iteration warms up allocators.
    const int reps = 3;
    double total_ms = 0.0;
    for (int r = 0; r <= reps; ++r) {
      backbone.zero_grad();
      const auto start = Clock::now();
      Tensor loss;
      switch (method) {
        case core::Method::kSaga: {
          std::vector<Tensor> views;
          std::vector<mask::BatchMask> masks;
          for (const auto level : mask::kAllLevels) {
            masks.push_back(mask::mask_batch(batch.inputs, level, {}, 11 + r));
            views.push_back(masks.back().masked);
          }
          const Tensor recon_out = recon.forward(backbone.encode(concat(views, 0)));
          for (std::size_t v = 0; v < 4; ++v) {
            Tensor part = mse_masked(
                slice(recon_out, 0, static_cast<std::int64_t>(v) * 32, 32),
                batch.inputs, masks[v].mask);
            loss = loss.defined() ? add(loss, scale(part, 0.25F)) : scale(part, 0.25F);
          }
          break;
        }
        case core::Method::kLimu: {
          const auto masked =
              mask::mask_batch(batch.inputs, mask::MaskLevel::kPoint, {}, 11 + r);
          loss = mse_masked(recon.forward(backbone.encode(masked.masked)),
                            batch.inputs, masked.mask);
          break;
        }
        case core::Method::kClHar: {
          const Tensor v1 = baselines::random_view(batch.inputs, 21 + r);
          const Tensor v2 = baselines::random_view(batch.inputs, 91 + r);
          const Tensor z1 = pool.forward(backbone.encode(v1));
          const Tensor z2 = pool.forward(backbone.encode(v2));
          loss = nt_xent(concat({z1, z2}, 0), 0.2F);
          break;
        }
        default: {  // TPN
          std::vector<std::int32_t> ids(32);
          std::vector<std::int64_t> labels(32);
          for (std::size_t i = 0; i < 32; ++i) {
            ids[i] = static_cast<std::int32_t>(rng.uniform_int(0, 6));
            labels[i] = ids[i];
          }
          const Tensor transformed =
              baselines::apply_per_sample(batch.inputs, ids, 31 + r);
          loss = cross_entropy(pool.forward(backbone.encode(transformed)), labels);
          break;
        }
      }
      loss.backward();
      optimizer.step();
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - start).count();
      if (r > 0) total_ms += ms;
      if (r == reps) cost.graph_mb = graph_megabytes(loss);
    }
    cost.train_ms = total_ms / reps;
    return cost;
  };

  std::printf("== Table IV: training costs (batch 32, window 120, paper-size model) ==\n\n");
  util::Table table({"Methods", "Train time (ms)", "Parameters (KB)",
                     "Disk size (KB)", "Graph memory (MB)"});
  std::map<std::string, Cost> costs;
  for (const auto method : {core::Method::kLimu, core::Method::kClHar,
                            core::Method::kTpn, core::Method::kSaga}) {
    const Cost cost = measure(method);
    costs[core::method_name(method)] = cost;
    table.add_row({core::method_name(method), util::Table::fmt(cost.train_ms, 0),
                   util::Table::fmt(cost.params_kb, 0),
                   util::Table::fmt(cost.disk_kb, 0),
                   util::Table::fmt(cost.graph_mb, 2)});
  }
  table.print();

  const double ratio = costs["Saga"].train_ms / costs["LIMU"].train_ms;
  std::printf("\nSaga/LIMU train-time ratio: %.2fx (paper: 56/31 = 1.81x)\n", ratio);
  std::printf("Saga vs LIMU params/disk: identical (no extra model structure), "
              "as in the paper\n");
  return 0;
}
