#include "masking/masking.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace saga::mask {

std::string level_name(MaskLevel level) {
  switch (level) {
    case MaskLevel::kSensor: return "sensor";
    case MaskLevel::kPoint: return "point";
    case MaskLevel::kSubPeriod: return "subperiod";
    case MaskLevel::kPeriod: return "period";
  }
  return "?";
}

namespace {

void mask_time_range(std::int64_t begin, std::int64_t end, std::int64_t channels,
                     MaskResult& result) {
  for (std::int64_t t = begin; t < end; ++t) {
    for (std::int64_t c = 0; c < channels; ++c) {
      const auto idx = static_cast<std::size_t>(t * channels + c);
      result.masked[idx] = 0.0F;
      result.mask[idx] = 1.0F;
    }
  }
}

// §IV-B: mask `sensor_axes` distinct channels over the whole window (Eq. 3).
void apply_sensor_mask(std::int64_t length, std::int64_t channels,
                       const MaskingOptions& options, util::Rng& rng,
                       MaskResult& result) {
  const std::int64_t axes =
      std::min<std::int64_t>(std::max<std::int64_t>(options.sensor_axes, 1),
                             channels - 1);
  std::vector<std::int64_t> chosen;
  while (static_cast<std::int64_t>(chosen.size()) < axes) {
    const std::int64_t q = rng.uniform_int(0, channels - 1);
    if (std::find(chosen.begin(), chosen.end(), q) == chosen.end()) {
      chosen.push_back(q);
    }
  }
  for (std::int64_t t = 0; t < length; ++t) {
    for (const std::int64_t q : chosen) {
      const auto idx = static_cast<std::size_t>(t * channels + q);
      result.masked[idx] = 0.0F;
      result.mask[idx] = 1.0F;
    }
  }
}

// §IV-C: span masking (Eq. 4) — length from clipped Geo(p), start uniform.
void apply_point_mask(std::int64_t length, std::int64_t channels,
                      const MaskingOptions& options, util::Rng& rng,
                      MaskResult& result) {
  const std::int64_t span = std::min(
      rng.geometric_clipped(options.span_p, options.span_max), length);
  const std::int64_t start = rng.uniform_int(0, length - 1);
  const std::int64_t end = std::min(length, start + span);
  mask_time_range(start, end, channels, result);
}

// §IV-D: mask one sub-period between consecutive filtered key points (Eq. 5).
void apply_subperiod_mask(std::span<const float> window, std::int64_t length,
                          std::int64_t channels, const MaskingOptions& options,
                          util::Rng& rng, MaskResult& result) {
  const auto energy =
      signal::energy_series(window, length, channels, options.acc_axes);
  const auto key_points = signal::find_key_points(energy, options.keypoints);
  const auto ranges = signal::sub_periods(key_points, length);
  if (ranges.empty()) {
    apply_point_mask(length, channels, options, rng, result);
    return;
  }
  const auto pick = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(ranges.size()) - 1));
  mask_time_range(ranges[pick].first, ranges[pick].second, channels, result);
}

// §IV-E: mask one whole main period (Eq. 6); for aperiodic windows fall back
// to equal segmentation (options.aperiodic_segments).
void apply_period_mask(std::span<const float> window, std::int64_t length,
                       std::int64_t channels, const MaskingOptions& options,
                       util::Rng& rng, MaskResult& result) {
  const auto energy =
      signal::energy_series(window, length, channels, options.acc_axes);
  const auto main_period = signal::find_main_period(energy, options.period);
  std::int64_t period = main_period.period;
  if (period <= 0 || period >= length) {
    period = std::max<std::int64_t>(1, length / options.aperiodic_segments);
  }
  const std::int64_t num_periods = (length + period - 1) / period;
  const std::int64_t pick = rng.uniform_int(0, num_periods - 1);
  const std::int64_t begin = pick * period;
  const std::int64_t end = std::min(length, begin + period);
  mask_time_range(begin, end, channels, result);
}

}  // namespace

MaskResult mask_window(std::span<const float> window, std::int64_t length,
                       std::int64_t channels, MaskLevel level,
                       const MaskingOptions& options, util::Rng& rng) {
  if (static_cast<std::int64_t>(window.size()) != length * channels) {
    throw std::invalid_argument("mask_window: size mismatch");
  }
  MaskResult result;
  result.masked.assign(window.begin(), window.end());
  result.mask.assign(window.size(), 0.0F);

  switch (level) {
    case MaskLevel::kSensor:
      apply_sensor_mask(length, channels, options, rng, result);
      break;
    case MaskLevel::kPoint:
      apply_point_mask(length, channels, options, rng, result);
      break;
    case MaskLevel::kSubPeriod:
      apply_subperiod_mask(window, length, channels, options, rng, result);
      break;
    case MaskLevel::kPeriod:
      apply_period_mask(window, length, channels, options, rng, result);
      break;
  }
  return result;
}

BatchMask mask_batch(const Tensor& inputs, MaskLevel level,
                     const MaskingOptions& options, std::uint64_t seed) {
  if (inputs.dim() != 3) throw std::invalid_argument("mask_batch: expects [B,T,C]");
  const std::int64_t batch = inputs.size(0);
  const std::int64_t length = inputs.size(1);
  const std::int64_t channels = inputs.size(2);
  const std::int64_t stride = length * channels;

  // Every window's copy below covers its whole stride.
  Buffer masked =
      Buffer::uninitialized(static_cast<std::size_t>(inputs.numel()));
  Buffer mask_values =
      Buffer::uninitialized(static_cast<std::size_t>(inputs.numel()));
  const float* src = inputs.data().data();

  // Derive per-sample seeds up front so the result does not depend on thread
  // scheduling.
  util::SeedSplitter splitter(seed);
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(batch));
  for (auto& s : seeds) s = splitter.next();

  util::parallel_for(0, static_cast<std::size_t>(batch), [&](std::size_t i) {
    util::Rng rng(seeds[i]);
    const float* window = src + static_cast<std::int64_t>(i) * stride;
    const MaskResult result = mask_window(
        std::span<const float>(window, static_cast<std::size_t>(stride)),
        length, channels, level, options, rng);
    std::copy(result.masked.begin(), result.masked.end(),
              masked.begin() + static_cast<std::ptrdiff_t>(i) * stride);
    std::copy(result.mask.begin(), result.mask.end(),
              mask_values.begin() + static_cast<std::ptrdiff_t>(i) * stride);
  });

  BatchMask out;
  out.masked = Tensor::from_data({batch, length, channels}, std::move(masked));
  out.mask = Tensor::from_data({batch, length, channels}, std::move(mask_values));
  return out;
}

}  // namespace saga::mask
