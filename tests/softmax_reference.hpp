// Reference loops for fused attention's score-row softmax and its backward.
// The scalar eltwise kernels (softmax_rows / softmax_rows_bwd) and
// forced-scalar fused attention must reproduce these bits exactly.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace saga::testing {

/// In place over [rows, n]: p = softmax(scale * p) per row, max-subtracted.
inline void softmax_rows_reference(float* p, std::int64_t rows, std::int64_t n,
                                   float scale) {
  for (std::int64_t i = 0; i < rows; ++i) {
    float* prow = p + i * n;
    float max_v = -1e30F;
    for (std::int64_t j = 0; j < n; ++j) {
      prow[j] *= scale;
      max_v = std::max(max_v, prow[j]);
    }
    float denom = 0.0F;
    for (std::int64_t j = 0; j < n; ++j) {
      prow[j] = std::exp(prow[j] - max_v);
      denom += prow[j];
    }
    const float inv_denom = 1.0F / denom;
    for (std::int64_t j = 0; j < n; ++j) prow[j] *= inv_denom;
  }
}

/// In place on the upstream gradient: dp = p * (dp - <dp, p>) * scale.
inline void softmax_rows_bwd_reference(const float* p, float* dp,
                                       std::int64_t rows, std::int64_t n,
                                       float scale) {
  for (std::int64_t i = 0; i < rows; ++i) {
    const float* prow = p + i * n;
    float* dprow = dp + i * n;
    float dot_dp_p = 0.0F;
    for (std::int64_t j = 0; j < n; ++j) dot_dp_p += dprow[j] * prow[j];
    for (std::int64_t j = 0; j < n; ++j) {
      dprow[j] = prow[j] * (dprow[j] - dot_dp_p) * scale;
    }
  }
}

}  // namespace saga::testing
