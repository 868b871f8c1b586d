#!/usr/bin/env bash
# Tier-1 verification: the exact command CI, reviewers, and the ROADMAP use.
# Run from anywhere; builds into <repo>/build.
#
#   ./scripts/check.sh            release build + full ctest suite, then the
#                                 concurrency suites five more times at
#                                 -j$(nproc) so a race fails the run instead
#                                 of showing up as a rare abort
#   ./scripts/check.sh --strict   same, with warnings-as-errors into
#                                 <repo>/build-strict (the CI `strict` job)
#   ./scripts/check.sh --tsan     ThreadSanitizer build into <repo>/build-tsan,
#                                 running the thread-pool fork-join stress
#                                 (test_util), the serve + stream concurrency
#                                 suites (SPSC ring producer/consumer pair,
#                                 pump-thread handoff) plus the view-aliasing,
#                                 fused-GRU, int8-quant and fused-attention
#                                 suites (shared Storage buffers under the
#                                 pooled matmul backward; gemm_s8's M-split
#                                 over the pool; attention's per-(b, h)
#                                 gradient slices written from pool workers;
#                                 the full suite under TSan is too slow)
#   ./scripts/check.sh --asan     AddressSanitizer build into <repo>/build-asan,
#                                 running the tensor-stack + serve + stream +
#                                 quant suites — the eltwise/gemm/gemm_s8
#                                 kernel edge paths,
#                                 the NoGrad tape-skip lifetimes, the backward
#                                 closures over saved buffers, and the ring's
#                                 wraparound indexing are where
#                                 use-after-free/overflow bugs would hide
set -euo pipefail

cd "$(dirname "$0")/.."

ASAN_TARGETS=(test_eltwise test_tensor_ops test_reduce_loss test_shape_ops
  test_matmul test_attention test_nn test_serve test_views test_gru_cell
  test_stream test_quant)
TSAN_TARGETS=(test_util test_serve test_views test_gru_cell test_stream
  test_quant test_eltwise test_attention)

BUILD_DIR=build
if [[ "${1:-}" == "--strict" ]]; then
  BUILD_DIR=build-strict
  cmake -B "$BUILD_DIR" -S . -DSAGA_WARNINGS_AS_ERRORS=ON
elif [[ "${1:-}" == "--tsan" ]]; then
  BUILD_DIR=build-tsan
  cmake -B "$BUILD_DIR" -S . -DSAGA_TSAN=ON -DSAGA_BUILD_BENCH=OFF \
    -DSAGA_BUILD_EXAMPLES=OFF
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${TSAN_TARGETS[@]}" \
    example_gemm_info
  cd "$BUILD_DIR"
  ./gemm_info
  ctest --output-on-failure \
    -R "^($(IFS='|'; echo "${TSAN_TARGETS[*]}"))\$"
  exit 0
elif [[ "${1:-}" == "--asan" ]]; then
  BUILD_DIR=build-asan
  cmake -B "$BUILD_DIR" -S . -DSAGA_ASAN=ON -DSAGA_BUILD_BENCH=OFF \
    -DSAGA_BUILD_EXAMPLES=OFF
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${ASAN_TARGETS[@]}" \
    example_gemm_info
  cd "$BUILD_DIR"
  ./gemm_info
  ctest --output-on-failure \
    -R "^($(IFS='|'; echo "${ASAN_TARGETS[*]}"))\$"
  exit 0
else
  cmake -B "$BUILD_DIR" -S .
fi
cmake --build "$BUILD_DIR" -j "$(nproc)"
cd "$BUILD_DIR"
ctest --output-on-failure -j "$(nproc)"
# The suites that fork-join over the shared pool from several threads, run
# repeatedly under full parallel load: a completion race shows up here as a
# red run, not as a flaky abort elsewhere.
ctest --output-on-failure -j "$(nproc)" --repeat until-fail:5 \
  -R "^(test_util|test_serve|test_stream|test_quant)"
