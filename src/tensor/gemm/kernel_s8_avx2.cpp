// AVX2 maddubs int8 micro-kernel. Like kernel_avx2.cpp this translation unit
// is compiled with -mavx2 (see CMakeLists); gemm_s8 only dispatches here
// after a CPUID check. Per row and k-group, `_mm256_maddubs_epi16` forms the
// u8*s8 byte-pair sums (exact — A is 7-bit, so |pair| <= 32258 < 32767) and
// `_mm256_madd_epi16` against ones folds the pairs into the s32 accumulator.
#include "tensor/gemm/microkernel_s8.hpp"

#if defined(__AVX2__)

#include <immintrin.h>
#include <cstring>

namespace saga::gemm::detail {

namespace {

#include "tensor/gemm/kernel_s8_tile.hpp"

struct MaddubsUpdate {
  __m256i operator()(__m256i acc, __m256i a, __m256i b) const {
    const __m256i pairs = _mm256_maddubs_epi16(a, b);
    return _mm256_add_epi32(acc,
                            _mm256_madd_epi16(pairs, _mm256_set1_epi16(1)));
  }
};

}  // namespace

Int8MicroKernelFn avx2_s8_microkernel() { return &tile_8x8<MaddubsUpdate>; }

}  // namespace saga::gemm::detail

#else  // build without AVX2 support for this file

namespace saga::gemm::detail {
Int8MicroKernelFn avx2_s8_microkernel() { return nullptr; }
}  // namespace saga::gemm::detail

#endif
