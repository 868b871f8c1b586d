// AVX512-VNNI vpdpbusd int8 micro-kernel (EVEX-encoded, 256-bit via
// AVX512VL): the server-CPU twin of kernel_s8_avxvnni.cpp, exact over the
// full 8-bit A range. Staying at 256-bit keeps the tile, packing layout and
// column sums shared with every other int8 kernel (bit-identity by
// construction) and avoids 512-bit frequency licensing at serve shapes.
// Compiled with -mavx512vnni -mavx512vl only (see CMakeLists); gemm_s8
// only dispatches here after a CPUID check.
#include "tensor/gemm/microkernel_s8.hpp"

#if defined(__AVX512VNNI__) && defined(__AVX512VL__)

#include <immintrin.h>
#include <cstring>

namespace saga::gemm::detail {

namespace {

#include "tensor/gemm/kernel_s8_tile.hpp"

struct EvexDpbusdUpdate {
  __m256i operator()(__m256i acc, __m256i a, __m256i b) const {
    return _mm256_dpbusd_epi32(acc, a, b);
  }
};

}  // namespace

Int8MicroKernelFn avx512vnni_s8_microkernel() {
  return &tile_8x8<EvexDpbusdUpdate>;
}

}  // namespace saga::gemm::detail

#else  // build without AVX512-VNNI support for this file

namespace saga::gemm::detail {
Int8MicroKernelFn avx512vnni_s8_microkernel() { return nullptr; }
}  // namespace saga::gemm::detail

#endif
