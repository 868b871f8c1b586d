// AVX-VNNI vpdpbusd int8 micro-kernel, the VEX-encoded flavor for CPUs that
// have AVX-VNNI without the AVX512 state (hybrid client parts). `vpdpbusd`
// fuses maddubs+madd into one instruction that accumulates the four u8*s8
// products of a k-group straight into the s32 lane — no s16 intermediate to
// saturate, so full 8-bit A values (0..255) stay exact. The only TU built
// with -mavxvnni (see CMakeLists); dispatched only after a CPUID check.
#include "tensor/gemm/microkernel_s8.hpp"

#if defined(__AVXVNNI__)

#include <immintrin.h>
#include <cstring>

namespace saga::gemm::detail {

namespace {

#include "tensor/gemm/kernel_s8_tile.hpp"

struct VexDpbusdUpdate {
  __m256i operator()(__m256i acc, __m256i a, __m256i b) const {
    return _mm256_dpbusd_avx_epi32(acc, a, b);
  }
};

}  // namespace

Int8MicroKernelFn avxvnni_s8_microkernel() {
  return &tile_8x8<VexDpbusdUpdate>;
}

}  // namespace saga::gemm::detail

#else  // build without AVX-VNNI support for this file

namespace saga::gemm::detail {
Int8MicroKernelFn avxvnni_s8_microkernel() { return nullptr; }
}  // namespace saga::gemm::detail

#endif
