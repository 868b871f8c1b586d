// The 8x8 register-tile walk shared by the int8 SIMD micro-kernels; each TU
// supplies only `Update{}(acc, a_quad, b)`, which adds per s32 lane c the four
// u8*s8 products of the activation quad and column c's k-group bytes in `b`.
// Include it INSIDE the TU's anonymous namespace in saga::gemm::detail (after
// <immintrin.h>, <cstring>, microkernel_s8.hpp): the TUs are built with
// different -m flags, so a shared inline symbol with external linkage could
// be emitted with EVEX instructions and picked by the linker on AVX2 hosts.
#pragma once

// Broadcast the 4-byte activation quad at `p` into every 32-bit lane.
inline __m256i bcast_quad(const std::uint8_t* p) {
  std::int32_t quad;
  std::memcpy(&quad, p, sizeof(quad));
  return _mm256_set1_epi32(quad);
}

inline void store_rows(const __m256i* acc, std::int32_t* c, std::int64_t ldc,
                       std::int64_t mr, std::int64_t nr) {
  if (nr == kNR8) {
    for (std::int64_t r = 0; r < mr; ++r) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + r * ldc), acc[r]);
    }
    return;
  }
  alignas(32) std::int32_t buf[kNR8];
  for (std::int64_t r = 0; r < mr; ++r) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(buf), acc[r]);
    std::int32_t* crow = c + r * ldc;
    for (std::int64_t j = 0; j < nr; ++j) crow[j] = buf[j];
  }
}

template <class Update>
void tile_8x8(std::int64_t kc_groups, const std::uint8_t* a, std::int64_t lda,
              const std::int8_t* b_panel, std::int32_t* c, std::int64_t ldc,
              std::int64_t mr, std::int64_t nr) {
  const Update update{};
  if (mr == kMR8) {
    // Eight NAMED accumulators stay in ymm registers across the k sweep (an
    // acc[8] array gets stack slots, so every read-modify-write update would
    // store-forward through memory) and hide the update's latency.
    __m256i c0 = _mm256_setzero_si256();
    __m256i c1 = _mm256_setzero_si256();
    __m256i c2 = _mm256_setzero_si256();
    __m256i c3 = _mm256_setzero_si256();
    __m256i c4 = _mm256_setzero_si256();
    __m256i c5 = _mm256_setzero_si256();
    __m256i c6 = _mm256_setzero_si256();
    __m256i c7 = _mm256_setzero_si256();
    for (std::int64_t g = 0; g < kc_groups; ++g) {
      const __m256i b = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(b_panel + g * kNR8 * kKU8));
      const std::uint8_t* ag = a + g * kKU8;
      c0 = update(c0, bcast_quad(ag), b);
      c1 = update(c1, bcast_quad(ag + lda), b);
      c2 = update(c2, bcast_quad(ag + 2 * lda), b);
      c3 = update(c3, bcast_quad(ag + 3 * lda), b);
      c4 = update(c4, bcast_quad(ag + 4 * lda), b);
      c5 = update(c5, bcast_quad(ag + 5 * lda), b);
      c6 = update(c6, bcast_quad(ag + 6 * lda), b);
      c7 = update(c7, bcast_quad(ag + 7 * lda), b);
    }
    const __m256i acc[kMR8] = {c0, c1, c2, c3, c4, c5, c6, c7};
    store_rows(acc, c, ldc, kMR8, nr);
    return;
  }
  // Ragged M tail (at most once per GEMM): the array form is fine.
  __m256i acc[kMR8];
  for (std::int64_t r = 0; r < mr; ++r) acc[r] = _mm256_setzero_si256();
  for (std::int64_t g = 0; g < kc_groups; ++g) {
    const __m256i b = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(b_panel + g * kNR8 * kKU8));
    for (std::int64_t r = 0; r < mr; ++r) {
      acc[r] = update(acc[r], bcast_quad(a + r * lda + g * kKU8), b);
    }
  }
  store_rows(acc, c, ldc, mr, nr);
}
