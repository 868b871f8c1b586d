#include "tensor/cpu.hpp"

#include "util/env.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#endif

namespace saga::cpu {

namespace {

Features probe() {
  Features f;
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  // The builtins fold in the XSAVE/XCR0 state checks that raw CPUID bits
  // miss; "avxvnni" is not a portable builtin token, so AVX-VNNI is read
  // from CPUID and relies on `avx2` for the YMM state check.
  f.avx2 = __builtin_cpu_supports("avx2");
  f.avx2_fma = f.avx2 && __builtin_cpu_supports("fma");
  f.avx512vl = __builtin_cpu_supports("avx512vl");
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_count(7, 1, &eax, &ebx, &ecx, &edx) != 0) {
    f.avx_vnni = (eax & (1U << 4)) != 0;
  }
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0) {
    f.avx512_vnni = (ecx & (1U << 11)) != 0;
  }
#endif
  f.force_scalar = util::env_int("SAGA_FORCE_SCALAR", 0) != 0;
  return f;
}

}  // namespace

const Features& features() {
  static const Features host = probe();
  return host;
}

}  // namespace saga::cpu
