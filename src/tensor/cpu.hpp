// saga::cpu — the one ISA decision behind every SIMD dispatcher (fp32 gemm,
// int8 gemm, eltwise). The CPUID probes and the SAGA_FORCE_SCALAR pin are
// read once per process, so all three dispatchers agree on what this host
// runs; each dispatcher still checks that its own SIMD translation unit was
// compiled in.
#pragma once

namespace saga::cpu {

struct Features {
  bool avx2 = false;         // AVX2 with OS YMM state (int8 maddubs)
  bool avx2_fma = false;     // AVX2 + FMA (fp32 gemm, eltwise)
  bool avx512vl = false;     // AVX512VL with OS opmask/ZMM state
  bool avx_vnni = false;     // CPUID leaf 7.1 EAX bit 4 (VEX vpdpbusd)
  bool avx512_vnni = false;  // CPUID leaf 7.0 ECX bit 11 (EVEX vpdpbusd)
  // SAGA_FORCE_SCALAR=1: every dispatcher runs its portable scalar kernel,
  // as on a host without AVX2.
  bool force_scalar = false;
};

/// This host's features, probed on first call.
const Features& features();

}  // namespace saga::cpu
