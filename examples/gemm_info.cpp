// Prints which GEMM path this host dispatches to. CI runs this after every
// build so logs show whether the AVX2 micro-kernel or the scalar fallback
// was exercised by the test suite.
#include <iostream>

#include "quant/quant.hpp"
#include "tensor/cpu.hpp"
#include "tensor/gemm/gemm.hpp"
#include "tensor/gemm/gemm_s8.hpp"

int main() {
  std::cout << "gemm dispatch kernel: " << saga::gemm::kernel_name() << "\n";
  std::cout << "cpu supports avx2+fma: "
            << (saga::gemm::cpu_supports_avx2() ? "yes" : "no") << "\n";
  std::cout << "available kernels:";
  for (const saga::gemm::Kernel k : saga::gemm::available_kernels()) {
    std::cout << " " << saga::gemm::kernel_name(k);
  }
  std::cout << "\n";

  std::cout << "int8 gemm dispatch kernel: " << saga::gemm::int8_kernel_name()
            << "\n";
  std::cout << "cpu supports int8 avx2 (maddubs): "
            << (saga::gemm::cpu_supports_int8_avx2() ? "yes" : "no") << "\n";
  std::cout << "cpu supports avx-vnni: "
            << (saga::cpu::features().avx_vnni ? "yes" : "no")
            << " (vpdpbusd kernel "
            << (saga::gemm::cpu_supports_int8_avxvnni() ? "dispatchable"
                                                        : "not dispatchable")
            << "), avx512-vnni: "
            << (saga::cpu::features().avx512_vnni ? "yes" : "no")
            << " (vpdpbusd kernel "
            << (saga::gemm::cpu_supports_int8_avx512vnni() ? "dispatchable"
                                                           : "not dispatchable")
            << ")\n";
  std::cout << "available int8 kernels:";
  for (const saga::gemm::Int8Kernel k : saga::gemm::available_int8_kernels()) {
    std::cout << " " << saga::gemm::int8_kernel_name(k);
  }
  std::cout << "\n";
  std::cout << "preferred activation encoding: "
            << saga::quant::act_encoding_name(
                   saga::quant::preferred_act_encoding())
            << " (8-bit requires a vpdpbusd kernel; see quant.hpp)\n";
  return 0;
}
