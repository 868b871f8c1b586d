// sagabench — one process of the Saga benchmark. run.py starts one process
// per set-up, repetition and traced section, so that an abort costs one
// repetition instead of the run:
//
//   sagabench setup  --workload W --seed S --dir D --t0 T
//   sagabench rep    --workload W --seed S --dir D
//   sagabench traced --section X --seed S --dir D
//
// Each prints one `RESULT {...}` line and exits 0, or 3 when an output check
// failed.
#include <cstdio>
#include <exception>

#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace sagabench;
  Result result;
  try {
    const Args args(argc, argv);
    const std::uint64_t seed = args.get_u64("seed");
    const std::string dir = args.get("dir");
    if (args.mode() == "setup") {
      result = run_setup(args.get("workload"), seed, dir, args.get_double("t0"));
    } else if (args.mode() == "rep") {
      result = run_repetition(args.get("workload"), seed, dir);
    } else if (args.mode() == "traced") {
      result = run_traced(args.get("section"), seed, dir);
    } else {
      std::fprintf(stderr, "sagabench: unknown mode %s\n", args.mode().c_str());
      return 2;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sagabench: %s\n", error.what());
    return 2;
  }
  std::printf("RESULT %s\n", result.to_json().c_str());
  std::fflush(stdout);
  return result.ok ? 0 : 3;
}
