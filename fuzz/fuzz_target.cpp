// libFuzzer entry point shared by every fuzz target (clang only; see
// fuzz/CMakeLists.txt): fuzz_<corpus_dir> is this file compiled with
// RFDUMP_FUZZ_CORPUS_DIR="<corpus_dir>". The target comes from
// testing::EnumerateFuzzTargets() — each registry bundle's fuzz hooks plus
// net-frame — so libFuzzer runs the same input mapping as the in-tree
// corpus runner.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "rfdump/testing/fuzz.hpp"
#include "rfdump/util/work_budget.hpp"

#ifndef RFDUMP_FUZZ_CORPUS_DIR
#error "fuzz/CMakeLists.txt must define RFDUMP_FUZZ_CORPUS_DIR"
#endif

namespace {

const rfdump::testing::FuzzTargetRef& Target() {
  static const rfdump::testing::FuzzTargetRef target = [] {
    for (auto& t : rfdump::testing::EnumerateFuzzTargets()) {
      if (t.corpus_dir == RFDUMP_FUZZ_CORPUS_DIR) return t;
    }
    std::fprintf(stderr, "no fuzz target with corpus dir %s\n",
                 RFDUMP_FUZZ_CORPUS_DIR);
    std::abort();
  }();
  return target;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  // Arm a cooperative budget so slow-but-terminating inputs don't trip
  // libFuzzer's timeout; true hangs (budget ignored) still will.
  rfdump::util::WorkBudget budget;
  budget.Arm({.max_samples = 64u << 20, .max_cpu_seconds = 2.0});
  (void)Target().run({data, size}, &budget);
  return 0;
}
