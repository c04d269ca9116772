#pragma once
// Execution policy for the row-parallel kernels.
//
// The paper parallelises every algorithm "along the L dimension,
// simultaneously operating on rows of the attention matrix" with one
// CUDA block per row. This substrate reproduces that execution model on
// shared-memory CPUs: a parallel_for over row indices, with the
// scheduling discipline made explicit because it is load-bearing for the
// paper's analysis (§V-C: the global mask creates a skewed per-row work
// distribution, and "the algorithm can only be as fast as its slowest
// block" — visible under static scheduling, mitigated by dynamic).
//
// A policy says how many threads MAY run a call; whether the call forks
// at all, and into how many chunks, is the work gate's decision
// (parallel/parallel_for.hpp): calls below kGrainWork edges × head_dim
// run inline, larger ones split into chunks of at least kGrainWork.
// Skewed masks ask for Dynamic explicitly: a per-call degree-skew pick
// lost to these fixed rules on every bench_ablation_schedule cell.

#include <cstdint>

#include "simd/simd_level.hpp"

namespace gpa {

enum class Schedule : std::uint8_t {
  Static,   ///< contiguous row ranges per worker (CUDA grid-stride analogue)
  Dynamic,  ///< workers steal chunks of `grain` rows (load-balancing)
};

struct ExecPolicy {
  /// 0 = use all hardware threads.
  int num_threads = 0;
  /// Fewest rows per chunk; <= 0 leaves the chunk size to the work gate
  /// alone (chunks of kGrainWork edges × head_dim, parallel_for.hpp).
  std::int64_t grain = 64;
  Schedule schedule = Schedule::Static;
  /// Which SIMD arm the kernel's inner loops take (Auto = runtime
  /// dispatch: GPA_SIMD env override, else best of cpuid + build).
  SimdLevel simd = SimdLevel::Auto;

  static ExecPolicy serial() { return {1, 1, Schedule::Static}; }
};

}  // namespace gpa
