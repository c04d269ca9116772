#pragma once
// Nesting detection for the parallel substrate.
//
// The serving layer dispatches a batch with one parallel_for across
// items (batch_policy) while each item's kernel runs its own
// parallel_for across rows (item_policy). Without a nesting guard the
// inner call resolves its own thread count and the dispatch spawns
// threads × threads workers — oversubscription that thrashes instead
// of speeding up (ATen's Parallel.h solves this the same way: nested
// regions degrade to serial). `in_parallel_region()` is that guard:
// true on any thread currently executing inside a gpa parallel loop
// (or inside a caller's OpenMP region), and every substrate entry
// point checks it and runs serially when set.

namespace gpa {

/// True when the calling thread is already inside a parallel region —
/// a gpa parallel_for / parallel_for_chunks / parallel_reduce worker,
/// or an active OpenMP region in the OpenMP build. Nested substrate
/// calls check this and degrade to serial instead of oversubscribing.
bool in_parallel_region() noexcept;

namespace detail {

/// RAII marker the substrate places around worker bodies. Restores the
/// previous state on destruction, so region depth nests correctly on
/// reused threads (OpenMP team members).
class ParallelRegionGuard {
 public:
  ParallelRegionGuard() noexcept;
  ~ParallelRegionGuard();

  ParallelRegionGuard(const ParallelRegionGuard&) = delete;
  ParallelRegionGuard& operator=(const ParallelRegionGuard&) = delete;

 private:
  bool prev_;
};

}  // namespace detail

}  // namespace gpa
