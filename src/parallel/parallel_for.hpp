#pragma once
// Row-parallel loop: the CPU analogue of launching one CUDA block per
// attention row. Dispatches to OpenMP when available, otherwise to a
// std::thread fork/join implementation with the same semantics.
//
// The work gate (ATen's GRAIN_SIZE idiom). Every call carries an O(1)
// estimate of its whole work in edges × head_dim — one edge fold at
// d = 64 is 64 units. The paper's kernels "only perform the needed
// computations"; forking a team for a call smaller than the fork itself
// would not. So:
//   * work < kGrainWork → the call runs inline on the caller, outside
//     any parallel region, so a nested kernel keeps its own parallelism
//     (a batch of one, or eight one-row decode steps);
//   * otherwise the range splits into chunks of at least kGrainWork
//     each (and at least policy.grain indices each), over at most one
//     worker per chunk — so a call forks once it holds two grains, and
//     a single chunk runs inline just as a small call does.
// A resolved thread count of 1 (a serial policy, or a call nested in a
// region) never reads the estimate. Each decision the gate makes with
// more than one thread available is counted in the registry as
// `parallel.calls.inline` or `parallel.calls.forked`.
//
// Nesting contract (see parallel/parallel_region.hpp): a substrate call
// made from inside another substrate call runs serially on the calling
// worker instead of spawning threads² workers.

#include <cstdint>
#include <functional>
#include <string_view>

#include "common/types.hpp"
#include "parallel/exec_policy.hpp"

namespace gpa {

/// Work (edges × head_dim) one chunk of a forked call must carry: about
/// 6 µs of serial fold at d = 64, enough to pay for a fork/join hop.
/// ATen's GRAIN_SIZE.
inline constexpr std::int64_t kGrainWork = 32768;

/// Ceiling division — the chunk-count arithmetic every scheduling
/// decision shares (ATen's divup).
inline constexpr Index divup(Index x, Index y) { return (x + y - 1) / y; }

/// Which substrate parallel_for dispatches to in this build:
/// "openmp" when compiled with GPA_HAVE_OPENMP, "threads" otherwise.
std::string_view parallel_backend() noexcept;

/// Invokes `body(i)` for every i in [begin, end), in parallel according
/// to `policy` and the work gate (`work` = estimated edges × head_dim
/// of the whole range). `body` must be safe to run concurrently for
/// distinct i. Exceptions thrown by `body` propagate to the caller
/// (first one wins).
void parallel_for(Index begin, Index end, const ExecPolicy& policy, std::int64_t work,
                  const std::function<void(Index)>& body);

/// Range-chunked variant: `body(lo, hi)` over disjoint sub-ranges.
/// Used by kernels that keep per-chunk scratch buffers.
void parallel_for_chunks(Index begin, Index end, const ExecPolicy& policy, std::int64_t work,
                         const std::function<void(Index, Index)>& body);

/// Number of workers the policy resolves to on this machine. Returns 1
/// inside a parallel region (the nesting guard): nested loops degrade
/// to serial rather than oversubscribe.
int resolved_threads(const ExecPolicy& policy) noexcept;

/// The work estimate for a call under `policy`: `estimate()` runs only
/// when the policy resolves to more than one thread, because the gate
/// reads the estimate only then (0 otherwise).
template <typename Estimate>
std::int64_t gated_work(const ExecPolicy& policy, Estimate&& estimate) {
  return resolved_threads(policy) > 1 ? static_cast<std::int64_t>(estimate()) : 0;
}

namespace detail {

/// What the work gate decided for n loop indices: `threads` <= 1 means
/// run inline on the caller; otherwise fork that many workers over
/// chunks of `grain` indices.
struct Split {
  int threads = 1;
  Index grain = 1;
};

/// The work gate (see the header comment); counts its decision.
Split split_work(Index n, const ExecPolicy& policy, std::int64_t work);

/// Forks `split.threads` workers over [begin, end) in chunks of
/// `split.grain` under the policy's schedule. Call only with a split
/// from split_work that chose to fork.
void fork_chunks(Index begin, Index end, const ExecPolicy& policy, Split split,
                 const std::function<void(Index, Index)>& body);

}  // namespace detail

}  // namespace gpa
