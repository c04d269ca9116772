#pragma once
// parallel_reduce à la ATen's Parallel.h: split [begin, end) into
// grain-sized chunks, fold each chunk with `body`, then combine the
// per-chunk partials in ascending chunk order.
//
// Determinism contract: the reduction tree is a left fold over chunks
// fixed entirely by (n, policy.grain) — or, for policy.grain <= 0, by
// (n, work) — and identical for every schedule, thread count, backend
// and side of the work gate, including the serial path. `combine` must
// be a monoid with `identity` (combine(identity, x) == x); with that, a
// non-associative-in-floating-point combine (e.g. float +) still gives
// bit-identical results across policies at a fixed grain.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "parallel/parallel_for.hpp"

namespace gpa {

/// Folds `body(lo, hi, identity)` over grain-sized chunks of
/// [begin, end) under `policy` and the work gate (`work` = estimated
/// edges × head_dim of the whole range; below the gate the chunks fold
/// inline), combining the per-chunk partials with `combine` in chunk
/// order. policy.grain <= 0 derives one chunk per kGrainWork of work.
/// Exceptions from `body` propagate (first one wins); nested calls run
/// serially (nesting guard).
template <typename T, typename Body, typename Combine>
T parallel_reduce(Index begin, Index end, T identity, const Body& body,
                  const Combine& combine, const ExecPolicy& policy, std::int64_t work) {
  const Index n = end - begin;
  if (n <= 0) return identity;
  const Index grain = policy.grain > 0
                          ? policy.grain
                          : divup(n, std::clamp<std::int64_t>(work / kGrainWork, 1, n));
  const Index chunks = divup(n, grain);
  ExecPolicy chunk_policy = policy;
  chunk_policy.grain = 1;  // the loop units are whole chunks already
  const detail::Split split = detail::split_work(chunks, chunk_policy, work);

  if (split.threads <= 1) {
    // Same left-fold-over-chunks tree as the forked path, run inline.
    T acc = identity;
    for (Index lo = begin; lo < end; lo += grain) {
      const Index hi = lo + grain < end ? lo + grain : end;
      acc = combine(acc, body(lo, hi, identity));
    }
    return acc;
  }

  std::vector<T> partial(static_cast<std::size_t>(chunks), identity);
  detail::fork_chunks(0, chunks, chunk_policy, split, [&](Index c_lo, Index c_hi) {
    for (Index c = c_lo; c < c_hi; ++c) {
      const Index lo = begin + c * grain;
      const Index hi = lo + grain < end ? lo + grain : end;
      partial[static_cast<std::size_t>(c)] = body(lo, hi, identity);
    }
  });

  T acc = identity;
  for (const T& p : partial) acc = combine(acc, p);
  return acc;
}

}  // namespace gpa
