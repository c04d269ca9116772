#pragma once
// The sequence-parallel row fold, defined once. sim_cluster (the
// in-process oracle) and the wire ring prefill's nodes (src/net) both
// fold every row through ShardFold::row, so on the same partition and
// SIMD arm their outputs are bit-identical by construction.
//
// THE TILE RULE (core/kernel_common.hpp) for these paths: one
// enumeration per (row, K/V shard). A row's columns ascend, so the row
// is one pass that flushes its tile at every shard boundary it crosses
// — the tiles a per-shard enumeration in ascending shard order folds.

#include <algorithm>
#include <utility>

#include "core/kernel_common.hpp"
#include "tensor/softmax.hpp"

namespace gpa::seqpar {

struct ShardFold {
  const simd::VecOps& vo;
  Index head_dim = 0;
  float scale = 1.0f;  ///< resolved (>= 0)
  bool use_gate = false;
  bool causal = false;
  /// Partition boundaries from index 1: shard s holds the columns below
  /// shard_ends[s]. Every folded column must be below the last entry.
  const Index* shard_ends = nullptr;

  /// Folds row i: its ascending columns cols[0..n) with gates[0..n)
  /// (a null `gates` means every gate is 1.0f), stopping under `causal`
  /// at the first column past i. Columns come as Index (sim_cluster,
  /// straight from the CSR) or as the wire's u32. `kv(j)` returns the K
  /// and V rows of column j as a pair of pointers and is called in
  /// ascending j. Writes the finished output row to `out` (head_dim
  /// floats, zero for a row with no edge) and returns the number of
  /// edges folded.
  template <typename Col, typename KvRows>
  Size row(Index i, const float* q, const Col* cols, const float* gates, Index n, KvRows&& kv,
           float* out) const {
    std::fill(out, out + head_dim, 0.0f);
    OnlineSoftmaxRow osr;
    gpa::detail::RowFold<float> fold(vo, q, head_dim, scale, use_gate, osr.m, osr.l, out);
    const Index* shard_end = shard_ends;
    Index e = 0;
    for (; e < n; ++e) {
      const auto j = static_cast<Index>(cols[e]);
      if (causal && j > i) break;  // columns ascend: the rest lie in the future
      while (j >= *shard_end) {
        fold.finish();
        ++shard_end;
      }
      const std::pair<const float*, const float*> kv_row = kv(j);
      fold.add(kv_row.first, kv_row.second, gates != nullptr ? gates[e] : 1.0f);
    }
    fold.finish();
    const float inv = osr.inv_l();
    for (Index x = 0; x < head_dim; ++x) out[x] *= inv;
    return static_cast<Size>(e);
  }
};

}  // namespace gpa::seqpar
