#pragma once
// Masks whose rows end on, just before and just after the row fold's
// tile edges (simd::kTile = 16 edges per fold_tile call), shared by the
// tile-boundary tests of every fold path: one-shot kernels, kvcache
// decode, the seqpar ring and the wire ring.

#include <vector>

#include "common/types.hpp"
#include "simd/simd.hpp"
#include "sparse/csr.hpp"

namespace gpa::test {

/// Row degrees around the tile size: empty (a fully masked row), one
/// edge, one short of a tile, exactly one tile, one over, and two tiles
/// plus one.
inline const std::vector<Index>& tile_ladder() {
  static_assert(simd::kTile == 16, "the ladder straddles a 16-edge tile");
  static const std::vector<Index> degrees = {0, 1, 15, 16, 17, 33};
  return degrees;
}

/// An L×L CSR mask where row i has degree tile_ladder()[i % 6] and
/// values in [0.5, 1.5) to serve as gates. With `lower` (the default)
/// every column is j <= i — so causal and non-causal enumerations agree
/// — with the degree capped at i + 1 and the columns spread evenly over
/// [0, i]; otherwise the columns spread evenly over [0, L), so even the
/// first rows reach every K/V shard.
inline Csr<float> tile_ladder_mask(Index L, bool lower = true) {
  const auto& ladder = tile_ladder();
  Csr<float> m;
  m.rows = m.cols = L;
  m.row_offsets.push_back(0);
  for (Index i = 0; i < L; ++i) {
    const Index span = lower ? i + 1 : L;
    const Index want = ladder[static_cast<std::size_t>(i) % ladder.size()];
    const Index deg = want < span ? want : span;
    for (Index t = 0; t < deg; ++t) {
      const Index j = t * span / deg;  // strictly increasing: span / deg >= 1
      m.col_idx.push_back(j);
      m.values.push_back(0.5f + static_cast<float>((i * 7 + j * 3) % 10) / 10.0f);
    }
    m.row_offsets.push_back(static_cast<Index>(m.col_idx.size()));
  }
  return m;
}

}  // namespace gpa::test
