#pragma once
// MaskTraversal — THE place a mask family's iteration order is defined.
//
// Before this layer existed the order every sparse pattern visits its
// edges in lived in two independent implementations: each one-shot
// kernel hand-rolled its row loop (including a causal branch), and
// kvcache/MaskSpec re-derived the same order "kernel-order-exact" for
// incremental decode. The decode-vs-kernel bit-identity guarantee
// therefore rested on two code paths agreeing by inspection. Here the
// enumeration is defined once per family; the kernels, the composed
// kernel, the KV-cache decode path, and the serving layer's batch
// fingerprints all consume this single definition, so "add a new mask
// family" is a one-switch-case change instead of a three-subsystem one.
//
// The non-causal orders delegate to graph/neighbors.hpp (the paper's
// Get_Neighbors generators); the causal row slices — previously
// duplicated across the kernels' causal branches and MaskSpec — are
// defined here and nowhere else. Everything is a template over the
// visitor, so kernels inline the enumeration exactly as before (the
// per-row switch on the family tag is the only dispatch, amortized over
// the row's edges).

#include <algorithm>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "core/attention_options.hpp"
#include "graph/degree.hpp"
#include "graph/neighbors.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/patterns.hpp"

namespace gpa {

struct ComposedMask;  // sparse/presets.hpp

class MaskTraversal {
 public:
  enum class Kind : std::uint8_t { Csr, Coo, Local, Dilated1d, Dilated2d, Global };

  MaskTraversal() = default;

  // --- owning factories (sessions / anything that outlives the mask
  // argument). Parameters are validated here, once. -------------------
  static MaskTraversal csr(std::shared_ptr<const Csr<float>> mask);
  static MaskTraversal coo(std::shared_ptr<const Coo<float>> mask,
                           CooSearch search = CooSearch::Binary);
  static MaskTraversal local(LocalParams p);
  static MaskTraversal dilated1d(Dilated1DParams p);
  static MaskTraversal dilated2d(Dilated2DParams p);
  static MaskTraversal global(GlobalMinusLocalParams p);

  // --- non-owning views (one kernel call over a caller-held mask) ----
  static MaskTraversal over(const Csr<float>& mask);
  static MaskTraversal over(const Coo<float>& mask, CooSearch search);

  Kind kind() const noexcept { return kind_; }

  /// True when the traversal carries no explicit storage or owns it —
  /// i.e. it may safely outlive the mask object it was created from.
  /// Views from `over()` are NOT self-contained; long-lived holders
  /// (sessions) must use the owning factories.
  bool self_contained() const noexcept {
    return (kind_ != Kind::Csr && kind_ != Kind::Coo) || owner_ != nullptr;
  }

  /// Explicit storage is square (trivially true for implicit families).
  bool square_storage() const noexcept {
    switch (kind_) {
      case Kind::Csr: return csr_->rows == csr_->cols;
      case Kind::Coo: return coo_->rows == coo_->cols;
      default: return true;
    }
  }

  /// Hard row-count ceiling of explicit / sequence-bound families
  /// (CSR, COO, dilated-2D); -1 for the unbounded implicit patterns,
  /// whose causal slices only look backward.
  Index max_len() const noexcept {
    switch (kind_) {
      case Kind::Csr: return csr_->rows;
      case Kind::Coo: return coo_->rows;
      case Kind::Dilated2d: return dilated2_.seq_len;
      default: return Index{-1};
    }
  }

  /// Calls `edge(j, gate)` for every neighbor j of row i, in THE kernel
  /// order of this family. `gate` is the stored mask value for explicit
  /// formats, 1.0f for implicit ones. With `causal`, only j <= i is
  /// visited and the enumeration stays work-optimal (clamped/closed
  /// forms, never enumerate-then-discard).
  template <typename Fn>
  void for_each_edge(Index i, Index seq_len, bool causal, Fn&& edge) const {
    switch (kind_) {
      case Kind::Csr: {
        const Csr<float>& m = *csr_;
        const Index e = m.row_end(i);
        for (Index kk = m.row_begin(i); kk < e; ++kk) {
          const Index j = m.col_idx[static_cast<std::size_t>(kk)];
          if (causal && j > i) break;  // columns are sorted: done with this row
          edge(j, m.values[static_cast<std::size_t>(kk)]);
        }
        return;
      }
      case Kind::Coo: {
        // Each row first locates its extent within the coordinate
        // arrays. The paper's kernel scans from index zero (the §V-C
        // cost that makes COO uncompetitive in Fig. 3); Binary is the
        // ablation repair.
        const CooRowBounds b = coo_search_ == CooSearch::Linear
                                   ? coo_row_bounds_linear(*coo_, i)
                                   : coo_row_bounds_binary(*coo_, i);
        for (Index kk = b.first; kk < b.last; ++kk) {
          const Index j = coo_->col_idx[static_cast<std::size_t>(kk)];
          if (causal && j > i) break;  // columns sorted within the row
          edge(j, coo_->values[static_cast<std::size_t>(kk)]);
        }
        return;
      }
      case Kind::Local: {
        if (causal) {
          // Sliding-window causal attention: clamp the forward half of
          // the window instead of enumerating and discarding.
          const Index lo = std::max<Index>(0, i - (local_.window - 1));
          for (Index j = lo; j <= i; ++j) edge(j, 1.0f);
        } else {
          local_neighbors(i, seq_len, local_, [&](Index j) { edge(j, 1.0f); });
        }
        return;
      }
      case Kind::Dilated1d: {
        if (causal) {
          // Only the backward strides and self survive the causal cut.
          const Index step = dilated_.dilation + 1;
          const Index max_d = dilated_.window - 1;
          for (Index d = (max_d / step) * step; d >= step; d -= step) {
            if (i - d >= 0) edge(i - d, 1.0f);
          }
          edge(i, 1.0f);
        } else {
          dilated1d_neighbors(i, seq_len, dilated_, [&](Index j) { edge(j, 1.0f); });
        }
        return;
      }
      case Kind::Dilated2d: {
        if (causal) {
          if ((i % dilated2_.block) % (dilated2_.dilation + 1) != 0) return;
          const Index g = dilated2_.group_size();
          const Index lo = (i / g) * g;
          for (Index j = lo; j <= i; ++j) {
            if ((j % dilated2_.block) % (dilated2_.dilation + 1) == 0) edge(j, 1.0f);
          }
        } else {
          dilated2d_neighbors(i, dilated2_, [&](Index j) { edge(j, 1.0f); });
        }
        return;
      }
      case Kind::Global: {
        if (causal) {
          // Closed form of the causal cut: the window's forward half
          // covers every j in (win_lo, i], so only columns below win_lo
          // survive — the sequence the full kernel's filtered
          // enumeration visits, without scanning the forward extent.
          const Index win_lo = i - (global_.local.window - 1);
          if (global_.global.is_global(i)) {
            for (Index j = 0; j < win_lo && j <= i; ++j) edge(j, 1.0f);
          } else {
            for (const Index j : global_.global.tokens) {
              if (j > i) break;  // tokens are sorted
              if (j < win_lo) edge(j, 1.0f);
            }
          }
        } else {
          global_minus_local_neighbors(i, seq_len, global_, [&](Index j) { edge(j, 1.0f); });
        }
        return;
      }
    }
  }

  /// Column-ranged enumeration: row i's neighbors with col_lo <= j <
  /// col_hi, in the same relative order as `for_each_edge`. This is the
  /// shard form the sequence-parallel paths iterate — a K/V shard owns a
  /// contiguous column range, and a node folds exactly the edges of its
  /// rows that land in the shard it currently holds. For the explicit
  /// formats the range is located by binary search on the row's sorted
  /// columns (no enumerate-then-discard); implicit families filter their
  /// closed-form enumeration. Since every family's enumeration visits
  /// each edge once, concatenating disjoint ranges visits the row's
  /// edges exactly once — and for ascending-order families (CSR under
  /// ascending shards) in full-kernel order, which is what makes the
  /// in-order distributed fold bit-identical to the one-shot kernel.
  template <typename Fn>
  void for_each_edge_in_cols(Index i, Index seq_len, bool causal, Index col_lo, Index col_hi,
                             Fn&& edge) const {
    switch (kind_) {
      case Kind::Csr: {
        const Csr<float>& m = *csr_;
        const auto begin = m.col_idx.begin() + m.row_begin(i);
        const auto end = m.col_idx.begin() + m.row_end(i);
        auto it = std::lower_bound(begin, end, col_lo);
        for (; it != end && *it < col_hi; ++it) {
          const Index j = *it;
          if (causal && j > i) break;  // columns sorted: done with this row
          edge(j, m.values[static_cast<std::size_t>(it - m.col_idx.begin())]);
        }
        return;
      }
      case Kind::Coo: {
        const CooRowBounds b = coo_search_ == CooSearch::Linear
                                   ? coo_row_bounds_linear(*coo_, i)
                                   : coo_row_bounds_binary(*coo_, i);
        const auto begin = coo_->col_idx.begin() + b.first;
        const auto end = coo_->col_idx.begin() + b.last;
        auto it = std::lower_bound(begin, end, col_lo);
        for (; it != end && *it < col_hi; ++it) {
          const Index j = *it;
          if (causal && j > i) break;
          edge(j, coo_->values[static_cast<std::size_t>(it - coo_->col_idx.begin())]);
        }
        return;
      }
      default:
        // Implicit families: filter the closed-form enumeration. The
        // range test preserves the family's relative edge order.
        for_each_edge(i, seq_len, causal, [&](Index j, float gate) {
          if (j >= col_lo && j < col_hi) edge(j, gate);
        });
        return;
    }
  }

  /// Row i's causal neighborhood — what one incremental decode step at
  /// position i folds. Identical to `for_each_edge(i, ·, causal=true,
  /// ·)` by construction (under causal the forward extent is invisible,
  /// so no family's slice depends on a notional total length).
  template <typename Fn>
  void causal_row_slice(Index i, Fn&& edge) const {
    for_each_edge(i, i + 1, /*causal=*/true, edge);
  }

  /// Edges of row i (degree), counted through the same enumeration.
  Index row_degree(Index i, Index seq_len, bool causal) const {
    Index n = 0;
    for_each_edge(i, seq_len, causal, [&](Index, float) { ++n; });
    return n;
  }

  /// O(1) estimate of the edges one kernel call over seq_len rows
  /// folds — the work the parallel gate weighs (parallel_for.hpp).
  /// Explicit formats give their nnz scaled to seq_len rows, implicit
  /// families the closed forms of sparse/nnz.hpp; a causal call keeps
  /// about half, (nnz + seq_len) / 2, exact for symmetric masks with a
  /// full diagonal.
  Size approx_edges(Index seq_len, bool causal) const;

  /// Per-row degrees over a sequence — feed to degree_stats() for the
  /// min/mean/max/imbalance skew profile (§V-C).
  std::vector<Index> degrees(Index seq_len, bool causal = false) const;

  /// Degree statistics (skew profile) of the traversal at seq_len.
  DegreeStats stats(Index seq_len, bool causal = false) const;

  /// Structural fingerprint: two traversals fingerprint equally iff
  /// they enumerate the same (row → column sequence) map. Explicit
  /// formats hash shape + offsets + columns (values excluded, matching
  /// core/batched's mask_fingerprint contract); implicit families hash
  /// their parameters. A kind tag is mixed first so e.g. a local window
  /// can never collide with the CSR that materialises it.
  std::uint64_t fingerprint() const;

 private:
  Kind kind_ = Kind::Local;
  const Csr<float>* csr_ = nullptr;   ///< Kind::Csr
  const Coo<float>* coo_ = nullptr;   ///< Kind::Coo
  /// Keeps csr_/coo_ alive for the owning factories; null for views.
  std::shared_ptr<const void> owner_;
  CooSearch coo_search_ = CooSearch::Binary;
  LocalParams local_{};
  Dilated1DParams dilated_{};
  Dilated2DParams dilated2_{};
  GlobalMinusLocalParams global_{};
};

/// The per-component traversals of a composed mask, in composition
/// order, with the same component→kernel routing composed_attention
/// has always used (implicit kernels where the family can express the
/// component, the materialised CSR otherwise). `owning` copies explicit
/// components so the result outlives the ComposedMask (session use);
/// views them otherwise (single kernel call).
std::vector<MaskTraversal> traversals_of(const ComposedMask& mask, bool owning = false);

/// Edge estimate of a composition: the sum of its components'.
Size approx_edges(const std::vector<MaskTraversal>& components, Index seq_len, bool causal);

namespace detail {

/// Adapts a traversal to run_rows' row-enumerator shape. The traversal
/// must outlive the returned lambda (kernels hold it on the stack for
/// the duration of the call).
inline auto traversal_rows(const MaskTraversal& tr, Index seq_len, bool causal) {
  return [&tr, seq_len, causal](Index i, auto&& edge) {
    tr.for_each_edge(i, seq_len, causal, edge);
  };
}

}  // namespace detail

}  // namespace gpa
