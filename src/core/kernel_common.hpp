#pragma once
// Shared implementation of Algorithm 1 (Graph Processing Attention).
//
// Every kernel is the same row-parallel fold; they differ only in the
// neighbor enumeration (`Get_Neighbors`). The fold keeps, per row, the
// running max m of the scores folded so far, l = Σ exp(s − m) and an
// UNNORMALISED accumulator U = Σ exp(s − m)·V (= l·O), divided by l
// once at finalisation instead of renormalising per edge. Edges are
// folded a tile at a time: RowFold buffers up to simd::kTile edges of a
// row and folds them in one VecOps::fold_tile call. For a tile with
// scores s_j = scale·(Q_i·K_j) (optionally ·mask value), let
// m_new = max(m, max_j s_j). Every term already in l and U moves from
// base m to base m_new by one factor, exp(s − m_new) = exp(s − m)·alpha
// with alpha = exp(m − m_new), and the tile's own terms enter at the new
// base, p_j = exp(s_j − m_new):
//
//   l   = l·alpha + Σ_j p_j
//   U_i = U_i·alpha + Σ_j p_j·V_j
//   m   = m_new
//
// One max, one batch of exps and one pass over V per tile, instead of a
// dependent max → exp → rescale chain per edge. (A tile of one edge is
// the paper's per-edge update after multiplying through by l.)
//
// THE TILE RULE: a tile never crosses the end of an enumeration. One
// enumeration is a row's full neighbor list for the one-shot kernels,
// composed_attention, serve batches, kvcache prefill and decode, and a
// (row, K/V shard) pair for the sequence-parallel paths (seqpar ring and
// sim_cluster, the wire ring in src/net). Two paths that enumerate the
// same edges in the same order with the same breaks therefore fold the
// same tiles on the same arm — which is what keeps decode ≡ one-shot,
// wire ≡ sim_cluster and serve ≡ direct kernel bitwise.

#include <cmath>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "core/attention_options.hpp"
#include "core/state.hpp"
#include "core/traversal.hpp"
#include "parallel/parallel_for.hpp"
#include "simd/simd.hpp"
#include "tensor/matrix.hpp"

namespace gpa::detail {

/// Resolve the score scale (< 0 means 1/sqrt(dk)).
inline float resolve_scale(float requested, Index head_dim) {
  if (requested >= 0.0f) return requested;
  GPA_CHECK(head_dim > 0, "cannot derive 1/sqrt(dk) scale for empty head dimension");
  return 1.0f / std::sqrt(static_cast<float>(head_dim));
}

/// Validate the Q/K/V/state shapes shared by all kernels.
template <typename T>
void check_inputs(const Matrix<T>& q, const Matrix<T>& k, const Matrix<T>& v,
                  const SoftmaxState& state) {
  GPA_CHECK(q.rows() == k.rows() && q.rows() == v.rows(),
            "Q, K, V must share the sequence length");
  GPA_CHECK(q.cols() == k.cols(), "Q and K must share the head dimension");
  GPA_CHECK(v.cols() == q.cols(), "this implementation assumes dv == dk, like the paper's");
  GPA_CHECK(state.seq_len() == q.rows() && state.head_dim() == v.cols(),
            "softmax state shape mismatch — reset(seq_len, head_dim) first");
}

/// Folds one enumeration of a row's edges into its (m, l, acc) state,
/// tile by tile. `KV` is the K/V storage type (float, or half_t rows
/// that widen on load); the query row is always float. Call add() per
/// edge in enumeration order and finish() at the end of the
/// enumeration — the tile rule above.
template <typename KV>
class RowFold {
 public:
  RowFold(const simd::VecOps& vo, const float* q, Index head_dim, float scale, bool use_gate,
          float& m, float& l, float* acc) noexcept
      : vo_(vo), q_(q), d_(head_dim), scale_(scale), use_gate_(use_gate), m_(m), l_(l),
        acc_(acc) {}

  void add(const KV* k_row, const KV* v_row, float gate) noexcept {
    k_[n_] = k_row;
    v_[n_] = v_row;
    gate_[n_] = gate;
    if (++n_ == simd::kTile) flush();
  }

  /// Folds the buffered remainder (a partial tile).
  void finish() noexcept {
    if (n_ > 0) flush();
  }

 private:
  void flush() noexcept {
    if constexpr (std::is_same_v<KV, float>) {
      vo_.fold_tile(q_, k_, v_, gate_, n_, d_, scale_, use_gate_, m_, l_, acc_);
    } else {
      vo_.fold_tile_h(q_, k_, v_, gate_, n_, d_, scale_, use_gate_, m_, l_, acc_);
    }
    n_ = 0;
  }

  const simd::VecOps& vo_;
  const float* q_;
  Index d_;
  float scale_;
  bool use_gate_;
  float& m_;
  float& l_;
  float* acc_;
  Index n_ = 0;
  const KV* k_[simd::kTile];
  const KV* v_[simd::kTile];
  float gate_[simd::kTile];
};

/// The row-parallel driver. `row_enum(i, edge)` must call
/// `edge(j, gate)` for every neighbor j of row i (gate is the mask value
/// for explicit formats, 1.0f otherwise); the whole call is one
/// enumeration, folded by one RowFold. `work` is the call's estimated
/// edges × head_dim, which the parallel substrate's work gate weighs.
template <typename T, typename RowEnum>
void run_rows(const Matrix<T>& q, const Matrix<T>& k, const Matrix<T>& v,
              const AttentionOptions& opts, SoftmaxState& state, std::int64_t work,
              RowEnum&& row_enum) {
  check_inputs(q, k, v, state);
  const Index seq_len = q.rows();
  const Index head_dim = q.cols();
  const float scale = resolve_scale(opts.scale, head_dim);
  const bool use_gate = opts.use_mask_values;
  const simd::VecOps& vo = simd::ops(opts.policy.simd);  // resolved once per call

  parallel_for(0, seq_len, opts.policy, work, [&](Index i) {
    const float* qi;
    if constexpr (std::is_same_v<T, float>) {
      qi = q.row(i);
    } else {
      // Half queries widen once per row (exact), then fold like float.
      thread_local std::vector<float> q_wide;
      q_wide.resize(static_cast<std::size_t>(head_dim));
      vo.h2f(q_wide.data(), q.row(i), head_dim);
      qi = q_wide.data();
    }
    RowFold<T> fold(vo, qi, head_dim, scale, use_gate, state.m(i), state.l(i), state.acc_row(i));
    row_enum(i, [&](Index j, float gate) { fold.add(k.row(j), v.row(j), gate); });
    fold.finish();
  });
}

/// Traversal-driven driver: weighs the call's work from the traversal's
/// edge estimate, then runs the generic row loop over the traversal's
/// enumeration. Every kernel TU routes through this, so the work gate
/// needs zero per-kernel code.
template <typename T>
void run_rows(const Matrix<T>& q, const Matrix<T>& k, const Matrix<T>& v,
              const AttentionOptions& opts, SoftmaxState& state, const MaskTraversal& tr) {
  const std::int64_t work = gated_work(opts.policy, [&] {
    return tr.approx_edges(q.rows(), opts.causal) * static_cast<Size>(q.cols());
  });
  run_rows(q, k, v, opts, state, work, traversal_rows(tr, q.rows(), opts.causal));
}

/// Composition form (composed_attention): one row-parallel pass folding
/// every component per row as ONE enumeration (a tile may span a
/// component boundary), its work summed over the components.
template <typename T>
void run_rows(const Matrix<T>& q, const Matrix<T>& k, const Matrix<T>& v,
              const AttentionOptions& opts, SoftmaxState& state,
              const std::vector<MaskTraversal>& components) {
  const Index seq_len = q.rows();
  const std::int64_t work = gated_work(opts.policy, [&] {
    return approx_edges(components, seq_len, opts.causal) * static_cast<Size>(q.cols());
  });
  run_rows(q, k, v, opts, state, work, [&](Index i, auto&& edge) {
    for (const MaskTraversal& tr : components) {
      tr.for_each_edge(i, seq_len, opts.causal, edge);
    }
  });
}

}  // namespace gpa::detail
