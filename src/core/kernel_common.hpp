#pragma once
// Shared implementation of Algorithm 1 (Graph Processing Attention).
//
// Every kernel is the same row-parallel fold; they differ only in the
// neighbor enumeration (`Get_Neighbors`). The fold below is the paper's
// inner loop with one algebraic change: the accumulator stays
// unnormalised (U = l·O) and is divided by l once at finalisation,
// instead of renormalising on every edge, which saves a d-wide divide
// per edge. Per edge:
//
//   w      = scale · (Q_i · K_j)          (optionally · mask value)
//   m_new  = max(m, w)
//   alpha  = exp(m − m_new), beta = exp(w − m_new)
//   l      = l·alpha + beta
//   U_i    = U_i·alpha + beta·V_j
//
// which is exactly the paper's update after multiplying through by l.

#include <cmath>
#include <type_traits>

#include "common/error.hpp"
#include "core/attention_options.hpp"
#include "core/state.hpp"
#include "core/traversal.hpp"
#include "parallel/parallel_for.hpp"
#include "simd/simd.hpp"
#include "tensor/matrix.hpp"
#include "tensor/softmax.hpp"

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

/// Fold one (row, neighbor) edge into the row's online-softmax state,
/// with the K/V rows given as raw pointers. This is the lowest-level
/// form of the fold: the matrix kernels wrap it via fold_edge below, and
/// the KV-cache decode path calls it directly with paged K/V row
/// pointers (each page slot is a contiguous d-float span), so incremental
/// decode reuses the exact fold — same VecOps dispatch, same operation
/// order — and stays bit-identical to the one-shot kernels.
/// `qi` is the query row, `acc` the unnormalised accumulator. Both
/// instantiations route the d-dimension loops (Q·K dot, accumulate /
/// rescale) through the dispatched vector ops: the half instantiation
/// uses the fp16 table entries (F16C/AVX-512 widen on load, fp32
/// accumulate), so half storage vectorizes with the same parity class
/// as the float path on every arm.
template <typename T>
inline void fold_edge_rows(const T* GPA_RESTRICT qi, const T* GPA_RESTRICT kj,
                           const T* GPA_RESTRICT vj, Index head_dim, float scale, float gate,
                           bool use_gate, OnlineSoftmaxRow& osr, float* GPA_RESTRICT acc,
                           const simd::VecOps& vo) {
  float w;
  if constexpr (std::is_same_v<T, float>) {
    w = vo.dot(qi, kj, head_dim);
  } else {
    w = vo.dot_h(qi, kj, head_dim);
  }
  w *= scale;
  if (use_gate) w *= gate;

  const auto [alpha, beta] = osr.push(w);
  if constexpr (std::is_same_v<T, float>) {
    if (alpha == 1.0f) {  // running max unchanged — skip the rescale multiply
      vo.axpy(acc, beta, vj, head_dim);
    } else {
      vo.axpby(acc, alpha, beta, vj, head_dim);
    }
  } else {
    if (alpha == 1.0f) {
      vo.axpy_h(acc, beta, vj, head_dim);
    } else {
      vo.axpby_h(acc, alpha, beta, vj, head_dim);
    }
  }
}

/// Mixed-precision fold for decode over half-width KV pages: the query
/// row is the caller's fp32 payload, K/V come from fp16 page storage
/// and widen on load. Numerics match folding the widened rows through
/// the float path (widening is exact), so fp16-page decode differs from
/// fp32-page decode only by the storage quantisation of K/V.
inline void fold_edge_rows_fh(const float* GPA_RESTRICT qi, const half_t* GPA_RESTRICT kj,
                              const half_t* GPA_RESTRICT vj, Index head_dim, float scale,
                              float gate, bool use_gate, OnlineSoftmaxRow& osr,
                              float* GPA_RESTRICT acc, const simd::VecOps& vo) {
  float w = vo.dot_fh(qi, kj, head_dim);
  w *= scale;
  if (use_gate) w *= gate;

  const auto [alpha, beta] = osr.push(w);
  if (alpha == 1.0f) {
    vo.axpy_h(acc, beta, vj, head_dim);
  } else {
    vo.axpby_h(acc, alpha, beta, vj, head_dim);
  }
}

/// Matrix-indexed convenience wrapper over fold_edge_rows (the form the
/// one-shot kernels' row enumerators use).
template <typename T>
inline void fold_edge(const T* GPA_RESTRICT qi, const Matrix<T>& k_mat, const Matrix<T>& v_mat,
                      Index j, Index head_dim, float scale, float gate, bool use_gate,
                      OnlineSoftmaxRow& osr, float* GPA_RESTRICT acc,
                      const simd::VecOps& vo) {
  fold_edge_rows(qi, k_mat.row(j), v_mat.row(j), head_dim, scale, gate, use_gate, osr, acc, vo);
}

/// The row-parallel driver. `row_enum(i, edge)` must call
/// `edge(j, gate)` for every neighbor j of row i (gate is the mask value
/// for explicit formats, 1.0f otherwise).
template <typename T, typename RowEnum>
void run_rows(const Matrix<T>& q, const Matrix<T>& k, const Matrix<T>& v,
              const AttentionOptions& opts, SoftmaxState& state, RowEnum&& row_enum) {
  check_inputs(q, k, v, state);
  const Index seq_len = q.rows();
  const Index head_dim = q.cols();
  const float scale = resolve_scale(opts.scale, head_dim);
  const bool use_gate = opts.use_mask_values;
  const simd::VecOps& vo = simd::ops(opts.policy.simd);  // resolved once per call

  parallel_for(0, seq_len, opts.policy, [&](Index i) {
    const T* qi = q.row(i);
    float* acc = state.acc_row(i);
    OnlineSoftmaxRow osr{state.m(i), state.l(i)};
    row_enum(i, [&](Index j, float gate) {
      fold_edge(qi, k, v, j, head_dim, scale, gate, use_gate, osr, acc, vo);
    });
    state.m(i) = osr.m;
    state.l(i) = osr.l;
  });
}

/// Traversal-driven driver: resolves Schedule::Auto from the mask's
/// degree/skew statistics, then runs the generic row loop over the
/// traversal's enumeration. Every kernel TU routes through this, so
/// auto-tuned scheduling needs zero per-kernel code.
template <typename T>
void run_rows(const Matrix<T>& q, const Matrix<T>& k, const Matrix<T>& v,
              const AttentionOptions& opts, SoftmaxState& state, const MaskTraversal& tr) {
  AttentionOptions o = opts;
  o.policy = tr.resolved_policy(opts.policy, q.rows(), opts.causal);
  run_rows(q, k, v, o, state, traversal_rows(tr, q.rows(), opts.causal));
}

/// Composition form (composed_attention): one row-parallel pass folding
/// every component per row, schedule resolved over the components'
/// summed degree profile.
template <typename T>
void run_rows(const Matrix<T>& q, const Matrix<T>& k, const Matrix<T>& v,
              const AttentionOptions& opts, SoftmaxState& state,
              const std::vector<MaskTraversal>& components) {
  AttentionOptions o = opts;
  const Index seq_len = q.rows();
  o.policy = gpa::resolved_policy(opts.policy, components, seq_len, opts.causal);
  run_rows(q, k, v, o, state, [&](Index i, auto&& edge) {
    for (const MaskTraversal& tr : components) {
      tr.for_each_edge(i, seq_len, opts.causal, edge);
    }
  });
}

}  // namespace gpa::detail
