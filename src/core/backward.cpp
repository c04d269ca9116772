#include "core/backward.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "core/graph_attention.hpp"
#include "core/kernel_common.hpp"
#include "core/state.hpp"
#include "parallel/parallel_for.hpp"
#include "sparse/nnz.hpp"
#include "sparse/transpose.hpp"

namespace gpa {

void AttentionCache::reset(Index seq_len, Index head_dim) {
  out = Matrix<float>(seq_len, head_dim);
  m.assign(static_cast<std::size_t>(seq_len), -std::numeric_limits<float>::infinity());
  l.assign(static_cast<std::size_t>(seq_len), 0.0f);
}

void AttentionGrads::reset(Index seq_len, Index head_dim) {
  dq = Matrix<float>(seq_len, head_dim);
  dk = Matrix<float>(seq_len, head_dim);
  dv = Matrix<float>(seq_len, head_dim);
  dq.zero();
  dk.zero();
  dv.zero();
}

namespace {

/// Runs the inference kernel, then copies (O, m, l) out of the state.
template <typename AccumulateFn>
void forward_with_cache(Index seq_len, Index head_dim, AttentionCache& cache,
                        AccumulateFn&& accumulate) {
  cache.reset(seq_len, head_dim);
  SoftmaxState state(seq_len, head_dim);
  accumulate(state);
  state.finalize_into(cache.out);
  for (Index i = 0; i < seq_len; ++i) {
    cache.m[static_cast<std::size_t>(i)] = state.m(i);
    cache.l[static_cast<std::size_t>(i)] = state.l(i);
  }
}

/// Per-row D_i = dO_i · O_i.
std::vector<float> row_dots(const Matrix<float>& dout, const Matrix<float>& out) {
  std::vector<float> d(static_cast<std::size_t>(dout.rows()));
  for (Index i = 0; i < dout.rows(); ++i) {
    const float* a = dout.row(i);
    const float* b = out.row(i);
    float acc = 0.0f;
    for (Index p = 0; p < dout.cols(); ++p) acc += a[p] * b[p];
    d[static_cast<std::size_t>(i)] = acc;
  }
  return d;
}

inline float prob_of_edge(const float* qi, const float* kj, Index d, float scale, float m_i,
                          float inv_l_i) {
  float s = 0.0f;
  for (Index p = 0; p < d; ++p) s += qi[p] * kj[p];
  return std::exp(s * scale - m_i) * inv_l_i;
}

void check_training_opts(const AttentionOptions& opts) {
  GPA_CHECK(!opts.use_mask_values, "weighted masks are not supported in training");
}

void check_backward_shapes(const Matrix<float>& q, const Matrix<float>& k,
                           const Matrix<float>& v, const AttentionCache& cache,
                           const Matrix<float>& dout) {
  GPA_CHECK(q.same_shape(k) && q.same_shape(v), "backward: Q/K/V shape mismatch");
  GPA_CHECK(dout.same_shape(q), "backward: dO shape mismatch");
  GPA_CHECK(cache.out.same_shape(q) &&
                cache.m.size() == static_cast<std::size_t>(q.rows()) &&
                cache.l.size() == static_cast<std::size_t>(q.rows()),
            "backward: cache does not match inputs — run the cached forward first");
}

}  // namespace

void csr_attention_forward(const Matrix<float>& q, const Matrix<float>& k,
                           const Matrix<float>& v, const Csr<float>& mask,
                           AttentionCache& cache, const AttentionOptions& opts) {
  check_training_opts(opts);
  forward_with_cache(q.rows(), v.cols(), cache, [&](SoftmaxState& state) {
    csr_attention_accumulate(q, k, v, mask, state, opts);
  });
}

void local_attention_forward(const Matrix<float>& q, const Matrix<float>& k,
                             const Matrix<float>& v, const LocalParams& p,
                             AttentionCache& cache, const AttentionOptions& opts) {
  check_training_opts(opts);
  forward_with_cache(q.rows(), v.cols(), cache, [&](SoftmaxState& state) {
    local_attention_accumulate(q, k, v, p, state, opts);
  });
}

void csr_attention_backward(const Matrix<float>& q, const Matrix<float>& k,
                            const Matrix<float>& v, const Csr<float>& mask,
                            const AttentionCache& cache, const Matrix<float>& dout,
                            AttentionGrads& grads, const AttentionOptions& opts) {
  check_training_opts(opts);
  check_backward_shapes(q, k, v, cache, dout);
  GPA_CHECK(mask.rows == q.rows() && mask.cols == q.rows(), "backward: mask shape mismatch");
  const Index L = q.rows();
  const Index d = q.cols();
  const float scale = detail::resolve_scale(opts.scale, d);
  grads.reset(L, d);
  const auto D = row_dots(dout, cache.out);
  const std::int64_t work = static_cast<std::int64_t>(mask.nnz()) * d;

  // Phase A — row-parallel over queries: dQ_i = scale·Σ_j dS_ij·k_j.
  parallel_for(0, L, opts.policy, work, [&](Index i) {
    const float li = cache.l[static_cast<std::size_t>(i)];
    if (li <= 0.0f) return;  // empty row: zero gradient
    const float inv_l = 1.0f / li;
    const float mi = cache.m[static_cast<std::size_t>(i)];
    const float* qi = q.row(i);
    const float* doi = dout.row(i);
    const float di = D[static_cast<std::size_t>(i)];
    float* dqi = grads.dq.row(i);
    const Index e = mask.row_end(i);
    for (Index kk = mask.row_begin(i); kk < e; ++kk) {
      const Index j = mask.col_idx[static_cast<std::size_t>(kk)];
      if (opts.causal && j > i) break;
      const float* kj = k.row(j);
      const float pij = prob_of_edge(qi, kj, d, scale, mi, inv_l);
      const float* vj = v.row(j);
      float dov = 0.0f;
      for (Index p = 0; p < d; ++p) dov += doi[p] * vj[p];
      const float ds = pij * (dov - di);
      const float coeff = scale * ds;
      for (Index p = 0; p < d; ++p) dqi[p] += coeff * kj[p];
    }
  });

  // Phase B — row-parallel over keys via the transposed mask:
  // dK_j = scale·Σ_i dS_ij·q_i,  dV_j = Σ_i P_ij·dO_i.
  const auto at = transpose_csr(mask);
  parallel_for(0, L, opts.policy, work, [&](Index j) {
    const float* kj = k.row(j);
    const float* vj = v.row(j);
    float* dkj = grads.dk.row(j);
    float* dvj = grads.dv.row(j);
    const Index e = at.t.row_end(j);
    for (Index kk = at.t.row_begin(j); kk < e; ++kk) {
      const Index i = at.t.col_idx[static_cast<std::size_t>(kk)];
      if (opts.causal && i < j) continue;  // edge (i, j) requires j <= i
      const float li = cache.l[static_cast<std::size_t>(i)];
      if (li <= 0.0f) continue;
      const float pij = prob_of_edge(q.row(i), kj, d, scale, cache.m[static_cast<std::size_t>(i)],
                                     1.0f / li);
      const float* doi = dout.row(i);
      float dov = 0.0f;
      for (Index p = 0; p < d; ++p) dov += doi[p] * vj[p];
      const float ds = pij * (dov - D[static_cast<std::size_t>(i)]);
      const float coeff = scale * ds;
      const float* qi = q.row(i);
      for (Index p = 0; p < d; ++p) {
        dkj[p] += coeff * qi[p];
        dvj[p] += pij * doi[p];
      }
    }
  });
}

void local_attention_backward(const Matrix<float>& q, const Matrix<float>& k,
                              const Matrix<float>& v, const LocalParams& p,
                              const AttentionCache& cache, const Matrix<float>& dout,
                              AttentionGrads& grads, const AttentionOptions& opts) {
  check_training_opts(opts);
  check_backward_shapes(q, k, v, cache, dout);
  GPA_CHECK(p.window >= 1, "backward: local window must be >= 1");
  const Index L = q.rows();
  const Index d = q.cols();
  const float scale = detail::resolve_scale(opts.scale, d);
  grads.reset(L, d);
  const auto D = row_dots(dout, cache.out);
  const std::int64_t work = static_cast<std::int64_t>(local_nnz(L, p)) * d;

  // Phase A — over queries (window neighbors of i, forward direction).
  parallel_for(0, L, opts.policy, work, [&](Index i) {
    const float li = cache.l[static_cast<std::size_t>(i)];
    if (li <= 0.0f) return;
    const float inv_l = 1.0f / li;
    const float mi = cache.m[static_cast<std::size_t>(i)];
    const float* qi = q.row(i);
    const float* doi = dout.row(i);
    const float di = D[static_cast<std::size_t>(i)];
    float* dqi = grads.dq.row(i);
    const Index lo = std::max<Index>(0, i - (p.window - 1));
    const Index hi = opts.causal ? i : std::min<Index>(L - 1, i + (p.window - 1));
    for (Index j = lo; j <= hi; ++j) {
      const float* kj = k.row(j);
      const float pij = prob_of_edge(qi, kj, d, scale, mi, inv_l);
      const float* vj = v.row(j);
      float dov = 0.0f;
      for (Index px = 0; px < d; ++px) dov += doi[px] * vj[px];
      const float coeff = scale * pij * (dov - di);
      for (Index px = 0; px < d; ++px) dqi[px] += coeff * kj[px];
    }
  });

  // Phase B — over keys. The window is symmetric: i attends to j iff
  // |i-j| < w, so the queries seeing key j are the window around j
  // (clipped to i >= j under causal).
  parallel_for(0, L, opts.policy, work, [&](Index j) {
    const float* kj = k.row(j);
    const float* vj = v.row(j);
    float* dkj = grads.dk.row(j);
    float* dvj = grads.dv.row(j);
    const Index lo = opts.causal ? j : std::max<Index>(0, j - (p.window - 1));
    const Index hi = std::min<Index>(L - 1, j + (p.window - 1));
    for (Index i = lo; i <= hi; ++i) {
      const float li = cache.l[static_cast<std::size_t>(i)];
      if (li <= 0.0f) continue;
      const float pij = prob_of_edge(q.row(i), kj, d, scale,
                                     cache.m[static_cast<std::size_t>(i)], 1.0f / li);
      const float* doi = dout.row(i);
      float dov = 0.0f;
      for (Index px = 0; px < d; ++px) dov += doi[px] * vj[px];
      const float ds = pij * (dov - D[static_cast<std::size_t>(i)]);
      const float coeff = scale * ds;
      const float* qi = q.row(i);
      for (Index px = 0; px < d; ++px) {
        dkj[px] += coeff * qi[px];
        dvj[px] += pij * doi[px];
      }
    }
  });
}

}  // namespace gpa
