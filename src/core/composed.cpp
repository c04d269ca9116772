#include "core/composed.hpp"

#include "common/error.hpp"
#include "core/graph_attention.hpp"
#include "core/kernel_common.hpp"
#include "core/traversal.hpp"

namespace gpa {

template <typename T>
void composed_attention(const Matrix<T>& q, const Matrix<T>& k, const Matrix<T>& v,
                        const ComposedMask& mask, Matrix<T>& out,
                        const AttentionOptions& opts) {
  GPA_CHECK(mask.seq_len == q.rows(), "composed mask length mismatch");
  SoftmaxState state(q.rows(), v.cols());
  // One row-parallel pass folding every component's edges per row, in
  // composition order, as ONE enumeration per row: a tile may span a
  // component boundary. Q is swept once instead of once per component,
  // and each row's (m, l) stays live across the whole union. A chain of
  // per-component kernel calls folds the same edges but flushes a tile
  // at each component's end, so it agrees only up to rounding; decode
  // sessions over a composed mask enumerate like this pass and match it
  // bit for bit.
  const std::vector<MaskTraversal> components = traversals_of(mask, /*owning=*/false);
  detail::run_rows(q, k, v, opts, state, components);  // Auto resolves over summed degrees
  state.finalize_into(out);
}

template <typename T>
void fused_csr_attention(const Matrix<T>& q, const Matrix<T>& k, const Matrix<T>& v,
                         const ComposedMask& mask, Matrix<T>& out,
                         const AttentionOptions& opts) {
  GPA_CHECK(mask.seq_len == q.rows(), "composed mask length mismatch");
  csr_attention(q, k, v, mask.fused, out, opts);
}

template void composed_attention(const Matrix<float>&, const Matrix<float>&,
                                 const Matrix<float>&, const ComposedMask&, Matrix<float>&,
                                 const AttentionOptions&);
template void composed_attention(const Matrix<half_t>&, const Matrix<half_t>&,
                                 const Matrix<half_t>&, const ComposedMask&, Matrix<half_t>&,
                                 const AttentionOptions&);
template void fused_csr_attention(const Matrix<float>&, const Matrix<float>&,
                                  const Matrix<float>&, const ComposedMask&, Matrix<float>&,
                                  const AttentionOptions&);
template void fused_csr_attention(const Matrix<half_t>&, const Matrix<half_t>&,
                                  const Matrix<half_t>&, const ComposedMask&, Matrix<half_t>&,
                                  const AttentionOptions&);

}  // namespace gpa
