#include "core/graph_attention.hpp"
#include "core/kernel_common.hpp"
#include "core/traversal.hpp"

namespace gpa {

template <typename T>
void dilated2d_attention_accumulate(const Matrix<T>& q, const Matrix<T>& k, const Matrix<T>& v,
                                    const Dilated2DParams& p, SoftmaxState& state,
                                    const AttentionOptions& opts) {
  GPA_CHECK(p.seq_len == q.rows(), "Dilated2DParams.seq_len must equal the input length");
  const MaskTraversal tr = MaskTraversal::dilated2d(p);  // validates (L, b, r)
  detail::run_rows(q, k, v, opts, state, tr);
}

template <typename T>
void dilated2d_attention(const Matrix<T>& q, const Matrix<T>& k, const Matrix<T>& v,
                         const Dilated2DParams& p, Matrix<T>& out,
                         const AttentionOptions& opts) {
  SoftmaxState state(q.rows(), v.cols());
  dilated2d_attention_accumulate(q, k, v, p, state, opts);
  state.finalize_into(out);
}

template void dilated2d_attention_accumulate(const Matrix<float>&, const Matrix<float>&,
                                             const Matrix<float>&, const Dilated2DParams&,
                                             SoftmaxState&, const AttentionOptions&);
template void dilated2d_attention_accumulate(const Matrix<half_t>&, const Matrix<half_t>&,
                                             const Matrix<half_t>&, const Dilated2DParams&,
                                             SoftmaxState&, const AttentionOptions&);
template void dilated2d_attention(const Matrix<float>&, const Matrix<float>&,
                                  const Matrix<float>&, const Dilated2DParams&, Matrix<float>&,
                                  const AttentionOptions&);
template void dilated2d_attention(const Matrix<half_t>&, const Matrix<half_t>&,
                                  const Matrix<half_t>&, const Dilated2DParams&,
                                  Matrix<half_t>&, const AttentionOptions&);

}  // namespace gpa
