#include "core/graph_attention.hpp"
#include "core/kernel_common.hpp"
#include "core/traversal.hpp"

namespace gpa {

template <typename T>
void dilated1d_attention_accumulate(const Matrix<T>& q, const Matrix<T>& k, const Matrix<T>& v,
                                    const Dilated1DParams& p, SoftmaxState& state,
                                    const AttentionOptions& opts) {
  const MaskTraversal tr = MaskTraversal::dilated1d(p);  // validates (w, r)
  detail::run_rows(q, k, v, opts, state, tr);
}

template <typename T>
void dilated1d_attention(const Matrix<T>& q, const Matrix<T>& k, const Matrix<T>& v,
                         const Dilated1DParams& p, Matrix<T>& out,
                         const AttentionOptions& opts) {
  SoftmaxState state(q.rows(), v.cols());
  dilated1d_attention_accumulate(q, k, v, p, state, opts);
  state.finalize_into(out);
}

template void dilated1d_attention_accumulate(const Matrix<float>&, const Matrix<float>&,
                                             const Matrix<float>&, const Dilated1DParams&,
                                             SoftmaxState&, const AttentionOptions&);
template void dilated1d_attention_accumulate(const Matrix<half_t>&, const Matrix<half_t>&,
                                             const Matrix<half_t>&, const Dilated1DParams&,
                                             SoftmaxState&, const AttentionOptions&);
template void dilated1d_attention(const Matrix<float>&, const Matrix<float>&,
                                  const Matrix<float>&, const Dilated1DParams&, Matrix<float>&,
                                  const AttentionOptions&);
template void dilated1d_attention(const Matrix<half_t>&, const Matrix<half_t>&,
                                  const Matrix<half_t>&, const Dilated1DParams&,
                                  Matrix<half_t>&, const AttentionOptions&);

}  // namespace gpa
