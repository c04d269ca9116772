#include "core/graph_attention.hpp"
#include "core/kernel_common.hpp"
#include "core/traversal.hpp"

namespace gpa {

template <typename T>
void local_attention_accumulate(const Matrix<T>& q, const Matrix<T>& k, const Matrix<T>& v,
                                const LocalParams& p, SoftmaxState& state,
                                const AttentionOptions& opts) {
  const MaskTraversal tr = MaskTraversal::local(p);  // validates the window
  detail::run_rows(q, k, v, opts, state, tr);
}

template <typename T>
void local_attention(const Matrix<T>& q, const Matrix<T>& k, const Matrix<T>& v,
                     const LocalParams& p, Matrix<T>& out, const AttentionOptions& opts) {
  SoftmaxState state(q.rows(), v.cols());
  local_attention_accumulate(q, k, v, p, state, opts);
  state.finalize_into(out);
}

template void local_attention_accumulate(const Matrix<float>&, const Matrix<float>&,
                                         const Matrix<float>&, const LocalParams&,
                                         SoftmaxState&, const AttentionOptions&);
template void local_attention_accumulate(const Matrix<half_t>&, const Matrix<half_t>&,
                                         const Matrix<half_t>&, const LocalParams&,
                                         SoftmaxState&, const AttentionOptions&);
template void local_attention(const Matrix<float>&, const Matrix<float>&, const Matrix<float>&,
                              const LocalParams&, Matrix<float>&, const AttentionOptions&);
template void local_attention(const Matrix<half_t>&, const Matrix<half_t>&,
                              const Matrix<half_t>&, const LocalParams&, Matrix<half_t>&,
                              const AttentionOptions&);

}  // namespace gpa
