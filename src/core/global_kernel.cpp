#include "core/graph_attention.hpp"
#include "core/kernel_common.hpp"
#include "core/traversal.hpp"

namespace gpa {

template <typename T>
void global_attention_accumulate(const Matrix<T>& q, const Matrix<T>& k, const Matrix<T>& v,
                                 const GlobalMinusLocalParams& p, SoftmaxState& state,
                                 const AttentionOptions& opts) {
  const Index seq_len = q.rows();
  for (const Index t : p.global.tokens) {
    GPA_CHECK(t >= 0 && t < seq_len, "global token index out of range");
  }
  const MaskTraversal tr = MaskTraversal::global(p);  // validates the window
  detail::run_rows(q, k, v, opts, state, tr);
}

template <typename T>
void global_attention(const Matrix<T>& q, const Matrix<T>& k, const Matrix<T>& v,
                      const GlobalMinusLocalParams& p, Matrix<T>& out,
                      const AttentionOptions& opts) {
  SoftmaxState state(q.rows(), v.cols());
  global_attention_accumulate(q, k, v, p, state, opts);
  state.finalize_into(out);
}

template void global_attention_accumulate(const Matrix<float>&, const Matrix<float>&,
                                          const Matrix<float>&, const GlobalMinusLocalParams&,
                                          SoftmaxState&, const AttentionOptions&);
template void global_attention_accumulate(const Matrix<half_t>&, const Matrix<half_t>&,
                                          const Matrix<half_t>&, const GlobalMinusLocalParams&,
                                          SoftmaxState&, const AttentionOptions&);
template void global_attention(const Matrix<float>&, const Matrix<float>&,
                               const Matrix<float>&, const GlobalMinusLocalParams&,
                               Matrix<float>&, const AttentionOptions&);
template void global_attention(const Matrix<half_t>&, const Matrix<half_t>&,
                               const Matrix<half_t>&, const GlobalMinusLocalParams&,
                               Matrix<half_t>&, const AttentionOptions&);

}  // namespace gpa
