#include "core/graph_attention.hpp"
#include "core/kernel_common.hpp"
#include "core/traversal.hpp"

namespace gpa {

template <typename T>
void coo_attention_accumulate(const Matrix<T>& q, const Matrix<T>& k, const Matrix<T>& v,
                              const Coo<float>& mask, SoftmaxState& state,
                              const AttentionOptions& opts) {
  GPA_CHECK(mask.rows == q.rows() && mask.cols == k.rows(), "COO mask shape mismatch");
  const MaskTraversal tr = MaskTraversal::over(mask, opts.coo_search);
  detail::run_rows(q, k, v, opts, state, tr);
}

template <typename T>
void coo_attention(const Matrix<T>& q, const Matrix<T>& k, const Matrix<T>& v,
                   const Coo<float>& mask, Matrix<T>& out, const AttentionOptions& opts) {
  SoftmaxState state(q.rows(), v.cols());
  coo_attention_accumulate(q, k, v, mask, state, opts);
  state.finalize_into(out);
}

template void coo_attention_accumulate(const Matrix<float>&, const Matrix<float>&,
                                       const Matrix<float>&, const Coo<float>&, SoftmaxState&,
                                       const AttentionOptions&);
template void coo_attention_accumulate(const Matrix<half_t>&, const Matrix<half_t>&,
                                       const Matrix<half_t>&, const Coo<float>&, SoftmaxState&,
                                       const AttentionOptions&);
template void coo_attention(const Matrix<float>&, const Matrix<float>&, const Matrix<float>&,
                            const Coo<float>&, Matrix<float>&, const AttentionOptions&);
template void coo_attention(const Matrix<half_t>&, const Matrix<half_t>&, const Matrix<half_t>&,
                            const Coo<float>&, Matrix<half_t>&, const AttentionOptions&);

}  // namespace gpa
