#include "core/graph_attention.hpp"
#include "core/kernel_common.hpp"
#include "core/traversal.hpp"

namespace gpa {

template <typename T>
void csr_attention_accumulate(const Matrix<T>& q, const Matrix<T>& k, const Matrix<T>& v,
                              const Csr<float>& mask, SoftmaxState& state,
                              const AttentionOptions& opts) {
  GPA_CHECK(mask.rows == q.rows() && mask.cols == k.rows(), "CSR mask shape mismatch");
  const MaskTraversal tr = MaskTraversal::over(mask);
  detail::run_rows(q, k, v, opts, state, tr);
}

template <typename T>
void csr_attention(const Matrix<T>& q, const Matrix<T>& k, const Matrix<T>& v,
                   const Csr<float>& mask, Matrix<T>& out, const AttentionOptions& opts) {
  SoftmaxState state(q.rows(), v.cols());
  csr_attention_accumulate(q, k, v, mask, state, opts);
  state.finalize_into(out);
}

template void csr_attention_accumulate(const Matrix<float>&, const Matrix<float>&,
                                       const Matrix<float>&, const Csr<float>&, SoftmaxState&,
                                       const AttentionOptions&);
template void csr_attention_accumulate(const Matrix<half_t>&, const Matrix<half_t>&,
                                       const Matrix<half_t>&, const Csr<float>&, SoftmaxState&,
                                       const AttentionOptions&);
template void csr_attention(const Matrix<float>&, const Matrix<float>&, const Matrix<float>&,
                            const Csr<float>&, Matrix<float>&, const AttentionOptions&);
template void csr_attention(const Matrix<half_t>&, const Matrix<half_t>&, const Matrix<half_t>&,
                            const Csr<float>&, Matrix<half_t>&, const AttentionOptions&);

}  // namespace gpa
