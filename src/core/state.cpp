#include "core/state.hpp"

#include <limits>

#include "common/error.hpp"

namespace gpa {

void SoftmaxState::reset(Index seq_len, Index head_dim) {
  GPA_CHECK(seq_len >= 0 && head_dim >= 0, "state extents must be non-negative");
  acc_ = Matrix<float>(seq_len, head_dim);  // value-initialised: already zero
  m_.assign(static_cast<std::size_t>(seq_len), -std::numeric_limits<float>::infinity());
  l_.assign(static_cast<std::size_t>(seq_len), 0.0f);
}

namespace {
template <typename T>
void finalize_impl(const Matrix<float>& acc, const std::vector<float>& l, Matrix<T>& out) {
  GPA_CHECK(out.rows() == acc.rows() && out.cols() == acc.cols(),
            "finalize: output shape mismatch");
  for (Index i = 0; i < acc.rows(); ++i) {
    const float li = l[static_cast<std::size_t>(i)];
    const float inv = li > 0.0f ? 1.0f / li : 0.0f;
    const float* src = acc.row(i);
    T* dst = out.row(i);
    for (Index j = 0; j < acc.cols(); ++j) dst[j] = T(src[j] * inv);
  }
}
}  // namespace

void SoftmaxState::finalize_into(Matrix<float>& out) const { finalize_impl(acc_, l_, out); }
void SoftmaxState::finalize_into(Matrix<half_t>& out) const { finalize_impl(acc_, l_, out); }

}  // namespace gpa
