#include "tensor/gemm.hpp"

#include "common/error.hpp"
#include "parallel/parallel_for.hpp"
#include "simd/simd.hpp"

namespace gpa {

namespace {
// Tile extents chosen so one A-tile plus one B-tile stay L1-resident.
constexpr Index kTileI = 64;
constexpr Index kTileJ = 64;
}  // namespace

void gemm_nt(const Matrix<float>& a, const Matrix<float>& b, Matrix<float>& c,
             const ExecPolicy& policy) {
  const Index m = a.rows(), k = a.cols(), n = b.rows();
  GPA_CHECK(b.cols() == k, "gemm_nt: inner dimension mismatch");
  GPA_CHECK(c.rows() == m && c.cols() == n, "gemm_nt: output shape mismatch");
  const simd::VecOps& vo = simd::ops(policy.simd);

  parallel_for_chunks(0, m, policy, m * n * k, [&](Index i_lo, Index i_hi) {
    for (Index ii = i_lo; ii < i_hi; ii += kTileI) {
      const Index i_end = ii + kTileI < i_hi ? ii + kTileI : i_hi;
      for (Index jj = 0; jj < n; jj += kTileJ) {
        const Index j_end = jj + kTileJ < n ? jj + kTileJ : n;
        for (Index i = ii; i < i_end; ++i) {
          const float* arow = a.row(i);
          float* crow = c.row(i);
          for (Index j = jj; j < j_end; ++j) {
            crow[j] = vo.dot(arow, b.row(j), k);
          }
        }
      }
    }
  });
}

void gemm_nn(const Matrix<float>& a, const Matrix<float>& b, Matrix<float>& c,
             const ExecPolicy& policy) {
  const Index m = a.rows(), k = a.cols(), n = b.cols();
  GPA_CHECK(b.rows() == k, "gemm_nn: inner dimension mismatch");
  GPA_CHECK(c.rows() == m && c.cols() == n, "gemm_nn: output shape mismatch");
  const simd::VecOps& vo = simd::ops(policy.simd);

  parallel_for_chunks(0, m, policy, m * n * k, [&](Index i_lo, Index i_hi) {
    for (Index i = i_lo; i < i_hi; ++i) {
      const float* arow = a.row(i);
      float* crow = c.row(i);
      for (Index j = 0; j < n; ++j) crow[j] = 0.0f;
      // ikj order: stream through B rows, accumulate into the C row.
      // Deliberately no zero-skipping: the dense baselines must do the
      // full O(L²·d) work regardless of mask sparsity (that flatness vs
      // Sf is the behaviour Fig. 3 / Fig. 6 measure).
      for (Index p = 0; p < k; ++p) {
        vo.axpy(crow, arow[p], b.row(p), n);
      }
    }
  });
}

}  // namespace gpa
