#pragma once
// Softmax primitives.
//
// Two flavours live here:
//  * the classic two-pass numerically stable row softmax used by the
//    masked-SDP baseline, and
//  * the online (single-pass) normaliser of Milakov & Gimelshein that
//    Algorithm 1 and FlashAttention build on: a running maximum `m` and
//    running denominator `l` folded a tile of scores at a time.

#include <cmath>
#include <limits>

#include "simd/simd.hpp"
#include "tensor/matrix.hpp"

namespace gpa {

/// In-place numerically stable softmax over each row. Rows whose maximum
/// is -inf (fully masked) become all-zero rows rather than NaN: that is
/// what every graph kernel's finalize gives a row with no edges (l = 0),
/// so the masked-SDP baseline and the kernels compare equal on such
/// rows. The convention is enforced on both SIMD dispatch arms
/// (the vector max-reduction seeds dead tail lanes with -inf, so an
/// all-masked row cannot pick up a spurious 0 maximum).
/// The max / sum / rescale passes go through the dispatched vector ops;
/// exp stays element-wise scalar (identical libm call on both arms).
void softmax_rows(Matrix<float>& scores, SimdLevel level = SimdLevel::Auto);

/// Online softmax state of a single output row: the running max m and
/// denominator l of Algorithm 1; the (unnormalised) accumulator lives
/// with the caller. Graph attention folds into it through
/// detail::RowFold (core/kernel_common.hpp), flash attention through
/// online_softmax_fold_tile below.
struct OnlineSoftmaxRow {
  float m = -std::numeric_limits<float>::infinity();
  float l = 0.0f;

  /// Normaliser to apply to the accumulator at the end (0 for an empty
  /// row, which zeroes the output).
  float inv_l() const noexcept { return l > 0.0f ? 1.0f / l : 0.0f; }
};

/// Batched fold of one tile of `n` precomputed scores into an
/// online-softmax row state, with one max update. On return `scores[0..n)` holds the unnormalised tile
/// probabilities exp(s_j - m_new) and the returned alpha is the rescale
/// coefficient for the caller's accumulator (1 when the running max did
/// not move). A tile that leaves the row's maximum at -inf (fully
/// masked so far) zeroes the probabilities and leaves (m, l) untouched
/// instead of computing exp(-inf − -inf) = NaN.
float online_softmax_fold_tile(OnlineSoftmaxRow& osr, float* scores, Index n,
                               const simd::VecOps& vo) noexcept;

/// Merge of two online-softmax states over disjoint edge sets:
/// returns coefficients to combine the two unnormalised accumulators.
struct MergedState {
  float m;
  float l;
  float coeff_a;  // multiply accumulator A by this
  float coeff_b;  // multiply accumulator B by this
};
MergedState merge_online_states(float m_a, float l_a, float m_b, float l_b) noexcept;

}  // namespace gpa
