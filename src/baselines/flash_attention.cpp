#include "baselines/flash_attention.hpp"

#include <algorithm>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "core/kernel_common.hpp"
#include "parallel/parallel_for.hpp"
#include "simd/simd.hpp"
#include "tensor/softmax.hpp"

namespace gpa::baselines {

template <typename T>
void flash_attention(const Matrix<T>& q, const Matrix<T>& k, const Matrix<T>& v,
                     Matrix<T>& out, const AttentionOptions& opts, const FlashConfig& cfg) {
  const Index L = q.rows();
  const Index d = q.cols();
  GPA_CHECK(k.rows() == L && v.rows() == L, "flash: sequence length mismatch");
  GPA_CHECK(k.cols() == d && v.cols() == d, "flash: head dimension mismatch");
  GPA_CHECK(out.rows() == L && out.cols() == d, "flash: output shape mismatch");
  GPA_CHECK(cfg.tile_cols >= 1, "flash: tile width must be >= 1");
  const float scale = gpa::detail::resolve_scale(opts.scale, d);
  const Index bc = cfg.tile_cols;
  const simd::VecOps& vo = simd::ops(opts.policy.simd);

  const std::int64_t work = (opts.causal ? L * (L + 1) / 2 : L * L) * d;
  parallel_for_chunks(0, L, opts.policy, work, [&](Index row_lo, Index row_hi) {
    // Per-worker scratch: one tile of scores for one query row.
    std::vector<float> s_tile(static_cast<std::size_t>(bc));
    std::vector<float> acc(static_cast<std::size_t>(d));

    for (Index i = row_lo; i < row_hi; ++i) {
      const T* qi = q.row(i);
      OnlineSoftmaxRow osr;
      for (Index p = 0; p < d; ++p) acc[static_cast<std::size_t>(p)] = 0.0f;

      // Causal attention skips whole tiles beyond the diagonal and clips
      // the diagonal tile — the standard flash causal optimisation.
      const Index row_limit = opts.causal ? i + 1 : L;
      for (Index j0 = 0; j0 < row_limit; j0 += bc) {
        const Index j1 = std::min(j0 + bc < L ? j0 + bc : L, row_limit);
        const Index count = j1 - j0;

        // Scores for this tile (vector dot on the float path; half
        // storage keeps the scalar convert-and-accumulate loop).
        for (Index j = j0; j < j1; ++j) {
          float w;
          if constexpr (std::is_same_v<T, float>) {
            w = vo.dot(qi, k.row(j), d);
          } else {
            const T* kj = k.row(j);
            w = 0.0f;
            for (Index p = 0; p < d; ++p) {
              w += static_cast<float>(qi[p]) * static_cast<float>(kj[p]);
            }
          }
          s_tile[static_cast<std::size_t>(j - j0)] = w * scale;
        }

        // Online-softmax merge of the tile into the running state:
        // s_tile becomes the unnormalised probabilities, alpha rescales
        // the accumulator when the running max moved.
        const float alpha = online_softmax_fold_tile(osr, s_tile.data(), count, vo);
        if (alpha != 1.0f) vo.scale(acc.data(), alpha, d);
        for (Index j = j0; j < j1; ++j) {
          const float pj = s_tile[static_cast<std::size_t>(j - j0)];
          if constexpr (std::is_same_v<T, float>) {
            vo.axpy(acc.data(), pj, v.row(j), d);
          } else {
            const T* vj = v.row(j);
            for (Index p = 0; p < d; ++p) {
              acc[static_cast<std::size_t>(p)] += pj * static_cast<float>(vj[p]);
            }
          }
        }
      }

      const float inv = osr.inv_l();
      T* oi = out.row(i);
      for (Index p = 0; p < d; ++p) oi[p] = T(acc[static_cast<std::size_t>(p)] * inv);
    }
  });
}

template void flash_attention(const Matrix<float>&, const Matrix<float>&, const Matrix<float>&,
                              Matrix<float>&, const AttentionOptions&, const FlashConfig&);
template void flash_attention(const Matrix<half_t>&, const Matrix<half_t>&,
                              const Matrix<half_t>&, Matrix<half_t>&, const AttentionOptions&,
                              const FlashConfig&);

}  // namespace gpa::baselines
