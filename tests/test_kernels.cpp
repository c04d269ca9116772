// Correctness of the six graph-processing kernels against the exact
// dense reference across mask patterns, sequence lengths, head
// dimensions, storage types, and SIMD dispatch arms — the heart of the
// verification story.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "baselines/reference_attention.hpp"
#include "common/rng.hpp"
#include "core/composed.hpp"
#include "core/graph_attention.hpp"
#include "simd/simd.hpp"
#include "sparse/build.hpp"
#include "sparse/compose.hpp"
#include "sparse/presets.hpp"
#include "tensor/tensor_ops.hpp"
#include "tile_cases.hpp"

namespace gpa {
namespace {

struct Inputs {
  Matrix<float> q, k, v;
};

Inputs make_inputs(Index L, Index d, std::uint64_t seed) {
  Inputs in{Matrix<float>(L, d), Matrix<float>(L, d), Matrix<float>(L, d)};
  Rng rng(seed);
  fill_uniform(in.q, rng);
  fill_uniform(in.k, rng);
  fill_uniform(in.v, rng);
  return in;
}

// The paper's allclose tolerances (§V-A). Single-precision accumulation
// differs from the double-precision oracle by more than atol=1e-8 on
// long rows, so an fp32-appropriate bound is used here; the exact
// paper protocol lives in test_verification_protocol.cpp.
constexpr double kRtol = 1e-5;
constexpr double kAtol = 1e-6;

/// The SIMD axis of the verification matrix: the scalar arm always, plus
/// every vector arm this build + CPU can run.
const std::vector<SimdLevel>& simd_axis() {
  static const std::vector<SimdLevel> levels = simd::available_levels();
  return levels;
}

class KernelVsReference : public ::testing::TestWithParam<std::tuple<Index, Index>> {};

TEST_P(KernelVsReference, CsrArbitraryMask) {
  const auto [L, d] = GetParam();
  const auto in = make_inputs(L, d, 101);
  const auto mask = build_csr_random(L, RandomParams{0.15, 5});
  Matrix<float> expected(L, d), got(L, d);
  baselines::reference_attention(in.q, in.k, in.v, mask, expected);
  for (const SimdLevel level : simd_axis()) {
    SCOPED_TRACE(simd::level_name(level));
    AttentionOptions opts;
    opts.policy.simd = level;
    csr_attention(in.q, in.k, in.v, mask, got, opts);
    const auto rep = allclose(got, expected, kRtol, kAtol);
    EXPECT_TRUE(rep.all_close) << "max diff " << rep.max_abs_diff;
  }
}

TEST_P(KernelVsReference, CooArbitraryMaskBothSearches) {
  const auto [L, d] = GetParam();
  const auto in = make_inputs(L, d, 102);
  const auto csr = build_csr_random(L, RandomParams{0.2, 6});
  const auto coo = csr_to_coo(csr);
  Matrix<float> expected(L, d);
  baselines::reference_attention(in.q, in.k, in.v, csr, expected);
  for (const SimdLevel level : simd_axis()) {
    for (const CooSearch search : {CooSearch::Linear, CooSearch::Binary}) {
      AttentionOptions opts;
      opts.coo_search = search;
      opts.policy.simd = level;
      Matrix<float> got(L, d);
      coo_attention(in.q, in.k, in.v, coo, got, opts);
      const auto rep = allclose(got, expected, kRtol, kAtol);
      EXPECT_TRUE(rep.all_close) << simd::level_name(level) << " search="
                                 << static_cast<int>(search) << " diff " << rep.max_abs_diff;
    }
  }
}

TEST_P(KernelVsReference, LocalWindow) {
  const auto [L, d] = GetParam();
  const auto in = make_inputs(L, d, 103);
  const LocalParams p{5};
  Matrix<float> expected(L, d), got(L, d);
  baselines::reference_attention(in.q, in.k, in.v, build_csr_local(L, p), expected);
  for (const SimdLevel level : simd_axis()) {
    SCOPED_TRACE(simd::level_name(level));
    AttentionOptions opts;
    opts.policy.simd = level;
    local_attention(in.q, in.k, in.v, p, got, opts);
    const auto rep = allclose(got, expected, kRtol, kAtol);
    EXPECT_TRUE(rep.all_close) << "max diff " << rep.max_abs_diff;
  }
}

TEST_P(KernelVsReference, Dilated1D) {
  const auto [L, d] = GetParam();
  const auto in = make_inputs(L, d, 104);
  const Dilated1DParams p{9, 2};
  Matrix<float> expected(L, d), got(L, d);
  baselines::reference_attention(in.q, in.k, in.v, build_csr_dilated1d(L, p), expected);
  for (const SimdLevel level : simd_axis()) {
    SCOPED_TRACE(simd::level_name(level));
    AttentionOptions opts;
    opts.policy.simd = level;
    dilated1d_attention(in.q, in.k, in.v, p, got, opts);
    const auto rep = allclose(got, expected, kRtol, kAtol);
    EXPECT_TRUE(rep.all_close) << "max diff " << rep.max_abs_diff;
  }
}

TEST_P(KernelVsReference, Dilated2D) {
  const auto [L, d] = GetParam();
  if (L % 8 != 0) GTEST_SKIP() << "2D pattern requires b | L";
  const auto in = make_inputs(L, d, 105);
  const auto p = make_dilated2d(L, 8, 1);
  Matrix<float> expected(L, d), got(L, d);
  baselines::reference_attention(in.q, in.k, in.v, build_csr_dilated2d(p), expected);
  for (const SimdLevel level : simd_axis()) {
    SCOPED_TRACE(simd::level_name(level));
    AttentionOptions opts;
    opts.policy.simd = level;
    dilated2d_attention(in.q, in.k, in.v, p, got, opts);
    const auto rep = allclose(got, expected, kRtol, kAtol);
    EXPECT_TRUE(rep.all_close) << "max diff " << rep.max_abs_diff;
  }
}

TEST_P(KernelVsReference, GlobalMinusLocal) {
  const auto [L, d] = GetParam();
  const auto in = make_inputs(L, d, 106);
  GlobalMinusLocalParams p;
  p.global = make_global({0, L / 2}, L);
  p.local = make_local(3);
  const auto mask =
      build_csr_from_predicate(L, [&](Index i, Index j) { return p.contains(i, j); });
  Matrix<float> expected(L, d), got(L, d);
  baselines::reference_attention(in.q, in.k, in.v, mask, expected);
  for (const SimdLevel level : simd_axis()) {
    SCOPED_TRACE(simd::level_name(level));
    AttentionOptions opts;
    opts.policy.simd = level;
    global_attention(in.q, in.k, in.v, p, got, opts);
    const auto rep = allclose(got, expected, kRtol, kAtol);
    EXPECT_TRUE(rep.all_close) << "max diff " << rep.max_abs_diff;
  }
}

INSTANTIATE_TEST_SUITE_P(ShapeSweep, KernelVsReference,
                         ::testing::Values(std::make_tuple<Index, Index>(16, 8),
                                           std::make_tuple<Index, Index>(64, 32),
                                           std::make_tuple<Index, Index>(128, 16),
                                           std::make_tuple<Index, Index>(96, 64),
                                           std::make_tuple<Index, Index>(256, 32)));

TEST(KernelEdgeCases, EmptyMaskProducesZeroOutput) {
  const auto in = make_inputs(32, 8, 107);
  Csr<float> empty;
  empty.rows = empty.cols = 32;
  empty.row_offsets.assign(33, 0);
  Matrix<float> got(32, 8);
  got.fill(7.0f);  // poison
  csr_attention(in.q, in.k, in.v, empty, got);
  for (Index i = 0; i < 32; ++i) {
    for (Index j = 0; j < 8; ++j) EXPECT_EQ(got(i, j), 0.0f);
  }
}

TEST(KernelEdgeCases, SingleTokenSequence) {
  const auto in = make_inputs(1, 4, 108);
  Matrix<float> got(1, 4);
  local_attention(in.q, in.k, in.v, LocalParams{1}, got);
  // Attention over {self} returns V[0] exactly.
  for (Index j = 0; j < 4; ++j) EXPECT_NEAR(got(0, j), in.v(0, 0 + j), 1e-6f);
}

TEST(KernelEdgeCases, FullWindowEqualsDenseAttention) {
  const Index L = 48, d = 16;
  const auto in = make_inputs(L, d, 109);
  Matrix<float> expected(L, d), got(L, d);
  baselines::reference_attention_dense(in.q, in.k, in.v, expected);
  local_attention(in.q, in.k, in.v, LocalParams{L}, got);
  const auto rep = allclose(got, expected, kRtol, kAtol);
  EXPECT_TRUE(rep.all_close) << rep.max_abs_diff;
}

TEST(KernelEdgeCases, CustomScaleHonored) {
  const Index L = 24, d = 8;
  const auto in = make_inputs(L, d, 110);
  const auto mask = build_csr_local(L, LocalParams{4});
  AttentionOptions opts;
  opts.scale = 0.25f;
  Matrix<float> expected(L, d), got(L, d);
  baselines::reference_attention(in.q, in.k, in.v, mask, expected, 0.25f);
  csr_attention(in.q, in.k, in.v, mask, got, opts);
  EXPECT_TRUE(allclose(got, expected, kRtol, kAtol).all_close);
}

TEST(KernelEdgeCases, ShapeMismatchThrows) {
  const auto in = make_inputs(16, 8, 111);
  const auto mask = build_csr_local(8, LocalParams{2});  // wrong L
  Matrix<float> out(16, 8);
  EXPECT_THROW(csr_attention(in.q, in.k, in.v, mask, out), InvalidArgument);
}

TEST(KernelParallelism, ResultsIdenticalAcrossThreadCounts) {
  const Index L = 128, d = 32;
  const auto in = make_inputs(L, d, 112);
  const auto mask = build_csr_random(L, RandomParams{0.1, 9});
  Matrix<float> serial(L, d);
  AttentionOptions o1;
  o1.policy = ExecPolicy::serial();
  csr_attention(in.q, in.k, in.v, mask, serial, o1);
  for (const int threads : {2, 4, 8}) {
    for (const Schedule sched : {Schedule::Static, Schedule::Dynamic}) {
      AttentionOptions on;
      on.policy = ExecPolicy{threads, 16, sched};
      Matrix<float> par(L, d);
      csr_attention(in.q, in.k, in.v, mask, par, on);
      // Row-parallelism does not change per-row arithmetic: bitwise equal.
      EXPECT_EQ(max_abs_diff(par, serial), 0.0) << threads << " threads";
    }
  }
}

TEST(KernelF16, CsrHalfPrecisionStorageStaysClose) {
  const Index L = 64, d = 32;
  const auto in = make_inputs(L, d, 113);
  const auto mask = build_csr_random(L, RandomParams{0.2, 10});
  Matrix<float> expected(L, d);
  baselines::reference_attention(in.q, in.k, in.v, mask, expected);

  const auto qh = to_f16(in.q), kh = to_f16(in.k), vh = to_f16(in.v);
  Matrix<half_t> got_h(L, d);
  csr_attention(qh, kh, vh, mask, got_h);
  const auto got = to_f32(got_h);
  // fp16 storage: relative error ~2^-10.
  const auto rep = allclose(got, expected, 5e-3, 5e-3);
  EXPECT_TRUE(rep.all_close) << "max diff " << rep.max_abs_diff;
}

TEST(KernelF16, LocalHalfPrecisionStorageStaysClose) {
  const Index L = 64, d = 16;
  const auto in = make_inputs(L, d, 114);
  Matrix<float> expected(L, d);
  baselines::reference_attention(in.q, in.k, in.v, build_csr_local(L, LocalParams{6}), expected);
  Matrix<half_t> got_h(L, d);
  local_attention(to_f16(in.q), to_f16(in.k), to_f16(in.v), LocalParams{6}, got_h);
  const auto rep = allclose(to_f32(got_h), expected, 5e-3, 5e-3);
  EXPECT_TRUE(rep.all_close) << "max diff " << rep.max_abs_diff;
}

TEST(KernelWeightedMask, MaskValuesScaleScores) {
  const Index L = 16, d = 8;
  const auto in = make_inputs(L, d, 115);
  auto mask = build_csr_local(L, LocalParams{3});
  for (auto& v : mask.values) v = 0.5f;  // uniform down-weighting
  AttentionOptions opts;
  opts.use_mask_values = true;
  Matrix<float> got(L, d);
  csr_attention(in.q, in.k, in.v, mask, got, opts);
  // Equivalent to halving the scale.
  AttentionOptions half_scale;
  half_scale.scale = 0.5f / std::sqrt(static_cast<float>(d));
  Matrix<float> expected(L, d);
  auto plain = build_csr_local(L, LocalParams{3});
  csr_attention(in.q, in.k, in.v, plain, expected, half_scale);
  EXPECT_TRUE(allclose(got, expected, 1e-6, 1e-7).all_close);
}

// --- Tile boundaries of the row fold -----------------------------------
// The fold buffers simd::kTile edges per fold_tile call and flushes the
// remainder at the end of each row's enumeration, so rows of degree 0,
// 1, 15, 16, 17 and 33 put every tile-edge case in one mask.

/// Double-precision oracle for a gated CSR row fold: softmax over the
/// row's edges of scale·gate·(q·k), zero for an empty row.
Matrix<float> gated_reference(const Inputs& in, const Csr<float>& mask, float scale) {
  const Index L = in.q.rows(), d = in.q.cols();
  Matrix<float> out(L, d);
  for (Index i = 0; i < L; ++i) {
    std::vector<double> w;
    double mx = -INFINITY;
    for (Index kk = mask.row_begin(i); kk < mask.row_end(i); ++kk) {
      const Index j = mask.col_idx[static_cast<std::size_t>(kk)];
      double dot = 0.0;
      for (Index x = 0; x < d; ++x) dot += static_cast<double>(in.q(i, x)) * in.k(j, x);
      w.push_back(dot * scale * mask.values[static_cast<std::size_t>(kk)]);
      mx = std::max(mx, w.back());
    }
    double l = 0.0;
    std::vector<double> acc(static_cast<std::size_t>(d), 0.0);
    for (Index kk = mask.row_begin(i), t = 0; kk < mask.row_end(i); ++kk, ++t) {
      const double p = std::exp(w[static_cast<std::size_t>(t)] - mx);
      l += p;
      const Index j = mask.col_idx[static_cast<std::size_t>(kk)];
      for (Index x = 0; x < d; ++x) acc[static_cast<std::size_t>(x)] += p * in.v(j, x);
    }
    for (Index x = 0; x < d; ++x) {
      out(i, x) = l > 0.0 ? static_cast<float>(acc[static_cast<std::size_t>(x)] / l) : 0.0f;
    }
  }
  return out;
}

TEST(KernelTileBoundaries, LadderRowsMatchReferenceOnEveryArm) {
  const Index L = 72;
  const auto mask = test::tile_ladder_mask(L);
  const auto coo = csr_to_coo(mask);
  for (const Index d : {Index{16}, Index{64}, Index{67}}) {
    const auto in = make_inputs(L, d, 130 + static_cast<std::uint64_t>(d));
    const float scale = 1.0f / std::sqrt(static_cast<float>(d));
    Matrix<float> plain_ref(L, d);
    baselines::reference_attention(in.q, in.k, in.v, mask, plain_ref);
    const Matrix<float> gated_ref = gated_reference(in, mask, scale);
    for (const SimdLevel level : simd_axis()) {
      for (const bool gated : {false, true}) {
        SCOPED_TRACE(testing::Message() << "d=" << d << " level=" << simd::level_name(level)
                                        << " gated=" << gated);
        AttentionOptions opts;
        opts.policy.simd = level;
        opts.use_mask_values = gated;
        Matrix<float> got(L, d), via_coo(L, d);
        got.fill(7.0f);  // poison: empty rows must be written as zeros
        csr_attention(in.q, in.k, in.v, mask, got, opts);
        const auto rep = allclose(got, gated ? gated_ref : plain_ref, kRtol, kAtol);
        EXPECT_TRUE(rep.all_close) << "max diff " << rep.max_abs_diff;
        for (Index i = 0; i < L; i += static_cast<Index>(test::tile_ladder().size())) {
          for (Index x = 0; x < d; ++x) ASSERT_EQ(got(i, x), 0.0f) << "empty row " << i;
        }
        // Same edges in the same order: the same tiles, bit for bit.
        coo_attention(in.q, in.k, in.v, coo, via_coo, opts);
        EXPECT_EQ(max_abs_diff(got, via_coo), 0.0);
      }
    }
  }
}

TEST(KernelTileBoundaries, ComposedLongformerTileSpansLocalToGlobal) {
  // reach 20: a causal row holds up to 21 local edges, so its second
  // tile starts inside the local window and ends among the globals.
  const Index L = 64, d = 32;
  const ComposedMask lf = make_longformer(L, /*reach=*/20, /*num_global=*/3);
  const auto in = make_inputs(L, d, 140);
  for (const SimdLevel level : simd_axis()) {
    for (const bool causal : {false, true}) {
      SCOPED_TRACE(testing::Message() << "level=" << simd::level_name(level)
                                      << " causal=" << causal);
      AttentionOptions opts;
      opts.policy.simd = level;
      opts.causal = causal;
      Matrix<float> got(L, d), expected(L, d);
      composed_attention(in.q, in.k, in.v, lf, got, opts);
      const Csr<float> union_mask =
          causal ? mask_intersect(lf.fused,
                                  build_csr_from_predicate(L, [](Index i, Index j) { return j <= i; }))
                 : lf.fused;
      baselines::reference_attention(in.q, in.k, in.v, union_mask, expected);
      const auto rep = allclose(got, expected, kRtol, kAtol);
      EXPECT_TRUE(rep.all_close) << "max diff " << rep.max_abs_diff;
    }
  }
}

}  // namespace
}  // namespace gpa
