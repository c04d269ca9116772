// Tests for the comparison baselines: masked SDP and FlashAttention-style
// tiled attention, each against the exact reference.

#include <gtest/gtest.h>

#include <tuple>

#include "baselines/flash_attention.hpp"
#include "baselines/reference_attention.hpp"
#include "baselines/sdp_masked.hpp"
#include "common/rng.hpp"
#include "sparse/build.hpp"
#include "tensor/tensor_ops.hpp"

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

class SdpVsReference : public ::testing::TestWithParam<double> {};

TEST_P(SdpVsReference, MatchesAtAllSparsities) {
  const Index L = 96, d = 24;
  const auto in = make_inputs(L, d, 400);
  const auto mask = build_csr_random(L, RandomParams{GetParam(), 21});
  Matrix<float> expected(L, d), got(L, d);
  baselines::reference_attention(in.q, in.k, in.v, mask, expected);
  baselines::sdp_masked_attention(in.q, in.k, in.v, mask, got);
  const auto rep = allclose(got, expected, 1e-5, 1e-6);
  EXPECT_TRUE(rep.all_close) << "Sf=" << GetParam() << " diff " << rep.max_abs_diff;
}

INSTANTIATE_TEST_SUITE_P(Sparsities, SdpVsReference,
                         ::testing::Values(0.01, 0.1, 0.5, 1.0));

TEST(SdpTest, FullyMaskedRowsAreZero) {
  const Index L = 32, d = 8;
  const auto in = make_inputs(L, d, 401);
  Matrix<std::uint8_t> mask(L, L);
  mask.zero();
  for (Index j = 0; j < L; ++j) mask(0, j) = 1;  // only row 0 attends
  Matrix<float> out(L, d);
  baselines::sdp_masked_attention(in.q, in.k, in.v, mask, out);
  for (Index j = 0; j < d; ++j) EXPECT_NE(out(0, j), 0.0f);
  for (Index i = 1; i < L; ++i) {
    for (Index j = 0; j < d; ++j) EXPECT_EQ(out(i, j), 0.0f);
  }
}

class FlashTileSweep : public ::testing::TestWithParam<Index> {};

TEST_P(FlashTileSweep, MatchesDenseReferenceForAnyTileWidth) {
  const Index L = 128, d = 32;
  const auto in = make_inputs(L, d, 402);
  Matrix<float> expected(L, d), got(L, d);
  baselines::reference_attention_dense(in.q, in.k, in.v, expected);
  baselines::FlashConfig cfg;
  cfg.tile_cols = GetParam();
  baselines::flash_attention(in.q, in.k, in.v, got, {}, cfg);
  const auto rep = allclose(got, expected, 1e-5, 1e-6);
  EXPECT_TRUE(rep.all_close) << "tile=" << GetParam() << " diff " << rep.max_abs_diff;
}

INSTANTIATE_TEST_SUITE_P(TileWidths, FlashTileSweep,
                         ::testing::Values<Index>(1, 16, 64, 127, 128, 200));

TEST(FlashTest, HalfPrecisionStorage) {
  const Index L = 64, d = 16;
  const auto in = make_inputs(L, d, 403);
  Matrix<float> expected(L, d);
  baselines::reference_attention_dense(in.q, in.k, in.v, expected);
  Matrix<half_t> got_h(L, d);
  baselines::flash_attention(to_f16(in.q), to_f16(in.k), to_f16(in.v), got_h);
  const auto rep = allclose(to_f32(got_h), expected, 5e-3, 5e-3);
  EXPECT_TRUE(rep.all_close) << rep.max_abs_diff;
}

TEST(FlashTest, AgreesWithSdpOnDenseMask) {
  const Index L = 80, d = 16;
  const auto in = make_inputs(L, d, 404);
  Matrix<std::uint8_t> ones(L, L);
  ones.fill(1);
  Matrix<float> sdp(L, d), flash(L, d);
  baselines::sdp_masked_attention(in.q, in.k, in.v, ones, sdp);
  baselines::flash_attention(in.q, in.k, in.v, flash);
  EXPECT_TRUE(allclose(flash, sdp, 1e-5, 1e-6).all_close);
}

}  // namespace
}  // namespace gpa
