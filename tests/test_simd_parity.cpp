// Differential harness pinning every dispatch arm to the scalar
// reference, by parity class (src/simd/simd.hpp):
//
//  * BITWISE arms (scalar, avx2): bit-identical on every input by the
//    lane contract. Asserted with ULP distance 0 over randomized shapes
//    chosen to stress the lane machinery — head dims 1..67 (every
//    remainder-lane count), fully-masked rows, ±inf score overflow, and
//    denormal magnitudes. The fp16 ops are in this class too: h->f
//    widening is exact, f->h is round-to-nearest-even on every arm.
//
//  * RELAXED arms (avx2-fma, avx512): FMA rounds a·b+c once where the
//    contract rounds twice, and 16 lanes reassociate reductions, so
//    these arms are held to DERIVED error bounds instead of bitwise
//    equality. The bounds come from the standard summation forward-
//    error model: any order of accumulating n rounded products p_i
//    lands within gamma_n·Σ|p_i| of the exact value, gamma_n = n·u
//    (u = 2^-24, first order), so two different orders differ by at
//    most 2·gamma_n·Σ|p_i|. The harness computes that bound per CALL —
//    per reduction length n and per input magnitude profile — plus a
//    tiny absolute slack for the denormal floor where relative bounds
//    vanish. Element-wise FMA updates (axpy) use the two-term analog
//    2u·(|acc| + |beta·v|). The tiled row fold (fold_tile) composes
//    these with the vector exp's pinned ULP bound (fold_tile_bound).
//    reduce_max, scale, h2f, and f2h do no reassociated additions and
//    stay BITWISE across all four arms.
//
// Kernel-level differentials run the same sweep per class: bitwise arms
// at ULP 0..2, relaxed arms under an empirical-but-stable kernel bound
// (each arm is deterministic by construction, so the observed distance
// is a property of the code, not the host — see kRelaxedKernelUlp).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "baselines/flash_attention.hpp"
#include "baselines/sdp_masked.hpp"
#include "common/rng.hpp"
#include "core/graph_attention.hpp"
#include "core/kernel_common.hpp"
#include "core/spmm_attention.hpp"
#include "simd/simd.hpp"
#include "sparse/build.hpp"
#include "tensor/gemm.hpp"
#include "tensor/softmax.hpp"
#include "tensor/tensor_ops.hpp"

namespace gpa {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

bool avx2_arm_available() { return simd::resolve(SimdLevel::Avx2) == SimdLevel::Avx2; }

/// The relaxed arms this build + CPU can actually run (possibly empty —
/// every relaxed test degrades to vacuous-pass on an ISA-lacking host,
/// which is what lets the forced-level CI legs stay green anywhere).
const std::vector<SimdLevel>& relaxed_levels() {
  static const std::vector<SimdLevel> levels = [] {
    std::vector<SimdLevel> out;
    for (const SimdLevel l : simd::available_levels()) {
      if (!simd::is_bitwise_level(l)) out.push_back(l);
    }
    return out;
  }();
  return levels;
}

/// Maps a float onto the integer line so that adjacent representable
/// values differ by 1 (the standard monotone ULP embedding).
std::int64_t ulp_index(float x) {
  std::int32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits >= 0 ? bits : std::int64_t{std::numeric_limits<std::int32_t>::min()} - bits;
}

/// ULP distance with NaN == NaN (both arms must agree on where the
/// convention produces NaN, not on a particular payload).
std::int64_t ulp_diff(float a, float b) {
  if (std::isnan(a) && std::isnan(b)) return 0;
  if (std::isnan(a) != std::isnan(b)) return std::numeric_limits<std::int64_t>::max();
  return std::abs(ulp_index(a) - ulp_index(b));
}

constexpr std::int64_t kMaxUlp = 2;

/// Kernel-level budget for the relaxed arms vs scalar. Score drift is a
/// few ULP (bounded by the summation model over 2·d-term dots), exp()
/// turns that into a matching relative error of each softmax weight,
/// and the normalized output is a convex combination of O(1) V rows —
/// so the observed distance stays small across the whole sweep: the
/// current arms, tiled fold and vector exp included, measure between
/// 5 and 8 ULP. 64 leaves wide headroom; both arms are deterministic by
/// construction, so the measurement is a property of the code, not the
/// host.
constexpr std::int64_t kRelaxedKernelUlp = 64;

/// Unit roundoff of binary32 (2^-24).
constexpr double kU = 5.9604644775390625e-8;
/// Absolute slack absorbing the denormal floor, where relative bounds
/// vanish (~70 denormal ULPs; smallest denormal is 1.4e-45).
constexpr double kDenormSlack = 1e-43;

void expect_matrices_ulp(const Matrix<float>& ref, const Matrix<float>& got,
                         std::int64_t max_ulp, const char* tag) {
  ASSERT_TRUE(ref.same_shape(got));
  for (Index i = 0; i < ref.rows(); ++i) {
    for (Index j = 0; j < ref.cols(); ++j) {
      const std::int64_t d = ulp_diff(ref(i, j), got(i, j));
      ASSERT_LE(d, max_ulp) << tag << " row " << i << " col " << j << ": ref=" << ref(i, j)
                            << " got=" << got(i, j);
    }
  }
}

void expect_matrices_close(const Matrix<float>& scalar, const Matrix<float>& avx2) {
  expect_matrices_ulp(scalar, avx2, kMaxUlp, "bitwise");
}

/// Every remainder-lane count at least twice, plus the paper's d=64.
const std::vector<Index>& head_dims() {
  static const std::vector<Index> dims = {1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11,
                                          12, 13, 14, 15, 16, 17, 31, 32, 33, 48, 63,
                                          64, 65, 66, 67};
  return dims;
}

struct Inputs {
  Matrix<float> q, k, v;
};

Inputs make_inputs(Index L, Index d, std::uint64_t seed, float scale_factor = 1.0f) {
  Inputs in{Matrix<float>(L, d), Matrix<float>(L, d), Matrix<float>(L, d)};
  Rng rng(seed);
  fill_uniform(in.q, rng);
  fill_uniform(in.k, rng);
  fill_uniform(in.v, rng);
  if (scale_factor != 1.0f) {
    for (auto* m : {&in.q, &in.k}) {
      for (Index i = 0; i < L; ++i) {
        float* row = m->row(i);
        for (Index j = 0; j < d; ++j) row[j] *= scale_factor;
      }
    }
  }
  return in;
}

/// Runs `call(opts, out)` under every dispatch arm and compares against
/// scalar: bitwise arms at ≤kMaxUlp, relaxed arms at ≤kRelaxedKernelUlp.
/// `include_relaxed = false` restricts to the bitwise class, for inputs
/// (mixed-sign ±inf overflow) where reassociation changes which infinity
/// a dot lands on and no cross-class bound exists.
template <typename CallFn>
void expect_arm_parity(Index L, Index d, const CallFn& call, bool include_relaxed = true) {
  if (!avx2_arm_available()) GTEST_SKIP() << "AVX2 arm unavailable on this build/CPU";
  Matrix<float> scalar_out(L, d);
  AttentionOptions opts;
  opts.policy = ExecPolicy::serial();
  opts.policy.simd = SimdLevel::Scalar;
  call(opts, scalar_out);
  for (const SimdLevel level : simd::available_levels()) {
    if (level == SimdLevel::Scalar) continue;
    if (!include_relaxed && !simd::is_bitwise_level(level)) continue;
    Matrix<float> arm_out(L, d);
    opts.policy.simd = level;
    call(opts, arm_out);
    const std::int64_t budget = simd::is_bitwise_level(level) ? kMaxUlp : kRelaxedKernelUlp;
    expect_matrices_ulp(scalar_out, arm_out, budget, simd::level_name(level).data());
  }
}

// --- Primitive parity (bitwise: the lane contract itself) --------------

std::vector<float> random_buffer(Index n, std::uint64_t seed, float mul) {
  Matrix<float> m(1, n > 0 ? n : 1);
  Rng rng(seed);
  fill_uniform(m, rng);
  std::vector<float> out(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) out[static_cast<std::size_t>(i)] = (m(0, i) - 0.5f) * mul;
  return out;
}

TEST(SimdPrimitives, AllOpsBitwiseEqualAcrossLengthsAndMagnitudes) {
  if (!avx2_arm_available()) GTEST_SKIP() << "AVX2 arm unavailable on this build/CPU";
  const auto& scalar = simd::ops(SimdLevel::Scalar);
  const auto& avx2 = simd::ops(SimdLevel::Avx2);
  // 1e-40 drives products into the denormal range, 1e20 drives dot
  // accumulations through ±inf overflow.
  for (const float mul : {1.0f, 1e-40f, 1e20f}) {
    for (Index n = 0; n <= 67; ++n) {
      const auto a = random_buffer(n, 900 + static_cast<std::uint64_t>(n), mul);
      const auto b = random_buffer(n, 1900 + static_cast<std::uint64_t>(n), mul);
      SCOPED_TRACE(testing::Message() << "n=" << n << " mul=" << mul);

      EXPECT_EQ(ulp_diff(scalar.dot(a.data(), b.data(), n), avx2.dot(a.data(), b.data(), n)), 0);
      EXPECT_EQ(ulp_diff(scalar.reduce_sum(a.data(), n), avx2.reduce_sum(a.data(), n)), 0);
      EXPECT_EQ(ulp_diff(scalar.reduce_max(a.data(), n), avx2.reduce_max(a.data(), n)), 0);

      auto acc_s = b, acc_v = b;
      scalar.axpy(acc_s.data(), -0.5f, a.data(), n);
      avx2.axpy(acc_v.data(), -0.5f, a.data(), n);
      scalar.scale(acc_s.data(), 3.0f, n);
      avx2.scale(acc_v.data(), 3.0f, n);
      for (Index i = 0; i < n; ++i) {
        EXPECT_EQ(ulp_diff(acc_s[static_cast<std::size_t>(i)], acc_v[static_cast<std::size_t>(i)]), 0);
      }
    }
  }
}

TEST(SimdPrimitives, ReductionIdentitiesOnEmptyInput) {
  for (const SimdLevel level : simd::available_levels()) {
    const auto& vo = simd::ops(level);
    EXPECT_EQ(vo.dot(nullptr, nullptr, 0), 0.0f);
    EXPECT_EQ(vo.reduce_sum(nullptr, 0), 0.0f);
    EXPECT_EQ(vo.reduce_max(nullptr, 0), -kInf);
  }
}

TEST(SimdPrimitives, ReduceMaxSeesTailBeyondFullBlocks) {
  // The maximum hidden in every tail position: a masked-load bug that
  // zeroes dead lanes would miss it (or fabricate a 0 max — the failure
  // mode behind the fully-masked-row regression below). reduce_max is
  // bitwise on every arm, relaxed included, so all arms run here.
  for (const SimdLevel level : simd::available_levels()) {
    const auto& vo = simd::ops(level);
    for (Index n = 1; n <= 24; ++n) {
      std::vector<float> x(static_cast<std::size_t>(n), -5.0f);
      x[static_cast<std::size_t>(n - 1)] = -1.0f;
      EXPECT_EQ(vo.reduce_max(x.data(), n), -1.0f) << "n=" << n;
      std::vector<float> all_masked(static_cast<std::size_t>(n), -kInf);
      EXPECT_EQ(vo.reduce_max(all_masked.data(), n), -kInf) << "n=" << n;
    }
  }
}

// --- fp16 primitives: the bitwise class extends to half storage --------

std::vector<half_t> narrow(const std::vector<float>& src) {
  std::vector<half_t> out(src.size());
  if (!src.empty()) {
    simd::ops(SimdLevel::Scalar).f2h(out.data(), src.data(), static_cast<Index>(src.size()));
  }
  return out;
}

std::vector<float> widen(const std::vector<half_t>& src) {
  std::vector<float> out(src.size());
  if (!src.empty()) {
    simd::ops(SimdLevel::Scalar).h2f(out.data(), src.data(), static_cast<Index>(src.size()));
  }
  return out;
}

// --- The tiled row fold: fold_tile / fold_tile_h ----------------------

std::vector<float> round_trip_half(const std::vector<float>& x) { return widen(narrow(x)); }

/// One fold_tile call: n edges of width d and the row state they fold
/// into. K/V values are fp16-representable when built with `halfable`,
/// so the same case runs through fold_tile_h over the narrowed rows.
struct TileCase {
  Index n = 0;
  Index d = 0;
  std::vector<float> q, k, v, gate;  // k, v: n rows of d
  float scale = 1.0f;
  bool use_gate = false;
  float m = -kInf;
  float l = 0.0f;
  std::vector<float> acc;
};

struct TileState {
  float m;
  float l;
  std::vector<float> acc;
};

/// `prior` starts from a non-empty state (m, l, acc) instead of an
/// empty row; `use_gate` draws gates from [0.5, 1.5).
TileCase make_tile_case(Index n, Index d, std::uint64_t seed, float mul, bool prior,
                        bool use_gate, bool halfable) {
  TileCase c;
  c.n = n;
  c.d = d;
  c.q = random_buffer(d, seed, mul);
  c.k = random_buffer(n * d, seed + 1, mul);
  c.v = random_buffer(n * d, seed + 2, 2.0f);
  if (halfable) {
    c.k = round_trip_half(c.k);
    c.v = round_trip_half(c.v);
  }
  c.gate = random_buffer(n, seed + 3, 1.0f);
  for (float& g : c.gate) g += 1.0f;
  c.scale = 1.0f / std::sqrt(static_cast<float>(d));
  c.use_gate = use_gate;
  c.acc.assign(static_cast<std::size_t>(d), 0.0f);
  if (prior) {
    c.m = 0.3f;
    c.l = 2.5f;
    c.acc = random_buffer(d, seed + 4, 3.0f);
  }
  return c;
}

std::vector<const float*> rows_of(const std::vector<float>& m, Index n, Index d) {
  std::vector<const float*> rows(static_cast<std::size_t>(n));
  for (Index j = 0; j < n; ++j) rows[static_cast<std::size_t>(j)] = m.data() + j * d;
  return rows;
}

TileState run_fold_tile(const simd::VecOps& vo, const TileCase& c) {
  TileState st{c.m, c.l, c.acc};
  const auto k = rows_of(c.k, c.n, c.d);
  const auto v = rows_of(c.v, c.n, c.d);
  vo.fold_tile(c.q.data(), k.data(), v.data(), c.gate.data(), c.n, c.d, c.scale, c.use_gate,
               st.m, st.l, st.acc.data());
  return st;
}

TileState run_fold_tile_h(const simd::VecOps& vo, const TileCase& c) {
  std::vector<half_t> kh(c.k.size()), vh(c.v.size());
  if (!kh.empty()) {
    simd::ops(SimdLevel::Scalar).f2h(kh.data(), c.k.data(), static_cast<Index>(kh.size()));
    simd::ops(SimdLevel::Scalar).f2h(vh.data(), c.v.data(), static_cast<Index>(vh.size()));
  }
  std::vector<const half_t*> k(static_cast<std::size_t>(c.n)), v(k.size());
  for (Index j = 0; j < c.n; ++j) {
    k[static_cast<std::size_t>(j)] = kh.data() + j * c.d;
    v[static_cast<std::size_t>(j)] = vh.data() + j * c.d;
  }
  TileState st{c.m, c.l, c.acc};
  vo.fold_tile_h(c.q.data(), k.data(), v.data(), c.gate.data(), c.n, c.d, c.scale, c.use_gate,
                 st.m, st.l, st.acc.data());
  return st;
}

/// Bitwise state equality (NaN == NaN: both arms must agree on where
/// the ±inf conventions produce NaN, not on a payload).
void expect_states_bitwise(const TileState& want, const TileState& got) {
  EXPECT_EQ(ulp_diff(want.m, got.m), 0);
  EXPECT_EQ(ulp_diff(want.l, got.l), 0);
  for (std::size_t x = 0; x < want.acc.size(); ++x) {
    ASSERT_EQ(ulp_diff(want.acc[x], got.acc[x]), 0) << "col " << x;
  }
}

TEST(SimdFoldTile, BitwiseScalarVsAvx2AcrossTileAndHeadShapes) {
  if (!avx2_arm_available()) GTEST_SKIP() << "AVX2 arm unavailable on this build/CPU";
  const auto& scalar = simd::ops(SimdLevel::Scalar);
  const auto& avx2 = simd::ops(SimdLevel::Avx2);
  // Every tile size × every remainder-lane count, from an empty and a
  // non-empty row state. 1e-40 drives products into the denormal
  // range; 1e20 overflows the dots to ±inf (and inf − inf NaNs).
  for (const float mul : {1.0f, 1e-40f, 1e20f}) {
    for (Index n = 1; n <= simd::kTile; ++n) {
      for (Index d = 1; d <= 67; ++d) {
        for (const bool prior : {false, true}) {
          SCOPED_TRACE(testing::Message()
                       << "mul=" << mul << " n=" << n << " d=" << d << " prior=" << prior);
          const auto c = make_tile_case(n, d, 10000 + static_cast<std::uint64_t>(n * 100 + d),
                                        mul, prior, /*use_gate=*/prior, /*halfable=*/false);
          expect_states_bitwise(run_fold_tile(scalar, c), run_fold_tile(avx2, c));
        }
      }
    }
  }
}

TEST(SimdFoldTile, BitwiseScalarVsAvx2WithInfiniteGates) {
  if (!avx2_arm_available()) GTEST_SKIP() << "AVX2 arm unavailable on this build/CPU";
  const auto& scalar = simd::ops(SimdLevel::Scalar);
  const auto& avx2 = simd::ops(SimdLevel::Avx2);
  // ±inf gates turn scores into ±inf: masked edges (-inf weigh 0), a
  // +inf that takes over the max (alpha = 0, inf − inf = NaN weights).
  for (Index n = 1; n <= simd::kTile; ++n) {
    for (const Index d : {Index{1}, Index{7}, Index{8}, Index{13}, Index{64}, Index{67}}) {
      for (int pattern = 0; pattern < 3; ++pattern) {
        SCOPED_TRACE(testing::Message() << "n=" << n << " d=" << d << " pattern=" << pattern);
        auto c = make_tile_case(n, d, 20000 + static_cast<std::uint64_t>(n * 100 + d), 1.0f,
                                pattern != 0, /*use_gate=*/true, /*halfable=*/false);
        for (Index j = 0; j < n; ++j) {
          if ((j + pattern) % 3 == 0) c.gate[static_cast<std::size_t>(j)] = -kInf;
          if (pattern == 2 && j == n / 2) c.gate[static_cast<std::size_t>(j)] = kInf;
        }
        expect_states_bitwise(run_fold_tile(scalar, c), run_fold_tile(avx2, c));
      }
    }
  }
}

TEST(SimdFoldTile, HalfRowsMatchWidenedRowsOnEveryArm) {
  // fold_tile_h widens on load (exactly), so it must give the same bits
  // as fold_tile over the widened rows — on every arm, relaxed included.
  for (const SimdLevel level : simd::available_levels()) {
    const auto& vo = simd::ops(level);
    for (const float mul : {1.0f, 1e-6f, 8.0f}) {
      for (Index n = 1; n <= simd::kTile; ++n) {
        for (Index d = 1; d <= 67; ++d) {
          SCOPED_TRACE(testing::Message() << "level=" << simd::level_name(level)
                                          << " mul=" << mul << " n=" << n << " d=" << d);
          const auto c = make_tile_case(n, d, 30000 + static_cast<std::uint64_t>(n * 100 + d),
                                        mul, n % 2 == 0, /*use_gate=*/n % 3 == 0,
                                        /*halfable=*/true);
          expect_states_bitwise(run_fold_tile(vo, c), run_fold_tile_h(vo, c));
        }
      }
    }
  }
}

TEST(SimdFoldTile, HalfRowsBitwiseScalarVsAvx2) {
  if (!avx2_arm_available()) GTEST_SKIP() << "AVX2 arm unavailable on this build/CPU";
  const auto& scalar = simd::ops(SimdLevel::Scalar);
  const auto& avx2 = simd::ops(SimdLevel::Avx2);
  // 1e-6 lands products in the half-denormal band, 8.0 keeps everything
  // normal; widening is exact either way.
  for (const float mul : {1.0f, 1e-6f, 8.0f}) {
    for (Index n = 1; n <= simd::kTile; ++n) {
      for (Index d = 1; d <= 67; ++d) {
        SCOPED_TRACE(testing::Message() << "mul=" << mul << " n=" << n << " d=" << d);
        const auto c = make_tile_case(n, d, 40000 + static_cast<std::uint64_t>(n * 100 + d),
                                      mul, n % 2 == 1, /*use_gate=*/false, /*halfable=*/true);
        expect_states_bitwise(run_fold_tile_h(scalar, c), run_fold_tile_h(avx2, c));
      }
    }
  }
}

TEST(SimdFoldTile, FullyMaskedTileLeavesStateUntouchedOnEveryArm) {
  // All scores -inf (positive dots times a -inf gate): m' stays -inf,
  // so the state — and the accumulator — must not move, on every arm.
  for (const SimdLevel level : simd::available_levels()) {
    const auto& vo = simd::ops(level);
    for (Index n = 1; n <= simd::kTile; ++n) {
      for (const Index d : {Index{1}, Index{9}, Index{64}, Index{67}}) {
        SCOPED_TRACE(testing::Message()
                     << "level=" << simd::level_name(level) << " n=" << n << " d=" << d);
        auto c = make_tile_case(n, d, 50000 + static_cast<std::uint64_t>(n), 1.0f, false,
                                /*use_gate=*/true, /*halfable=*/true);
        for (float& x : c.q) x = std::abs(x) + 0.25f;
        for (float& x : c.k) x = std::abs(x) + 0.25f;
        for (float& g : c.gate) g = -kInf;
        for (const TileState& st : {run_fold_tile(vo, c), run_fold_tile_h(vo, c)}) {
          EXPECT_EQ(st.m, -kInf);
          EXPECT_EQ(st.l, 0.0f);
          for (const float a : st.acc) ASSERT_EQ(a, 0.0f);
        }
      }
    }
  }
}

TEST(SimdPrimitives, ConvertOpsBitwiseAcrossAllArms) {
  // h2f is an exact widening and f2h rounds to nearest-even on every
  // arm — including the relaxed ones — so fp16 page payloads never
  // depend on the dispatch decision. Pin all arms against scalar.
  const auto& scalar = simd::ops(SimdLevel::Scalar);
  for (const SimdLevel level : simd::available_levels()) {
    const auto& vo = simd::ops(level);
    for (const float mul : {1.0f, 1e-6f, 1e6f}) {  // 1e6f overflows half -> ±inf
      for (Index n = 0; n <= 67; ++n) {
        SCOPED_TRACE(testing::Message()
                     << "level=" << simd::level_name(level) << " n=" << n << " mul=" << mul);
        const auto f = random_buffer(n, 4900 + static_cast<std::uint64_t>(n), mul);
        std::vector<half_t> h_ref(f.size()), h_got(f.size());
        if (n > 0) {
          scalar.f2h(h_ref.data(), f.data(), n);
          vo.f2h(h_got.data(), f.data(), n);
        }
        for (Index i = 0; i < n; ++i) {
          EXPECT_EQ(h_ref[static_cast<std::size_t>(i)].bits(),
                    h_got[static_cast<std::size_t>(i)].bits());
        }
        std::vector<float> w_ref(f.size()), w_got(f.size());
        if (n > 0) {
          scalar.h2f(w_ref.data(), h_ref.data(), n);
          vo.h2f(w_got.data(), h_ref.data(), n);
        }
        for (Index i = 0; i < n; ++i) {
          EXPECT_EQ(ulp_diff(w_ref[static_cast<std::size_t>(i)], w_got[static_cast<std::size_t>(i)]),
                    0);
        }
      }
    }
  }
}

// --- Relaxed arms: derived per-length error bounds ---------------------

/// Two different accumulation orders of n rounded products each land
/// within gamma_n·Σ|p_i| of the exact dot (gamma_n = n·u to first
/// order), so they differ by at most twice that, plus the denormal
/// floor. The bound is computed per call from the actual inputs —
/// this is the "per reduction length" derivation the header documents.
double dot_bound(const float* a, const float* b, Index n) {
  double mag = 0.0;
  for (Index i = 0; i < n; ++i) {
    mag += std::abs(static_cast<double>(a[i]) * static_cast<double>(b[i]));
  }
  return 2.0 * static_cast<double>(n) * kU * mag + kDenormSlack;
}

double sum_bound(const float* x, Index n) {
  double mag = 0.0;
  for (Index i = 0; i < n; ++i) mag += std::abs(static_cast<double>(x[i]));
  return 2.0 * static_cast<double>(n) * kU * mag + kDenormSlack;
}

/// Element-wise two-term analog for acc·alpha + beta·v (axpy: alpha =
/// 1): one fused vs two separate roundings differ by at most
/// u·(|alpha·acc| + |beta·v|) each way.
double fma_elem_bound(float acc, float alpha, float beta, float v) {
  return 2.0 * kU *
             (std::abs(static_cast<double>(acc) * alpha) +
              std::abs(static_cast<double>(beta) * v)) +
         kDenormSlack;
}

TEST(SimdPrimitives, RelaxedArmsWithinDerivedBounds) {
  if (relaxed_levels().empty()) GTEST_SKIP() << "no relaxed arm on this build/CPU";
  const auto& scalar = simd::ops(SimdLevel::Scalar);
  for (const SimdLevel level : relaxed_levels()) {
    const auto& vo = simd::ops(level);
    // 1e-40 drives products into the denormal floor, 1e10 keeps partial
    // sums huge but finite (decisive overflow is its own test below).
    for (const float mul : {1.0f, 1e-40f, 1e10f}) {
      for (Index n = 0; n <= 67; ++n) {
        SCOPED_TRACE(testing::Message()
                     << "level=" << simd::level_name(level) << " n=" << n << " mul=" << mul);
        const auto a = random_buffer(n, 5900 + static_cast<std::uint64_t>(n), mul);
        const auto b = random_buffer(n, 6900 + static_cast<std::uint64_t>(n), mul);

        EXPECT_LE(std::abs(static_cast<double>(vo.dot(a.data(), b.data(), n)) -
                           static_cast<double>(scalar.dot(a.data(), b.data(), n))),
                  dot_bound(a.data(), b.data(), n));
        EXPECT_LE(std::abs(static_cast<double>(vo.reduce_sum(a.data(), n)) -
                           static_cast<double>(scalar.reduce_sum(a.data(), n))),
                  sum_bound(a.data(), n));
        // max and scale involve no reassociated additions: bitwise even
        // on the relaxed arms.
        EXPECT_EQ(ulp_diff(vo.reduce_max(a.data(), n), scalar.reduce_max(a.data(), n)), 0);
        auto x_s = a, x_v = a;
        scalar.scale(x_s.data(), 3.0f, n);
        vo.scale(x_v.data(), 3.0f, n);
        for (Index i = 0; i < n; ++i) {
          EXPECT_EQ(ulp_diff(x_s[static_cast<std::size_t>(i)], x_v[static_cast<std::size_t>(i)]),
                    0);
        }

        auto acc_s = b, acc_v = b;
        scalar.axpy(acc_s.data(), -0.5f, a.data(), n);
        vo.axpy(acc_v.data(), -0.5f, a.data(), n);
        for (Index i = 0; i < n; ++i) {
          const auto k = static_cast<std::size_t>(i);
          EXPECT_LE(std::abs(static_cast<double>(acc_v[k]) - static_cast<double>(acc_s[k])),
                    fma_elem_bound(b[k], 1.0f, -0.5f, a[k]));
        }
      }
    }
  }
}

TEST(SimdPrimitives, RelaxedArmsAgreeOnDecisiveOverflow) {
  // All-positive inputs at 1e20: every accumulation order is monotone
  // increasing, so every arm lands on exactly +inf — no inf-inf NaNs,
  // no near-threshold rounding races. (MIXED-sign overflow is NOT an
  // across-class invariant: a reassociated sum can hit +inf and -inf in
  // different partials, so that case is pinned on the bitwise arms
  // only.)
  const auto& scalar = simd::ops(SimdLevel::Scalar);
  for (const SimdLevel level : relaxed_levels()) {
    const auto& vo = simd::ops(level);
    for (Index n = 1; n <= 35; ++n) {
      std::vector<float> a(static_cast<std::size_t>(n), 1e20f);
      std::vector<float> b(static_cast<std::size_t>(n), 2e19f);
      SCOPED_TRACE(testing::Message() << "level=" << simd::level_name(level) << " n=" << n);
      EXPECT_EQ(scalar.dot(a.data(), b.data(), n), kInf);
      EXPECT_EQ(vo.dot(a.data(), b.data(), n), kInf);
      std::vector<float> big(static_cast<std::size_t>(n), 3e38f);
      EXPECT_EQ(scalar.reduce_sum(big.data(), n), n == 1 ? 3e38f : kInf);
      EXPECT_EQ(vo.reduce_sum(big.data(), n), n == 1 ? 3e38f : kInf);
    }
  }
}

// --- Relaxed fold_tile: the vector exp and the derived tile bound -------

/// Pinned ULP bound of the relaxed arms' vector exp against std::exp over
/// [-104, 0] (SimdVectorExp below measures it on every call; both arms
/// are deterministic, so this is a property of the polynomial).
constexpr std::int64_t kVecExpUlp = 2;

/// exp(x_j) for x_j <= 0 as the arm's fold_tile computes it: a 16-wide
/// tile with q = e_0, k_j = x_j·e_0 (so s_j = x_j exactly), v_j = e_j,
/// from the state (m = 0, l = 0, acc = 0) — m' = 0 and acc[j] = p_j
/// exactly. Fewer than 16 values pad with 0.
std::vector<float> exp_via_fold(const simd::VecOps& vo, const std::vector<float>& x) {
  const Index n = static_cast<Index>(x.size());
  const Index d = simd::kTile;
  std::vector<float> q(static_cast<std::size_t>(d), 0.0f), k(static_cast<std::size_t>(n * d), 0.0f),
      v(k.size(), 0.0f), gate(static_cast<std::size_t>(n), 1.0f);
  q[0] = 1.0f;
  for (Index j = 0; j < n; ++j) {
    k[static_cast<std::size_t>(j * d)] = x[static_cast<std::size_t>(j)];
    v[static_cast<std::size_t>(j * d + j)] = 1.0f;
  }
  const auto kr = rows_of(k, n, d);
  const auto vr = rows_of(v, n, d);
  float m = 0.0f, l = 0.0f;
  std::vector<float> acc(static_cast<std::size_t>(d), 0.0f);
  vo.fold_tile(q.data(), kr.data(), vr.data(), gate.data(), n, d, 1.0f, false, m, l, acc.data());
  acc.resize(static_cast<std::size_t>(n));
  return acc;
}

/// exp(x) through the accumulator rescale: state (m = x, l = 0,
/// acc = [1]) folding one edge of score 0 gives m' = 0 and acc = α.
float exp_via_alpha(const simd::VecOps& vo, float x) {
  const float q = 1.0f, k = 0.0f, v = 0.0f, gate = 1.0f;
  const float* kr = &k;
  const float* vr = &v;
  float m = x, l = 0.0f, acc = 1.0f;
  vo.fold_tile(&q, &kr, &vr, &gate, 1, 1, 1.0f, false, m, l, &acc);
  return acc;
}

TEST(SimdVectorExp, WithinPinnedUlpOfStdExpOnEveryArm) {
  // Bitwise arms call std::exp itself (ULP 0); relaxed arms evaluate a
  // vector polynomial, pinned at kVecExpUlp over the whole domain the
  // fold feeds it: [-104, 0], where the bottom end underflows through
  // the denormals to 0.
  std::vector<float> xs;
  for (int i = 0; i <= 200000; ++i) xs.push_back(-104.0f * static_cast<float>(i) / 200000.0f);
  for (const float x : {-1e-30f, -1e-7f, -0.34657359f, -0.6931472f, -87.33655f, -88.0f,
                        -100.0f, -103.27893f, -103.97208f, -104.0f}) {
    xs.push_back(x);
  }
  for (const SimdLevel level : simd::available_levels()) {
    const auto& vo = simd::ops(level);
    const std::int64_t budget = simd::is_bitwise_level(level) ? 0 : kVecExpUlp;
    std::int64_t worst = 0;
    const auto tile = static_cast<std::size_t>(simd::kTile);
    for (std::size_t i = 0; i < xs.size(); i += tile) {
      const std::vector<float> chunk(
          xs.begin() + static_cast<std::ptrdiff_t>(i),
          xs.begin() + static_cast<std::ptrdiff_t>(std::min(xs.size(), i + tile)));
      const auto got = exp_via_fold(vo, chunk);
      for (std::size_t j = 0; j < chunk.size(); ++j) {
        const std::int64_t e = ulp_diff(got[j], std::exp(chunk[j]));
        worst = std::max(worst, e);
        ASSERT_LE(e, budget) << simd::level_name(level) << " x=" << chunk[j];
      }
    }
    for (const float x : {-0.5f, -20.0f, -90.0f, -103.5f}) {
      EXPECT_LE(ulp_diff(exp_via_alpha(vo, x), std::exp(x)), budget)
          << simd::level_name(level) << " alpha x=" << x;
    }
    // The exact points: exp(0) = 1, exp(-inf) = 0 (never a tiny
    // positive), and everything below the binary32 underflow is 0.
    const auto special = exp_via_fold(vo, {0.0f, -0.0f, -kInf, -104.0f, -200.0f, -1e30f});
    EXPECT_EQ(special[0], 1.0f) << simd::level_name(level);
    EXPECT_EQ(special[1], 1.0f) << simd::level_name(level);
    for (std::size_t j = 2; j < special.size(); ++j) {
      EXPECT_EQ(special[j], 0.0f) << simd::level_name(level) << " j=" << j;
    }
    EXPECT_EQ(exp_via_alpha(vo, -kInf), 0.0f) << simd::level_name(level);
    RecordProperty(std::string("max_ulp_") + std::string(simd::level_name(level)),
                   static_cast<int>(worst));
  }
}

/// Derived bound on |relaxed − scalar| for each output of one fold_tile
/// call. First-order model, per input:
///  * score s_j: the dot bound (two summation orders, 2·d·u·Σ|q·k|)
///    through scale and gate, plus one rounding per multiply per arm;
///  * m': max is 1-Lipschitz, so dm = max_j ds_j;
///  * weight p_j = exp(s_j − m'): argument error ds_j + dm plus the
///    subtraction's rounding (u·|s_j − m'| per arm), turned relative by
///    exp, plus the vector exp's pinned ULP bound (and libm's ½ ULP);
///  * alpha = exp(m − m') likewise with dm alone;
///  * l and acc[x]: the perturbed terms l·alpha (acc·alpha) and p_j·v_j,
///    plus two summation orders over n + 1 terms.
/// The total is doubled to cover second-order terms, and every bound
/// carries the denormal floor.
struct FoldBound {
  double m = 0.0;
  double l = 0.0;
  std::vector<double> acc;
};

FoldBound fold_tile_bound(const TileCase& c) {
  const auto n = static_cast<std::size_t>(c.n);
  const double e_exp = static_cast<double>(kVecExpUlp + 1) * 2.0 * kU;
  std::vector<double> s(n), ds(n);
  double m_new = c.m;
  double dm = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    double dot = 0.0, mag = 0.0;
    for (Index x = 0; x < c.d; ++x) {
      const double t = static_cast<double>(c.q[static_cast<std::size_t>(x)]) *
                       c.k[j * static_cast<std::size_t>(c.d) + static_cast<std::size_t>(x)];
      dot += t;
      mag += std::abs(t);
    }
    const double g = c.use_gate ? c.gate[j] : 1.0;
    s[j] = dot * c.scale * g;
    ds[j] = (2.0 * static_cast<double>(c.d) * kU * mag * c.scale + kDenormSlack) * std::abs(g) +
            4.0 * kU * std::abs(s[j]);
    m_new = std::max(m_new, s[j]);
    dm = std::max(dm, ds[j]);
  }
  const bool empty = c.m == -kInf;
  const double alpha = empty ? 0.0 : std::exp(c.m - m_new);
  const double dalpha =
      empty ? 0.0 : alpha * (std::expm1(dm + 2.0 * kU * std::abs(c.m - m_new)) + e_exp);
  std::vector<double> p(n), dp(n);
  double psum = 0.0, dpsum = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    p[j] = std::exp(s[j] - m_new);
    dp[j] = p[j] * (std::expm1(ds[j] + dm + 2.0 * kU * std::abs(s[j] - m_new)) + e_exp) +
            kDenormSlack;
    psum += p[j];
    dpsum += dp[j];
  }
  const double terms = 2.0 * static_cast<double>(c.n + 1) * kU;
  FoldBound b;
  b.m = 2.0 * dm + kDenormSlack;
  b.l = 2.0 * (c.l * dalpha + dpsum + terms * (c.l * alpha + psum)) + kDenormSlack;
  b.acc.resize(static_cast<std::size_t>(c.d));
  for (Index x = 0; x < c.d; ++x) {
    const double a0 = std::abs(static_cast<double>(c.acc[static_cast<std::size_t>(x)]));
    double pv = 0.0, dpv = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double vj = std::abs(
          static_cast<double>(c.v[j * static_cast<std::size_t>(c.d) + static_cast<std::size_t>(x)]));
      pv += p[j] * vj;
      dpv += dp[j] * vj;
    }
    b.acc[static_cast<std::size_t>(x)] =
        2.0 * (a0 * dalpha + dpv + terms * (a0 * alpha + pv)) + kDenormSlack;
  }
  return b;
}

TEST(SimdFoldTile, RelaxedArmsWithinDerivedBound) {
  if (relaxed_levels().empty()) GTEST_SKIP() << "no relaxed arm on this build/CPU";
  const auto& scalar = simd::ops(SimdLevel::Scalar);
  for (const SimdLevel level : relaxed_levels()) {
    const auto& vo = simd::ops(level);
    for (const float mul : {1.0f, 4.0f}) {
      for (Index n = 1; n <= simd::kTile; ++n) {
        for (Index d = 1; d <= 67; ++d) {
          for (const bool prior : {false, true}) {
            SCOPED_TRACE(testing::Message() << "level=" << simd::level_name(level) << " mul="
                                            << mul << " n=" << n << " d=" << d
                                            << " prior=" << prior);
            const auto c =
                make_tile_case(n, d, 60000 + static_cast<std::uint64_t>(n * 100 + d), mul,
                               prior, /*use_gate=*/prior, /*halfable=*/false);
            const TileState want = run_fold_tile(scalar, c);
            const TileState got = run_fold_tile(vo, c);
            const FoldBound b = fold_tile_bound(c);
            EXPECT_LE(std::abs(static_cast<double>(got.m) - want.m), b.m);
            EXPECT_LE(std::abs(static_cast<double>(got.l) - want.l), b.l);
            for (Index x = 0; x < d; ++x) {
              const auto i = static_cast<std::size_t>(x);
              ASSERT_LE(std::abs(static_cast<double>(got.acc[i]) - want.acc[i]), b.acc[i])
                  << "col " << x;
            }
          }
        }
      }
    }
  }
}

// --- fp16 fold parity: half pages vs the scalar-convert reference ------

TEST(SimdFp16Fold, MatchesScalarConvertReferenceAcrossArms) {
  // The decode path folds fp16 K/V pages through RowFold<half_t>. The
  // reference widens the SAME half payloads back to fp32 (exact) and
  // runs the float row fold on the scalar arm: bitwise arms must
  // reproduce it bit-for-bit; relaxed arms stay inside the kernel ULP
  // budget — and on EVERY arm the half fold equals that arm's own float
  // fold over the widened rows. 20 edges: one full tile and a partial.
  const Index kEdges = 20;
  for (const Index d : {Index{1}, Index{7}, Index{16}, Index{33}, Index{64}, Index{67}}) {
    SCOPED_TRACE(testing::Message() << "d=" << d);
    const auto in = make_inputs(kEdges, d, 9900 + static_cast<std::uint64_t>(d));
    const float scale = 1.0f / std::sqrt(static_cast<float>(d));

    // Narrow every K/V row to the half payloads a page would hold.
    std::vector<half_t> kh(static_cast<std::size_t>(kEdges * d));
    std::vector<half_t> vh(static_cast<std::size_t>(kEdges * d));
    const auto& scalar_ops = simd::ops(SimdLevel::Scalar);
    for (Index j = 0; j < kEdges; ++j) {
      scalar_ops.f2h(kh.data() + static_cast<std::size_t>(j * d), in.k.row(j), d);
      scalar_ops.f2h(vh.data() + static_cast<std::size_t>(j * d), in.v.row(j), d);
    }
    // Reference: exact widening, then the float fold.
    Matrix<float> kw(kEdges, d), vw(kEdges, d);
    for (Index j = 0; j < kEdges; ++j) {
      scalar_ops.h2f(kw.row(j), kh.data() + static_cast<std::size_t>(j * d), d);
      scalar_ops.h2f(vw.row(j), vh.data() + static_cast<std::size_t>(j * d), d);
    }
    auto fold_float = [&](const simd::VecOps& vo) {
      TileState st{-kInf, 0.0f, std::vector<float>(static_cast<std::size_t>(d), 0.0f)};
      detail::RowFold<float> fold(vo, in.q.row(0), d, scale, false, st.m, st.l, st.acc.data());
      for (Index j = 0; j < kEdges; ++j) fold.add(kw.row(j), vw.row(j), 1.0f);
      fold.finish();
      return st;
    };
    const TileState ref = fold_float(scalar_ops);

    for (const SimdLevel level : simd::available_levels()) {
      SCOPED_TRACE(testing::Message() << "level=" << simd::level_name(level));
      const auto& vo = simd::ops(level);
      TileState got{-kInf, 0.0f, std::vector<float>(static_cast<std::size_t>(d), 0.0f)};
      detail::RowFold<half_t> fold(vo, in.q.row(0), d, scale, false, got.m, got.l,
                                   got.acc.data());
      for (Index j = 0; j < kEdges; ++j) {
        fold.add(kh.data() + static_cast<std::size_t>(j * d),
                 vh.data() + static_cast<std::size_t>(j * d), 1.0f);
      }
      fold.finish();
      expect_states_bitwise(fold_float(vo), got);

      const std::int64_t budget = simd::is_bitwise_level(level) ? 0 : kRelaxedKernelUlp;
      EXPECT_LE(ulp_diff(got.m, ref.m), budget);
      EXPECT_LE(ulp_diff(got.l, ref.l), budget);
      for (Index i = 0; i < d; ++i) {
        ASSERT_LE(ulp_diff(got.acc[static_cast<std::size_t>(i)], ref.acc[static_cast<std::size_t>(i)]),
                  budget)
            << "col " << i;
      }
    }
  }
}

// --- Kernel differentials over the head-dim sweep ----------------------

TEST(SimdKernelParity, CsrRandomMaskAllHeadDims) {
  const Index L = 48;
  for (const Index d : head_dims()) {
    SCOPED_TRACE(testing::Message() << "d=" << d);
    const auto in = make_inputs(L, d, 200 + static_cast<std::uint64_t>(d));
    const auto mask = build_csr_random(L, RandomParams{0.3, 11});
    expect_arm_parity(L, d, [&](const AttentionOptions& opts, Matrix<float>& out) {
      csr_attention(in.q, in.k, in.v, mask, out, opts);
    });
  }
}

TEST(SimdKernelParity, SpmmAttentionWholePipeline) {
  // The two-phase spmm_attention path: all three stages now ride the
  // dispatched ops — SDDMM's Q·K dots, csr_row_softmax's max/sum/rescale
  // reductions, and the SpMM axpy accumulate — so whole-pipeline outputs
  // must agree across arms like the fused kernels do.
  const Index L = 48;
  for (const Index d : head_dims()) {
    SCOPED_TRACE(testing::Message() << "d=" << d);
    const auto in = make_inputs(L, d, 250 + static_cast<std::uint64_t>(d));
    const auto mask = build_csr_random(L, RandomParams{0.3, 19});
    expect_arm_parity(L, d, [&](const AttentionOptions& opts, Matrix<float>& out) {
      spmm_attention(in.q, in.k, in.v, mask, out, opts);
    });
  }
}

TEST(SimdKernelParity, CsrRowSoftmaxAndSpmmStagesBitwise) {
  // The two freshly-vectorized spmm_attention stages in isolation, so a
  // divergence is attributed to the stage, not the pipeline. Row
  // lengths sweep the remainder-lane counts (row i of the widening
  // local mask holds min(i+1, window) entries); both stages must be
  // BITWISE equal across arms by the lane contract.
  if (!avx2_arm_available()) GTEST_SKIP() << "AVX2 arm unavailable on this build/CPU";
  const Index L = 40;
  for (const Index w : {Index{1}, Index{5}, Index{8}, Index{17}, Index{33}}) {
    SCOPED_TRACE(testing::Message() << "window=" << w);
    Csr<float> scores = build_csr_local(L, LocalParams{w});
    {
      Rng rng(600 + static_cast<std::uint64_t>(w));
      Matrix<float> vals(1, static_cast<Index>(scores.nnz()));
      fill_uniform(vals, rng);
      for (std::size_t k = 0; k < scores.values.size(); ++k) {
        scores.values[k] = (vals(0, static_cast<Index>(k)) - 0.5f) * 8.0f;
      }
    }
    Csr<float> scalar_scores = scores, avx2_scores = scores;
    ExecPolicy scalar_policy = ExecPolicy::serial();
    scalar_policy.simd = SimdLevel::Scalar;
    ExecPolicy avx2_policy = ExecPolicy::serial();
    avx2_policy.simd = SimdLevel::Avx2;
    csr_row_softmax(scalar_scores, scalar_policy);
    csr_row_softmax(avx2_scores, avx2_policy);
    for (std::size_t k = 0; k < scores.values.size(); ++k) {
      ASSERT_EQ(scalar_scores.values[k], avx2_scores.values[k]) << "softmax value " << k;
    }

    for (const Index d : {Index{1}, Index{7}, Index{16}, Index{67}}) {
      SCOPED_TRACE(testing::Message() << "d=" << d);
      const auto in = make_inputs(L, d, 650 + static_cast<std::uint64_t>(d));
      Matrix<float> scalar_out(L, d), avx2_out(L, d);
      spmm(scalar_scores, in.v, scalar_out, scalar_policy);
      spmm(scalar_scores, in.v, avx2_out, avx2_policy);
      for (Index i = 0; i < L; ++i) {
        for (Index j = 0; j < d; ++j) {
          ASSERT_EQ(scalar_out(i, j), avx2_out(i, j)) << "row " << i << " col " << j;
        }
      }
    }
  }
}

TEST(SimdKernelParity, CooBothSearches) {
  const Index L = 48;
  for (const Index d : {Index{7}, Index{32}, Index{65}}) {
    const auto in = make_inputs(L, d, 300 + static_cast<std::uint64_t>(d));
    const auto coo = csr_to_coo(build_csr_random(L, RandomParams{0.25, 13}));
    for (const CooSearch search : {CooSearch::Linear, CooSearch::Binary}) {
      SCOPED_TRACE(testing::Message() << "d=" << d << " search=" << static_cast<int>(search));
      expect_arm_parity(L, d, [&](AttentionOptions opts, Matrix<float>& out) {
        opts.coo_search = search;
        coo_attention(in.q, in.k, in.v, coo, out, opts);
      });
    }
  }
}

TEST(SimdKernelParity, LocalAndDilatedAndGlobal) {
  const Index L = 64;
  for (const Index d : {Index{3}, Index{16}, Index{33}, Index{67}}) {
    SCOPED_TRACE(testing::Message() << "d=" << d);
    const auto in = make_inputs(L, d, 400 + static_cast<std::uint64_t>(d));
    expect_arm_parity(L, d, [&](const AttentionOptions& opts, Matrix<float>& out) {
      local_attention(in.q, in.k, in.v, LocalParams{5}, out, opts);
    });
    expect_arm_parity(L, d, [&](const AttentionOptions& opts, Matrix<float>& out) {
      dilated1d_attention(in.q, in.k, in.v, Dilated1DParams{9, 2}, out, opts);
    });
    expect_arm_parity(L, d, [&](const AttentionOptions& opts, Matrix<float>& out) {
      dilated2d_attention(in.q, in.k, in.v, make_dilated2d(L, 8, 1), out, opts);
    });
    GlobalMinusLocalParams gp;
    gp.global = make_global({0, L / 2}, L);
    gp.local = make_local(3);
    expect_arm_parity(L, d, [&](const AttentionOptions& opts, Matrix<float>& out) {
      global_attention(in.q, in.k, in.v, gp, out, opts);
    });
  }
}

TEST(SimdKernelParity, FlashAndSdpBaselines) {
  const Index L = 48;
  for (const Index d : {Index{5}, Index{31}, Index{64}, Index{66}}) {
    SCOPED_TRACE(testing::Message() << "d=" << d);
    const auto in = make_inputs(L, d, 500 + static_cast<std::uint64_t>(d));
    for (const Index tile : {Index{7}, Index{16}, Index{48}, Index{100}}) {
      expect_arm_parity(L, d, [&](const AttentionOptions& opts, Matrix<float>& out) {
        baselines::FlashConfig cfg;
        cfg.tile_cols = tile;
        baselines::flash_attention(in.q, in.k, in.v, out, opts, cfg);
      });
    }
    const auto dense = csr_to_dense(build_csr_random(L, RandomParams{0.4, 17}));
    expect_arm_parity(L, d, [&](const AttentionOptions& opts, Matrix<float>& out) {
      baselines::sdp_masked_attention(in.q, in.k, in.v, dense, out, opts);
    });
  }
}

TEST(SimdKernelParity, GemmBothOrientations) {
  if (!avx2_arm_available()) GTEST_SKIP() << "AVX2 arm unavailable on this build/CPU";
  for (const auto& [m, k, n] : {std::tuple<Index, Index, Index>{9, 7, 11},
                               std::tuple<Index, Index, Index>{64, 64, 64},
                               std::tuple<Index, Index, Index>{65, 33, 67}}) {
    SCOPED_TRACE(testing::Message() << m << "x" << k << "x" << n);
    Matrix<float> a(m, k), bt(n, k), b(k, n);
    Rng rng(600);
    fill_uniform(a, rng);
    fill_uniform(bt, rng);
    fill_uniform(b, rng);
    for (const bool transposed : {true, false}) {
      Matrix<float> c_scalar(m, n), c_avx2(m, n);
      ExecPolicy p = ExecPolicy::serial();
      p.simd = SimdLevel::Scalar;
      transposed ? gemm_nt(a, bt, c_scalar, p) : gemm_nn(a, b, c_scalar, p);
      p.simd = SimdLevel::Avx2;
      transposed ? gemm_nt(a, bt, c_avx2, p) : gemm_nn(a, b, c_avx2, p);
      expect_matrices_close(c_scalar, c_avx2);
    }
  }
}

// --- Extreme numerics --------------------------------------------------

TEST(SimdKernelParity, InfiniteScoresFromOverflowingDots) {
  // Inputs around ±1e20: d=64 dots overflow to ±inf after scaling, so
  // the online softmax walks its ±inf branches identically on both
  // bitwise arms. Relaxed arms are excluded: a reassociated mixed-sign
  // sum can land on a different infinity (or inf-inf NaN) than the
  // scalar order, so cross-class agreement is not an invariant here —
  // decisive monotone overflow is pinned for them in
  // RelaxedArmsAgreeOnDecisiveOverflow.
  const Index L = 32;
  for (const Index d : {Index{9}, Index{64}}) {
    SCOPED_TRACE(testing::Message() << "d=" << d);
    const auto in = make_inputs(L, d, 700 + static_cast<std::uint64_t>(d), 1e20f);
    const auto mask = build_csr_random(L, RandomParams{0.4, 19});
    expect_arm_parity(
        L, d,
        [&](const AttentionOptions& opts, Matrix<float>& out) {
          csr_attention(in.q, in.k, in.v, mask, out, opts);
        },
        /*include_relaxed=*/false);
    expect_arm_parity(
        L, d,
        [&](const AttentionOptions& opts, Matrix<float>& out) {
          baselines::flash_attention(in.q, in.k, in.v, out, opts);
        },
        /*include_relaxed=*/false);
  }
}

TEST(SimdKernelParity, DenormalScores) {
  const Index L = 32;
  const Index d = 13;  // exercises the 5-lane tail
  const auto in = make_inputs(L, d, 800, 1e-30f);
  const auto mask = build_csr_random(L, RandomParams{0.4, 23});
  expect_arm_parity(L, d, [&](const AttentionOptions& opts, Matrix<float>& out) {
    csr_attention(in.q, in.k, in.v, mask, out, opts);
  });
}

// --- Masked-row conventions on the vector path -------------------------

TEST(SimdKernelParity, FullyMaskedRowsStayZeroOnBothArms) {
  const Index L = 24;
  const Index d = 13;
  const auto in = make_inputs(L, d, 900);
  // Rows ≡ 0 (mod 3) have no neighbors at all.
  const auto mask = build_csr_from_predicate(
      L, [](Index i, Index j) { return i % 3 != 0 && (i + j) % 4 == 0; });
  // The zero-row convention is exact on every arm, relaxed included:
  // no neighbors means no arithmetic at all.
  for (const SimdLevel level : simd::available_levels()) {
    AttentionOptions opts;
    opts.policy.simd = level;
    Matrix<float> out(L, d);
    out.fill(7.0f);  // poison
    csr_attention(in.q, in.k, in.v, mask, out, opts);
    for (Index i = 0; i < L; i += 3) {
      for (Index j = 0; j < d; ++j) {
        EXPECT_EQ(out(i, j), 0.0f) << "level=" << simd::level_name(level) << " row " << i;
      }
    }
  }
}

// Regression (satellite #3): softmax_rows on a fully-masked row whose
// width is not a multiple of the lane count. A tail handled by a plain
// masked load feeds 0.0f into the max reduction, the row max becomes 0
// instead of -inf, and the row silently turns into a uniform non-zero
// distribution — the scalar path only ever got this right because it
// never had dead lanes. The vector arm must seed dead lanes with -inf.
TEST(SimdSoftmaxRegression, FullyMaskedRowAllZeroOnVectorPath) {
  for (const SimdLevel level : simd::available_levels()) {
    for (const Index cols : {Index{3}, Index{8}, Index{13}, Index{16}, Index{21}}) {
      Matrix<float> s(3, cols);
      Rng rng(1000);
      fill_uniform(s, rng);
      for (Index j = 0; j < cols; ++j) s(1, j) = -kInf;  // fully-masked middle row
      softmax_rows(s, level);
      float live_sum = 0.0f;
      for (Index j = 0; j < cols; ++j) {
        EXPECT_EQ(s(1, j), 0.0f) << "level=" << simd::level_name(level) << " cols=" << cols;
        EXPECT_FALSE(std::isnan(s(0, j)));
        live_sum += s(0, j);
      }
      EXPECT_NEAR(live_sum, 1.0f, 1e-5f);
    }
  }
}

TEST(SimdSoftmaxRegression, FoldTileOfFullyMaskedScoresLeavesStateEmpty) {
  for (const SimdLevel level : simd::available_levels()) {
    const auto& vo = simd::ops(level);
    OnlineSoftmaxRow osr;
    std::vector<float> tile(11, -kInf);
    const float alpha = online_softmax_fold_tile(osr, tile.data(), 11, vo);
    EXPECT_EQ(alpha, 1.0f);
    EXPECT_EQ(osr.m, -kInf);
    EXPECT_EQ(osr.l, 0.0f);
    for (const float p : tile) EXPECT_EQ(p, 0.0f);
    EXPECT_EQ(osr.inv_l(), 0.0f);  // finalisation zeroes the output row
  }
}

// --- Dispatch plumbing -------------------------------------------------

TEST(SimdDispatch, ResolveClampsToAvailability) {
  EXPECT_EQ(simd::resolve(SimdLevel::Scalar), SimdLevel::Scalar);
  const SimdLevel avx2 = simd::resolve(SimdLevel::Avx2);
  EXPECT_TRUE(avx2 == SimdLevel::Avx2 || avx2 == SimdLevel::Scalar);
  if (simd::compiled_with_avx2() && simd::cpu_supports_avx2()) {
    EXPECT_EQ(avx2, SimdLevel::Avx2);
  } else {
    EXPECT_EQ(avx2, SimdLevel::Scalar);
  }
  EXPECT_NE(simd::resolve(SimdLevel::Auto), SimdLevel::Auto);

  // The new tiers clamp DOWN, never up, and never to Auto: a forced
  // avx512 request on an AVX2-only host runs the best arm at or below
  // the request instead of crashing or silently upgrading.
  const SimdLevel fma = simd::resolve(SimdLevel::Avx2Fma);
  EXPECT_TRUE(fma == SimdLevel::Avx2Fma || fma == SimdLevel::Avx2 || fma == SimdLevel::Scalar);
  if (simd::compiled_with_avx2_fma() && simd::cpu_supports_avx2_fma()) {
    EXPECT_EQ(fma, SimdLevel::Avx2Fma);
  }
  const SimdLevel a512 = simd::resolve(SimdLevel::Avx512);
  EXPECT_NE(a512, SimdLevel::Auto);
  if (simd::compiled_with_avx512() && simd::cpu_supports_avx512()) {
    EXPECT_EQ(a512, SimdLevel::Avx512);
  } else {
    // Clamp lands at or below the request.
    EXPECT_TRUE(a512 == SimdLevel::Avx2Fma || a512 == SimdLevel::Avx2 ||
                a512 == SimdLevel::Scalar);
  }
}

TEST(SimdDispatch, ParityClassesAndLevelEnumeration) {
  EXPECT_TRUE(simd::is_bitwise_level(SimdLevel::Scalar));
  EXPECT_TRUE(simd::is_bitwise_level(SimdLevel::Avx2));
  // The relaxed arms are relaxed wherever they run. A build or CPU
  // without one clamps the request down (resolve), and the request is
  // then classified by the arm that actually runs — bitwise scalar on a
  // SIMD-off build.
  for (const SimdLevel l : {SimdLevel::Avx2Fma, SimdLevel::Avx512}) {
    const SimdLevel runs = simd::resolve(l);
    if (runs == l) {
      EXPECT_FALSE(simd::is_bitwise_level(l)) << simd::level_name(l);
    } else {
      EXPECT_EQ(simd::is_bitwise_level(l), simd::is_bitwise_level(runs)) << simd::level_name(l);
    }
  }

  const auto avail = simd::available_levels();
  ASSERT_FALSE(avail.empty());
  EXPECT_EQ(avail.front(), SimdLevel::Scalar);
  for (std::size_t i = 0; i < avail.size(); ++i) {
    // Available means runnable: every enumerated level resolves to
    // itself, and the list ascends strictly.
    EXPECT_EQ(simd::resolve(avail[i]), avail[i]);
    if (i > 0) {
      EXPECT_LT(static_cast<int>(avail[i - 1]), static_cast<int>(avail[i]));
    }
  }

  const auto compiled = simd::compiled_levels();
  ASSERT_FALSE(compiled.empty());
  EXPECT_EQ(compiled.front(), SimdLevel::Scalar);
  // Everything runnable was necessarily compiled.
  for (const SimdLevel l : avail) {
    EXPECT_NE(std::find(compiled.begin(), compiled.end(), l), compiled.end())
        << simd::level_name(l);
  }
}

TEST(SimdDispatch, ParseLevelRoundTripsAndRejectsUnknown) {
  // Round trip: every enum value's canonical name parses back to it.
  for (const SimdLevel l : {SimdLevel::Auto, SimdLevel::Scalar, SimdLevel::Avx2,
                            SimdLevel::Avx2Fma, SimdLevel::Avx512}) {
    SimdLevel out = SimdLevel::Scalar;
    EXPECT_TRUE(simd::parse_level(simd::level_name(l), out)) << simd::level_name(l);
    EXPECT_EQ(out, l);
  }
  // Accepted aliases and case-insensitivity (the GPA_SIMD env spellings).
  SimdLevel out = SimdLevel::Scalar;
  EXPECT_TRUE(simd::parse_level("AVX2-FMA", out));
  EXPECT_EQ(out, SimdLevel::Avx2Fma);
  EXPECT_TRUE(simd::parse_level("avx2fma", out));
  EXPECT_EQ(out, SimdLevel::Avx2Fma);
  EXPECT_TRUE(simd::parse_level("fma", out));
  EXPECT_EQ(out, SimdLevel::Avx2Fma);
  EXPECT_TRUE(simd::parse_level("", out));
  EXPECT_EQ(out, SimdLevel::Auto);
  // Unknown names are rejected and leave `out` untouched — the env path
  // turns this signal into a one-time warning + Auto fallback instead
  // of UB or a silent scalar downgrade.
  out = SimdLevel::Avx2;
  EXPECT_FALSE(simd::parse_level("bogus", out));
  EXPECT_FALSE(simd::parse_level("avx-512", out));
  EXPECT_FALSE(simd::parse_level("sse", out));
  EXPECT_EQ(out, SimdLevel::Avx2);
}

TEST(SimdDispatch, ForceLevelOverridesAutoButNotExplicit) {
  const SimdLevel before = simd::active_level();
  simd::force_level(SimdLevel::Scalar);
  EXPECT_EQ(simd::active_level(), SimdLevel::Scalar);
  EXPECT_EQ(simd::resolve(SimdLevel::Auto), SimdLevel::Scalar);
  if (avx2_arm_available()) {
    // An explicit per-call request is not affected by the global force.
    EXPECT_EQ(simd::resolve(SimdLevel::Avx2), SimdLevel::Avx2);
  }
  simd::force_level(SimdLevel::Auto);
  EXPECT_EQ(simd::active_level(), before);
}

}  // namespace
}  // namespace gpa
