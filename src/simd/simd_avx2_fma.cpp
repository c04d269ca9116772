// Relaxed AVX2+FMA arm of the SIMD dispatch — compiled with
// -mavx2 -mfma -mf16c. Same 8-lane shape, masked tails, and pairwise
// reduction tree as the bitwise avx2 arm, but every multiply-accumulate
// is an explicit _mm256_fmadd_ps: a·b+c rounds ONCE where the lane
// contract rounds twice, and fold_tile evaluates its exponentials with
// a vector polynomial instead of libm, so this arm is deterministic but
// only bounded against the scalar reference (tests/test_simd_parity.cpp
// derives and pins the bounds). scale / reduce_max / reduce_sum contain
// no mul+add pairs and remain bit-identical to the bitwise arms.

#if !defined(GPA_SIMD_AVX2_FMA)
#error "simd_avx2_fma.cpp must only be compiled when GPA_SIMD_AVX2_FMA is defined"
#endif

#include <immintrin.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "simd/ops_tables.hpp"

namespace gpa::simd::detail {
namespace {

constexpr Index kLanes = 8;

inline __m256i tail_mask(Index r) noexcept {
  const __m256i lane_ids = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(r)), lane_ids);
}

inline float reduce_tree_add(__m256 s) noexcept {
  const __m128 lo = _mm256_castps256_ps128(s);
  const __m128 hi = _mm256_extractf128_ps(s, 1);
  const __m128 t = _mm_add_ps(lo, hi);
  const __m128 u = _mm_add_ps(t, _mm_movehl_ps(t, t));
  return _mm_cvtss_f32(_mm_add_ss(u, _mm_shuffle_ps(u, u, 0x1)));
}

inline float reduce_tree_max(__m256 s) noexcept {
  const __m128 lo = _mm256_castps256_ps128(s);
  const __m128 hi = _mm256_extractf128_ps(s, 1);
  const __m128 t = _mm_max_ps(lo, hi);
  const __m128 u = _mm_max_ps(t, _mm_movehl_ps(t, t));
  return _mm_cvtss_f32(_mm_max_ss(u, _mm_shuffle_ps(u, u, 0x1)));
}

inline __m256 load_h8(const half_t* p) noexcept {
  __m128i raw;
  std::memcpy(&raw, p, sizeof raw);
  return _mm256_cvtph_ps(raw);
}

inline __m256 load_h_tail(const half_t* p, Index r) noexcept {
  alignas(16) std::uint16_t buf[8] = {};
  std::memcpy(buf, p, static_cast<std::size_t>(r) * sizeof(std::uint16_t));
  return _mm256_cvtph_ps(_mm_load_si128(reinterpret_cast<const __m128i*>(buf)));
}

float dot(const float* a, const float* b, Index n) noexcept {
  __m256 s = _mm256_setzero_ps();
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    s = _mm256_fmadd_ps(_mm256_loadu_ps(a + base), _mm256_loadu_ps(b + base), s);
  }
  if (base < n) {
    const __m256i mask = tail_mask(n - base);
    const __m256 av = _mm256_maskload_ps(a + base, mask);
    const __m256 bv = _mm256_maskload_ps(b + base, mask);
    s = _mm256_fmadd_ps(av, bv, s);  // dead lanes contribute fma(0,0,s) = s
  }
  return reduce_tree_add(s);
}

void axpy(float* acc, float beta, const float* v, Index n) noexcept {
  const __m256 vb = _mm256_set1_ps(beta);
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    const __m256 accv = _mm256_loadu_ps(acc + base);
    _mm256_storeu_ps(acc + base, _mm256_fmadd_ps(vb, _mm256_loadu_ps(v + base), accv));
  }
  if (base < n) {
    const __m256i mask = tail_mask(n - base);
    const __m256 accv = _mm256_maskload_ps(acc + base, mask);
    const __m256 vv = _mm256_maskload_ps(v + base, mask);
    _mm256_maskstore_ps(acc + base, mask, _mm256_fmadd_ps(vb, vv, accv));
  }
}

void scale(float* x, float s, Index n) noexcept {
  const __m256 vs = _mm256_set1_ps(s);
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    _mm256_storeu_ps(x + base, _mm256_mul_ps(_mm256_loadu_ps(x + base), vs));
  }
  if (base < n) {
    const __m256i mask = tail_mask(n - base);
    const __m256 xv = _mm256_maskload_ps(x + base, mask);
    _mm256_maskstore_ps(x + base, mask, _mm256_mul_ps(xv, vs));
  }
}

float reduce_max(const float* x, Index n) noexcept {
  __m256 s = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    s = _mm256_max_ps(s, _mm256_loadu_ps(x + base));
  }
  if (base < n) {
    const __m256i mask = tail_mask(n - base);
    const __m256 loaded = _mm256_maskload_ps(x + base, mask);
    const __m256 neg_inf = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
    s = _mm256_max_ps(s, _mm256_blendv_ps(neg_inf, loaded, _mm256_castsi256_ps(mask)));
  }
  return reduce_tree_max(s);
}

float reduce_sum(const float* x, Index n) noexcept {
  __m256 s = _mm256_setzero_ps();
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    s = _mm256_add_ps(s, _mm256_loadu_ps(x + base));
  }
  if (base < n) {
    s = _mm256_add_ps(s, _mm256_maskload_ps(x + base, tail_mask(n - base)));
  }
  return reduce_tree_add(s);
}

// --- the tiled row fold -----------------------------------------------

inline __m256 load8(const float* p) noexcept { return _mm256_loadu_ps(p); }
inline __m256 load8(const half_t* p) noexcept { return load_h8(p); }
inline __m256 load_tail(const float* p, Index r) noexcept {
  return _mm256_maskload_ps(p, tail_mask(r));
}
inline __m256 load_tail(const half_t* p, Index r) noexcept { return load_h_tail(p, r); }

/// Horizontal sums of four accumulators: lane t of the result is Σ a_t.
inline __m128 reduce_add4(__m256 a0, __m256 a1, __m256 a2, __m256 a3) noexcept {
  const __m256 t01 = _mm256_add_ps(_mm256_permute2f128_ps(a0, a1, 0x20),
                                   _mm256_permute2f128_ps(a0, a1, 0x31));
  const __m256 t23 = _mm256_add_ps(_mm256_permute2f128_ps(a2, a3, 0x20),
                                   _mm256_permute2f128_ps(a2, a3, 0x31));
  const __m256 u = _mm256_add_ps(_mm256_shuffle_ps(t01, t23, _MM_SHUFFLE(1, 0, 1, 0)),
                                 _mm256_shuffle_ps(t01, t23, _MM_SHUFFLE(3, 2, 3, 2)));
  const __m256 r = _mm256_add_ps(_mm256_shuffle_ps(u, u, _MM_SHUFFLE(2, 0, 2, 0)),
                                 _mm256_shuffle_ps(u, u, _MM_SHUFFLE(3, 1, 3, 1)));
  return _mm_unpacklo_ps(_mm256_castps256_ps128(r), _mm256_extractf128_ps(r, 1));
}

template <typename KV>
inline __m128 dot4(const float* q, const KV* k0, const KV* k1, const KV* k2, const KV* k3,
                   Index d) noexcept {
  __m256 a0 = _mm256_setzero_ps(), a1 = a0, a2 = a0, a3 = a0;
  Index x = 0;
  for (; x + kLanes <= d; x += kLanes) {
    const __m256 qv = _mm256_loadu_ps(q + x);
    a0 = _mm256_fmadd_ps(qv, load8(k0 + x), a0);
    a1 = _mm256_fmadd_ps(qv, load8(k1 + x), a1);
    a2 = _mm256_fmadd_ps(qv, load8(k2 + x), a2);
    a3 = _mm256_fmadd_ps(qv, load8(k3 + x), a3);
  }
  if (x < d) {
    const Index r = d - x;
    const __m256 qv = _mm256_maskload_ps(q + x, tail_mask(r));
    a0 = _mm256_fmadd_ps(qv, load_tail(k0 + x, r), a0);
    a1 = _mm256_fmadd_ps(qv, load_tail(k1 + x, r), a1);
    a2 = _mm256_fmadd_ps(qv, load_tail(k2 + x, r), a2);
    a3 = _mm256_fmadd_ps(qv, load_tail(k3 + x, r), a3);
  }
  return reduce_add4(a0, a1, a2, a3);
}

/// exp(x) for x <= 0 (or NaN): Cody–Waite range reduction x = n·ln2 + r,
/// |r| <= ln2/2, a degree-7 polynomial for e^r, and 2^n applied as two
/// normal power-of-two factors so a denormal result rounds once. Lanes
/// below -104 — where exp rounds to 0 in binary32, -inf included — are
/// set to exactly 0 without evaluating them (a tile's dead and masked
/// lanes would otherwise pay a denormal-result assist each). exp(0) = 1
/// exactly; a NaN input yields NaN.
inline __m256 exp_nonpos(__m256 x) noexcept {
  const __m256 live = _mm256_cmp_ps(x, _mm256_set1_ps(kExpLo), _CMP_NLT_UQ);
  x = _mm256_and_ps(live, x);
  const __m256 n = _mm256_round_ps(_mm256_mul_ps(x, _mm256_set1_ps(kLog2e)),
                                   _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_fnmadd_ps(n, _mm256_set1_ps(kLn2Hi), x);
  r = _mm256_fnmadd_ps(n, _mm256_set1_ps(kLn2Lo), r);
  __m256 y = _mm256_set1_ps(kExpP[0]);
  for (int i = 1; i < kExpTerms; ++i) y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(kExpP[i]));
  y = _mm256_fmadd_ps(y, _mm256_mul_ps(r, r), r);
  y = _mm256_add_ps(y, _mm256_set1_ps(1.0f));
  const __m256i ni = _mm256_cvtps_epi32(n);  // n in [-150, 0]; NaN lanes stay NaN via y
  const __m256i n1 = _mm256_srai_epi32(ni, 1);
  const __m256i n2 = _mm256_sub_epi32(ni, n1);
  const __m256i bias = _mm256_set1_epi32(127);
  const __m256 s1 = _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_add_epi32(n1, bias), 23));
  const __m256 s2 = _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_add_epi32(n2, bias), 23));
  return _mm256_and_ps(live, _mm256_mul_ps(_mm256_mul_ps(y, s1), s2));
}

template <typename KV>
void fold_tile_impl(const float* q, const KV* const* k, const KV* const* v, const float* gate,
                    Index n, Index d, float scale, bool use_gate, float& m, float& l,
                    float* acc) noexcept {
  alignas(32) float p[kTile];
  for (Index j = 0; j < n; j += 4) {
    const Index last = n - 1;
    _mm_store_ps(p + j, dot4(q, k[j], k[std::min(j + 1, last)], k[std::min(j + 2, last)],
                             k[std::min(j + 3, last)], d));
  }
  // Scores in two 8-edge halves; dead lanes hold -inf, so they weigh 0.
  const __m256 neg_inf = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  const __m256 vscale = _mm256_set1_ps(scale);
  __m256 s[2];
  for (int h = 0; h < 2; ++h) {
    const __m256i live = tail_mask(n - 8 * h);  // all lanes when >= 8, none when <= 0
    __m256 sh = _mm256_mul_ps(_mm256_load_ps(p + 8 * h), vscale);
    if (use_gate) sh = _mm256_mul_ps(sh, _mm256_maskload_ps(gate + 8 * h, live));
    s[h] = _mm256_blendv_ps(neg_inf, sh, _mm256_castsi256_ps(live));
  }
  const float tile_max = reduce_tree_max(_mm256_max_ps(s[0], s[1]));
  const float m_new = tile_max > m ? tile_max : m;
  if (m_new == -std::numeric_limits<float>::infinity()) return;  // row still empty
  const __m256 vm = _mm256_set1_ps(m_new);
  const __m256 p0 = exp_nonpos(_mm256_sub_ps(s[0], vm));
  const __m256 p1 = exp_nonpos(_mm256_sub_ps(s[1], vm));
  const float alpha = m == m_new ? 1.0f
                      : m == -std::numeric_limits<float>::infinity()
                          ? 0.0f  // first tile of the row
                          : _mm256_cvtss_f32(exp_nonpos(_mm256_set1_ps(m - m_new)));
  l = l * alpha + reduce_tree_add(_mm256_add_ps(p0, p1));
  m = m_new;
  _mm256_store_ps(p, p0);
  _mm256_store_ps(p + 8, p1);

  const __m256 va = _mm256_set1_ps(alpha);
  Index c = 0;
  for (; c + 4 * kLanes <= d; c += 4 * kLanes) {
    __m256 t0 = _mm256_setzero_ps(), t1 = t0, t2 = t0, t3 = t0;
    for (Index j = 0; j < n; ++j) {
      const __m256 pj = _mm256_set1_ps(p[j]);
      const KV* vj = v[j] + c;
      t0 = _mm256_fmadd_ps(pj, load8(vj), t0);
      t1 = _mm256_fmadd_ps(pj, load8(vj + kLanes), t1);
      t2 = _mm256_fmadd_ps(pj, load8(vj + 2 * kLanes), t2);
      t3 = _mm256_fmadd_ps(pj, load8(vj + 3 * kLanes), t3);
    }
    float* a = acc + c;
    _mm256_storeu_ps(a, _mm256_fmadd_ps(_mm256_loadu_ps(a), va, t0));
    _mm256_storeu_ps(a + kLanes, _mm256_fmadd_ps(_mm256_loadu_ps(a + kLanes), va, t1));
    _mm256_storeu_ps(a + 2 * kLanes,
                     _mm256_fmadd_ps(_mm256_loadu_ps(a + 2 * kLanes), va, t2));
    _mm256_storeu_ps(a + 3 * kLanes,
                     _mm256_fmadd_ps(_mm256_loadu_ps(a + 3 * kLanes), va, t3));
  }
  for (; c + kLanes <= d; c += kLanes) {
    __m256 t = _mm256_setzero_ps();
    for (Index j = 0; j < n; ++j) t = _mm256_fmadd_ps(_mm256_set1_ps(p[j]), load8(v[j] + c), t);
    _mm256_storeu_ps(acc + c, _mm256_fmadd_ps(_mm256_loadu_ps(acc + c), va, t));
  }
  if (c < d) {
    const Index r = d - c;
    const __m256i mask = tail_mask(r);
    __m256 t = _mm256_setzero_ps();
    for (Index j = 0; j < n; ++j) {
      t = _mm256_fmadd_ps(_mm256_set1_ps(p[j]), load_tail(v[j] + c, r), t);
    }
    _mm256_maskstore_ps(acc + c, mask,
                        _mm256_fmadd_ps(_mm256_maskload_ps(acc + c, mask), va, t));
  }
}

void fold_tile(const float* q, const float* const* k, const float* const* v, const float* gate,
               Index n, Index d, float scale, bool use_gate, float& m, float& l,
               float* acc) noexcept {
  fold_tile_impl(q, k, v, gate, n, d, scale, use_gate, m, l, acc);
}

void fold_tile_h(const float* q, const half_t* const* k, const half_t* const* v,
                 const float* gate, Index n, Index d, float scale, bool use_gate, float& m,
                 float& l, float* acc) noexcept {
  fold_tile_impl(q, k, v, gate, n, d, scale, use_gate, m, l, acc);
}

void h2f(float* dst, const half_t* src, Index n) noexcept {
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    _mm256_storeu_ps(dst + base, load_h8(src + base));
  }
  if (base < n) {
    const Index r = n - base;
    _mm256_maskstore_ps(dst + base, tail_mask(r), load_h_tail(src + base, r));
  }
}

void f2h(half_t* dst, const float* src, Index n) noexcept {
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    const __m128i h = _mm256_cvtps_ph(_mm256_loadu_ps(src + base), _MM_FROUND_TO_NEAREST_INT);
    std::memcpy(static_cast<void*>(dst + base), &h, sizeof h);
  }
  if (base < n) {
    const Index r = n - base;
    const __m256 v = _mm256_maskload_ps(src + base, tail_mask(r));
    alignas(16) std::uint16_t buf[8];
    const __m128i h = _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT);
    _mm_store_si128(reinterpret_cast<__m128i*>(buf), h);
    std::memcpy(static_cast<void*>(dst + base), buf,
                static_cast<std::size_t>(r) * sizeof(std::uint16_t));
  }
}

}  // namespace

const VecOps kAvx2FmaOps = {dot,       axpy,        scale, reduce_max, reduce_sum,
                            fold_tile, fold_tile_h, h2f,   f2h};

}  // namespace gpa::simd::detail
