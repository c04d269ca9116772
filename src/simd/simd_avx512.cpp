// Relaxed AVX-512 arm of the SIMD dispatch — the only translation unit
// compiled with -mavx512f, behind the GPA_ENABLE_AVX512 CMake gate.
// Sixteen lanes with explicit fused multiply-adds: both the lane count
// and the single-rounding FMAs reassociate every reduction relative to
// the 8-lane contract, and fold_tile evaluates a whole tile's
// exponentials with one vector polynomial, so this arm is deterministic
// (same inputs, same bits, every run and schedule) but only bounded
// against the scalar reference (tests/test_simd_parity.cpp derives and
// pins the bounds).
//
// Tails use AVX-512's native per-lane masking (__mmask16 zero-masked
// loads / masked stores) for floats; half rows stage through a
// zero-padded stack block (VCVTPH2PS has no masked form on the __m256i
// source). Dead lanes hold the op identity: +0.0f for sums and dots,
// -inf for max.

#if !defined(GPA_SIMD_AVX512)
#error "simd_avx512.cpp must only be compiled when GPA_SIMD_AVX512 is defined"
#endif

#include <immintrin.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "simd/ops_tables.hpp"

namespace gpa::simd::detail {
namespace {

constexpr Index kLanes = 16;

inline __mmask16 tail_mask(Index r) noexcept {
  return static_cast<__mmask16>((1u << static_cast<unsigned>(r)) - 1u);
}

/// Sixteen halfs -> sixteen floats (exact).
inline __m512 load_h16(const half_t* p) noexcept {
  __m256i raw;
  std::memcpy(&raw, p, sizeof raw);
  return _mm512_cvtph_ps(raw);
}

/// Tail load: r < 16 halfs through a zero-padded stack block (dead
/// lanes hold +0.0f).
inline __m512 load_h_tail(const half_t* p, Index r) noexcept {
  alignas(32) std::uint16_t buf[16] = {};
  std::memcpy(buf, p, static_cast<std::size_t>(r) * sizeof(std::uint16_t));
  return _mm512_cvtph_ps(_mm256_load_si256(reinterpret_cast<const __m256i*>(buf)));
}

float dot(const float* a, const float* b, Index n) noexcept {
  __m512 s = _mm512_setzero_ps();
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    s = _mm512_fmadd_ps(_mm512_loadu_ps(a + base), _mm512_loadu_ps(b + base), s);
  }
  if (base < n) {
    const __mmask16 m = tail_mask(n - base);
    const __m512 av = _mm512_maskz_loadu_ps(m, a + base);
    const __m512 bv = _mm512_maskz_loadu_ps(m, b + base);
    s = _mm512_fmadd_ps(av, bv, s);  // dead lanes contribute fma(0,0,s) = s
  }
  return _mm512_reduce_add_ps(s);
}

void axpy(float* acc, float beta, const float* v, Index n) noexcept {
  const __m512 vb = _mm512_set1_ps(beta);
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    const __m512 accv = _mm512_loadu_ps(acc + base);
    _mm512_storeu_ps(acc + base, _mm512_fmadd_ps(vb, _mm512_loadu_ps(v + base), accv));
  }
  if (base < n) {
    const __mmask16 m = tail_mask(n - base);
    const __m512 accv = _mm512_maskz_loadu_ps(m, acc + base);
    const __m512 vv = _mm512_maskz_loadu_ps(m, v + base);
    _mm512_mask_storeu_ps(acc + base, m, _mm512_fmadd_ps(vb, vv, accv));
  }
}

void scale(float* x, float s, Index n) noexcept {
  const __m512 vs = _mm512_set1_ps(s);
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    _mm512_storeu_ps(x + base, _mm512_mul_ps(_mm512_loadu_ps(x + base), vs));
  }
  if (base < n) {
    const __mmask16 m = tail_mask(n - base);
    const __m512 xv = _mm512_maskz_loadu_ps(m, x + base);
    _mm512_mask_storeu_ps(x + base, m, _mm512_mul_ps(xv, vs));
  }
}

float reduce_max(const float* x, Index n) noexcept {
  const __m512 neg_inf = _mm512_set1_ps(-std::numeric_limits<float>::infinity());
  __m512 s = neg_inf;
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    s = _mm512_max_ps(s, _mm512_loadu_ps(x + base));
  }
  if (base < n) {
    // Dead tail lanes must see the max identity (-inf), not 0.0f.
    const __mmask16 m = tail_mask(n - base);
    s = _mm512_max_ps(s, _mm512_mask_loadu_ps(neg_inf, m, x + base));
  }
  return _mm512_reduce_max_ps(s);
}

float reduce_sum(const float* x, Index n) noexcept {
  __m512 s = _mm512_setzero_ps();
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    s = _mm512_add_ps(s, _mm512_loadu_ps(x + base));
  }
  if (base < n) {
    s = _mm512_add_ps(s, _mm512_maskz_loadu_ps(tail_mask(n - base), x + base));
  }
  return _mm512_reduce_add_ps(s);
}

// --- the tiled row fold -----------------------------------------------

inline __m512 load16(const float* p) noexcept { return _mm512_loadu_ps(p); }
inline __m512 load16(const half_t* p) noexcept { return load_h16(p); }
inline __m512 load_tail(const float* p, Index r) noexcept {
  return _mm512_maskz_loadu_ps(tail_mask(r), p);
}
inline __m512 load_tail(const half_t* p, Index r) noexcept { return load_h_tail(p, r); }

/// Horizontal sums of four accumulators: lane t of the result is Σ a_t.
inline __m128 reduce_add4(__m512 a0, __m512 a1, __m512 a2, __m512 a3) noexcept {
  // 16 -> 8 lanes each, two accumulators per register.
  const __m512 x01 = _mm512_add_ps(_mm512_shuffle_f32x4(a0, a1, _MM_SHUFFLE(1, 0, 1, 0)),
                                   _mm512_shuffle_f32x4(a0, a1, _MM_SHUFFLE(3, 2, 3, 2)));
  const __m512 x23 = _mm512_add_ps(_mm512_shuffle_f32x4(a2, a3, _MM_SHUFFLE(1, 0, 1, 0)),
                                   _mm512_shuffle_f32x4(a2, a3, _MM_SHUFFLE(3, 2, 3, 2)));
  // 8 -> 4 lanes: 128-bit block t holds accumulator t.
  const __m512 y = _mm512_add_ps(_mm512_shuffle_f32x4(x01, x23, _MM_SHUFFLE(2, 0, 2, 0)),
                                 _mm512_shuffle_f32x4(x01, x23, _MM_SHUFFLE(3, 1, 3, 1)));
  // 4 -> 1 inside each block, then gather the blocks' lane 0.
  const __m512 z = _mm512_add_ps(y, _mm512_permute_ps(y, _MM_SHUFFLE(2, 3, 0, 1)));
  const __m512 w = _mm512_add_ps(z, _mm512_permute_ps(z, _MM_SHUFFLE(1, 0, 3, 2)));
  const __m512i lane0 = _mm512_setr_epi32(0, 4, 8, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0);
  return _mm512_castps512_ps128(_mm512_permutexvar_ps(lane0, w));
}

template <typename KV>
inline __m128 dot4(const float* q, const KV* k0, const KV* k1, const KV* k2, const KV* k3,
                   Index d) noexcept {
  __m512 a0 = _mm512_setzero_ps(), a1 = a0, a2 = a0, a3 = a0;
  Index x = 0;
  for (; x + kLanes <= d; x += kLanes) {
    const __m512 qv = _mm512_loadu_ps(q + x);
    a0 = _mm512_fmadd_ps(qv, load16(k0 + x), a0);
    a1 = _mm512_fmadd_ps(qv, load16(k1 + x), a1);
    a2 = _mm512_fmadd_ps(qv, load16(k2 + x), a2);
    a3 = _mm512_fmadd_ps(qv, load16(k3 + x), a3);
  }
  if (x < d) {
    const Index r = d - x;
    const __m512 qv = _mm512_maskz_loadu_ps(tail_mask(r), q + x);
    a0 = _mm512_fmadd_ps(qv, load_tail(k0 + x, r), a0);
    a1 = _mm512_fmadd_ps(qv, load_tail(k1 + x, r), a1);
    a2 = _mm512_fmadd_ps(qv, load_tail(k2 + x, r), a2);
    a3 = _mm512_fmadd_ps(qv, load_tail(k3 + x, r), a3);
  }
  return reduce_add4(a0, a1, a2, a3);
}

/// exp(x) for x <= 0 (or NaN): Cody–Waite range reduction x = n·ln2 + r,
/// |r| <= ln2/2, a degree-7 polynomial for e^r, and VSCALEFPS for 2^n,
/// which rounds a denormal result once. Lanes below -104 — where exp
/// rounds to 0 in binary32, -inf included — are set to exactly 0
/// without evaluating them (a tile's dead and masked lanes would
/// otherwise pay a denormal-result assist each). exp(0) = 1 exactly; a
/// NaN input yields NaN.
inline __m512 exp_nonpos(__m512 x) noexcept {
  const __mmask16 live = _mm512_cmp_ps_mask(x, _mm512_set1_ps(kExpLo), _CMP_NLT_UQ);
  x = _mm512_maskz_mov_ps(live, x);
  const __m512 n = _mm512_roundscale_ps(_mm512_mul_ps(x, _mm512_set1_ps(kLog2e)),
                                        _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m512 r = _mm512_fnmadd_ps(n, _mm512_set1_ps(kLn2Hi), x);
  r = _mm512_fnmadd_ps(n, _mm512_set1_ps(kLn2Lo), r);
  __m512 y = _mm512_set1_ps(kExpP[0]);
  for (int i = 1; i < kExpTerms; ++i) y = _mm512_fmadd_ps(y, r, _mm512_set1_ps(kExpP[i]));
  y = _mm512_fmadd_ps(y, _mm512_mul_ps(r, r), r);
  y = _mm512_add_ps(y, _mm512_set1_ps(1.0f));
  return _mm512_maskz_scalef_ps(live, y, n);
}

template <typename KV>
void fold_tile_impl(const float* q, const KV* const* k, const KV* const* v, const float* gate,
                    Index n, Index d, float scale, bool use_gate, float& m, float& l,
                    float* acc) noexcept {
  alignas(64) float p[kTile];
  for (Index j = 0; j < n; j += 4) {
    const Index last = n - 1;
    _mm_store_ps(p + j, dot4(q, k[j], k[std::min(j + 1, last)], k[std::min(j + 2, last)],
                             k[std::min(j + 3, last)], d));
  }
  // Dead lanes hold -inf, so they weigh exp(-inf) = 0.
  const __mmask16 live = tail_mask(n);
  __m512 s = _mm512_mul_ps(_mm512_maskz_load_ps(live, p), _mm512_set1_ps(scale));
  if (use_gate) s = _mm512_mul_ps(s, _mm512_maskz_loadu_ps(live, gate));
  s = _mm512_mask_blend_ps(live, _mm512_set1_ps(-std::numeric_limits<float>::infinity()), s);
  const float tile_max = _mm512_reduce_max_ps(s);
  const float m_new = tile_max > m ? tile_max : m;
  if (m_new == -std::numeric_limits<float>::infinity()) return;  // row still empty
  const __m512 pv = exp_nonpos(_mm512_sub_ps(s, _mm512_set1_ps(m_new)));
  const float alpha = m == m_new ? 1.0f
                      : m == -std::numeric_limits<float>::infinity()
                          ? 0.0f  // first tile of the row
                          : _mm512_cvtss_f32(exp_nonpos(_mm512_set1_ps(m - m_new)));
  l = l * alpha + _mm512_reduce_add_ps(pv);
  m = m_new;
  _mm512_store_ps(p, pv);

  const __m512 va = _mm512_set1_ps(alpha);
  Index c = 0;
  for (; c + 4 * kLanes <= d; c += 4 * kLanes) {
    __m512 t0 = _mm512_setzero_ps(), t1 = t0, t2 = t0, t3 = t0;
    for (Index j = 0; j < n; ++j) {
      const __m512 pj = _mm512_set1_ps(p[j]);
      const KV* vj = v[j] + c;
      t0 = _mm512_fmadd_ps(pj, load16(vj), t0);
      t1 = _mm512_fmadd_ps(pj, load16(vj + kLanes), t1);
      t2 = _mm512_fmadd_ps(pj, load16(vj + 2 * kLanes), t2);
      t3 = _mm512_fmadd_ps(pj, load16(vj + 3 * kLanes), t3);
    }
    float* a = acc + c;
    _mm512_storeu_ps(a, _mm512_fmadd_ps(_mm512_loadu_ps(a), va, t0));
    _mm512_storeu_ps(a + kLanes, _mm512_fmadd_ps(_mm512_loadu_ps(a + kLanes), va, t1));
    _mm512_storeu_ps(a + 2 * kLanes,
                     _mm512_fmadd_ps(_mm512_loadu_ps(a + 2 * kLanes), va, t2));
    _mm512_storeu_ps(a + 3 * kLanes,
                     _mm512_fmadd_ps(_mm512_loadu_ps(a + 3 * kLanes), va, t3));
  }
  for (; c + kLanes <= d; c += kLanes) {
    __m512 t = _mm512_setzero_ps();
    for (Index j = 0; j < n; ++j) t = _mm512_fmadd_ps(_mm512_set1_ps(p[j]), load16(v[j] + c), t);
    _mm512_storeu_ps(acc + c, _mm512_fmadd_ps(_mm512_loadu_ps(acc + c), va, t));
  }
  if (c < d) {
    const Index r = d - c;
    const __mmask16 mask = tail_mask(r);
    __m512 t = _mm512_setzero_ps();
    for (Index j = 0; j < n; ++j) {
      t = _mm512_fmadd_ps(_mm512_set1_ps(p[j]), load_tail(v[j] + c, r), t);
    }
    _mm512_mask_storeu_ps(acc + c, mask,
                          _mm512_fmadd_ps(_mm512_maskz_loadu_ps(mask, acc + c), va, t));
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
    _mm512_storeu_ps(dst + base, load_h16(src + base));
  }
  if (base < n) {
    const Index r = n - base;
    _mm512_mask_storeu_ps(dst + base, tail_mask(r), load_h_tail(src + base, r));
  }
}

void f2h(half_t* dst, const float* src, Index n) noexcept {
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    const __m256i h = _mm512_cvtps_ph(_mm512_loadu_ps(src + base), _MM_FROUND_TO_NEAREST_INT);
    std::memcpy(static_cast<void*>(dst + base), &h, sizeof h);
  }
  if (base < n) {
    const Index r = n - base;
    const __m512 v = _mm512_maskz_loadu_ps(tail_mask(r), src + base);
    alignas(32) std::uint16_t buf[16];
    const __m256i h = _mm512_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT);
    _mm256_store_si256(reinterpret_cast<__m256i*>(buf), h);
    std::memcpy(static_cast<void*>(dst + base), buf,
                static_cast<std::size_t>(r) * sizeof(std::uint16_t));
  }
}

}  // namespace

const VecOps kAvx512Ops = {dot,       axpy,        scale, reduce_max, reduce_sum,
                           fold_tile, fold_tile_h, h2f,   f2h};

}  // namespace gpa::simd::detail
