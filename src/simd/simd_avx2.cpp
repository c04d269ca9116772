// Bitwise AVX2 arm of the SIMD dispatch — compiled with -mavx2 -mf16c
// and -ffp-contract=off: the mul/add pairs below must not be fused into
// FMAs, or the arm would diverge from the scalar lane contract in
// simd.hpp (the relaxed avx2-fma arm exists for exactly that). Tails
// are handled with masked loads/stores for floats and zero-padded stack
// staging for halfs (no 16-bit masked load exists below AVX-512), so no
// lane ever touches memory past n and ASan stays quiet.

#if !defined(GPA_SIMD_AVX2)
#error "simd_avx2.cpp must only be compiled when GPA_SIMD_AVX2 is defined"
#endif

#include <immintrin.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "simd/ops_tables.hpp"

namespace gpa::simd::detail {
namespace {

constexpr Index kLanes = 8;

/// Lane mask for an r-element tail (1 <= r <= 7): lanes < r are enabled
/// (sign bit set, as maskload/maskstore/blendv require).
inline __m256i tail_mask(Index r) noexcept {
  const __m256i lane_ids = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(r)), lane_ids);
}

/// The fixed pairwise tree of the lane contract: t = lo ⊕ hi, then the
/// {0,2}/{1,3} pair, then the final pair.
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

float dot(const float* a, const float* b, Index n) noexcept {
  __m256 s = _mm256_setzero_ps();
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    const __m256 av = _mm256_loadu_ps(a + base);
    const __m256 bv = _mm256_loadu_ps(b + base);
    s = _mm256_add_ps(s, _mm256_mul_ps(av, bv));
  }
  if (base < n) {
    const __m256i mask = tail_mask(n - base);
    const __m256 av = _mm256_maskload_ps(a + base, mask);
    const __m256 bv = _mm256_maskload_ps(b + base, mask);
    s = _mm256_add_ps(s, _mm256_mul_ps(av, bv));  // dead lanes add +0.0f
  }
  return reduce_tree_add(s);
}

void axpy(float* acc, float beta, const float* v, Index n) noexcept {
  const __m256 vb = _mm256_set1_ps(beta);
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    const __m256 accv = _mm256_loadu_ps(acc + base);
    const __m256 vv = _mm256_loadu_ps(v + base);
    _mm256_storeu_ps(acc + base, _mm256_add_ps(accv, _mm256_mul_ps(vb, vv)));
  }
  if (base < n) {
    const __m256i mask = tail_mask(n - base);
    const __m256 accv = _mm256_maskload_ps(acc + base, mask);
    const __m256 vv = _mm256_maskload_ps(v + base, mask);
    _mm256_maskstore_ps(acc + base, mask, _mm256_add_ps(accv, _mm256_mul_ps(vb, vv)));
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
    // Dead tail lanes must see the max identity (-inf), not the 0.0f a
    // masked load yields — the all-masked-row convention depends on it.
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

// --- fp16 loads (F16C) -----------------------------------------------
// VCVTPH2PS widens binary16 -> binary32 exactly — the same values the
// scalar arm's software converter produces — so the half fold below
// stays bit-identical to the scalar arm by the lane contract.

/// Eight halfs -> eight floats (exact).
inline __m256 load_h8(const half_t* p) noexcept {
  __m128i raw;
  std::memcpy(&raw, p, sizeof raw);
  return _mm256_cvtph_ps(raw);
}

/// Tail load: r < 8 halfs, staged through a zero-padded stack block so
/// the vector load never reads past the caller's range. Dead lanes hold
/// +0.0f — exactly what the lane contract's masked loads yield.
inline __m256 load_h_tail(const half_t* p, Index r) noexcept {
  alignas(16) std::uint16_t buf[8] = {};
  std::memcpy(buf, p, static_cast<std::size_t>(r) * sizeof(std::uint16_t));
  return _mm256_cvtph_ps(_mm_load_si128(reinterpret_cast<const __m128i*>(buf)));
}

// --- the tiled row fold -----------------------------------------------
// Dots under the lane contract, four at a time with one transposed
// reduction; the softmax step is the scalar arm's own code; the tile's
// Σ p_j·v_j accumulates in registers, column block by column block, in
// the scalar arm's per-element order (t + p_j·v_j, then acc·α + t).

inline __m256 load8(const float* p) noexcept { return _mm256_loadu_ps(p); }
inline __m256 load8(const half_t* p) noexcept { return load_h8(p); }
inline __m256 load_tail(const float* p, Index r) noexcept {
  return _mm256_maskload_ps(p, tail_mask(r));
}
inline __m256 load_tail(const half_t* p, Index r) noexcept { return load_h_tail(p, r); }

/// reduce_tree_add of four accumulators at once: lane t of the result
/// is exactly reduce_tree_add(a_t) — the same three pairwise steps,
/// transposed so the four reductions share their shuffles.
inline __m128 reduce_tree_add4(__m256 a0, __m256 a1, __m256 a2, __m256 a3) noexcept {
  // t_l = s_l + s_{l+4}: [a0.t | a1.t] and [a2.t | a3.t].
  const __m256 t01 = _mm256_add_ps(_mm256_permute2f128_ps(a0, a1, 0x20),
                                   _mm256_permute2f128_ps(a0, a1, 0x31));
  const __m256 t23 = _mm256_add_ps(_mm256_permute2f128_ps(a2, a3, 0x20),
                                   _mm256_permute2f128_ps(a2, a3, 0x31));
  // u_0 = t_0 + t_2, u_1 = t_1 + t_3: [a0.u a2.u | a1.u a3.u].
  const __m256 u = _mm256_add_ps(_mm256_shuffle_ps(t01, t23, _MM_SHUFFLE(1, 0, 1, 0)),
                                 _mm256_shuffle_ps(t01, t23, _MM_SHUFFLE(3, 2, 3, 2)));
  // r = u_0 + u_1: [r0 r2 r0 r2 | r1 r3 r1 r3], then interleave.
  const __m256 r = _mm256_add_ps(_mm256_shuffle_ps(u, u, _MM_SHUFFLE(2, 0, 2, 0)),
                                 _mm256_shuffle_ps(u, u, _MM_SHUFFLE(3, 1, 3, 1)));
  return _mm_unpacklo_ps(_mm256_castps256_ps128(r), _mm256_extractf128_ps(r, 1));
}

/// Four lane-contract dots of q against k0..k3.
template <typename KV>
inline __m128 dot4(const float* q, const KV* k0, const KV* k1, const KV* k2, const KV* k3,
                   Index d) noexcept {
  __m256 a0 = _mm256_setzero_ps(), a1 = a0, a2 = a0, a3 = a0;
  Index x = 0;
  for (; x + kLanes <= d; x += kLanes) {
    const __m256 qv = _mm256_loadu_ps(q + x);
    a0 = _mm256_add_ps(a0, _mm256_mul_ps(qv, load8(k0 + x)));
    a1 = _mm256_add_ps(a1, _mm256_mul_ps(qv, load8(k1 + x)));
    a2 = _mm256_add_ps(a2, _mm256_mul_ps(qv, load8(k2 + x)));
    a3 = _mm256_add_ps(a3, _mm256_mul_ps(qv, load8(k3 + x)));
  }
  if (x < d) {  // dead lanes add +0.0f, like the scalar arm's tail
    const Index r = d - x;
    const __m256 qv = _mm256_maskload_ps(q + x, tail_mask(r));
    a0 = _mm256_add_ps(a0, _mm256_mul_ps(qv, load_tail(k0 + x, r)));
    a1 = _mm256_add_ps(a1, _mm256_mul_ps(qv, load_tail(k1 + x, r)));
    a2 = _mm256_add_ps(a2, _mm256_mul_ps(qv, load_tail(k2 + x, r)));
    a3 = _mm256_add_ps(a3, _mm256_mul_ps(qv, load_tail(k3 + x, r)));
  }
  return reduce_tree_add4(a0, a1, a2, a3);
}

template <typename KV>
void fold_tile_impl(const float* q, const KV* const* k, const KV* const* v, const float* gate,
                    Index n, Index d, float scale, bool use_gate, float& m, float& l,
                    float* acc) noexcept {
  alignas(16) float p[kTile];
  for (Index j = 0; j < n; j += 4) {
    // A short last group repeats its final row; the extra lanes are
    // never read back.
    const Index last = n - 1;
    _mm_store_ps(p + j, dot4(q, k[j], k[std::min(j + 1, last)], k[std::min(j + 2, last)],
                             k[std::min(j + 3, last)], d));
  }
  float alpha;
  if (!fold_tile_weights(p, n, scale, gate, use_gate, m, l, alpha)) return;

  const __m256 va = _mm256_set1_ps(alpha);
  Index c = 0;
  for (; c + 4 * kLanes <= d; c += 4 * kLanes) {
    __m256 t0 = _mm256_setzero_ps(), t1 = t0, t2 = t0, t3 = t0;
    for (Index j = 0; j < n; ++j) {
      const __m256 pj = _mm256_set1_ps(p[j]);
      const KV* vj = v[j] + c;
      t0 = _mm256_add_ps(t0, _mm256_mul_ps(pj, load8(vj)));
      t1 = _mm256_add_ps(t1, _mm256_mul_ps(pj, load8(vj + kLanes)));
      t2 = _mm256_add_ps(t2, _mm256_mul_ps(pj, load8(vj + 2 * kLanes)));
      t3 = _mm256_add_ps(t3, _mm256_mul_ps(pj, load8(vj + 3 * kLanes)));
    }
    float* a = acc + c;
    _mm256_storeu_ps(a, _mm256_add_ps(_mm256_mul_ps(_mm256_loadu_ps(a), va), t0));
    _mm256_storeu_ps(a + kLanes,
                     _mm256_add_ps(_mm256_mul_ps(_mm256_loadu_ps(a + kLanes), va), t1));
    _mm256_storeu_ps(a + 2 * kLanes,
                     _mm256_add_ps(_mm256_mul_ps(_mm256_loadu_ps(a + 2 * kLanes), va), t2));
    _mm256_storeu_ps(a + 3 * kLanes,
                     _mm256_add_ps(_mm256_mul_ps(_mm256_loadu_ps(a + 3 * kLanes), va), t3));
  }
  for (; c + kLanes <= d; c += kLanes) {
    __m256 t = _mm256_setzero_ps();
    for (Index j = 0; j < n; ++j) {
      t = _mm256_add_ps(t, _mm256_mul_ps(_mm256_set1_ps(p[j]), load8(v[j] + c)));
    }
    _mm256_storeu_ps(acc + c, _mm256_add_ps(_mm256_mul_ps(_mm256_loadu_ps(acc + c), va), t));
  }
  if (c < d) {
    const Index r = d - c;
    const __m256i mask = tail_mask(r);
    __m256 t = _mm256_setzero_ps();
    for (Index j = 0; j < n; ++j) {
      t = _mm256_add_ps(t, _mm256_mul_ps(_mm256_set1_ps(p[j]), load_tail(v[j] + c, r)));
    }
    const __m256 av = _mm256_maskload_ps(acc + c, mask);
    _mm256_maskstore_ps(acc + c, mask, _mm256_add_ps(_mm256_mul_ps(av, va), t));
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

const VecOps kAvx2Ops = {dot,       axpy,        scale, reduce_max, reduce_sum,
                         fold_tile, fold_tile_h, h2f,   f2h};

}  // namespace gpa::simd::detail
