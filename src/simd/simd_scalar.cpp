// Scalar reference arm of the SIMD dispatch. This file doubles as the
// executable specification of the lane contract documented in simd.hpp:
// eight partial accumulators in lane order, a masked tail block, and a
// fixed pairwise reduction tree — exactly the data flow of the AVX2 arm,
// one lane at a time. The CMake rules compile this translation unit with
// auto-vectorization and FP contraction disabled, so "scalar" is a true
// scalar baseline for the differential harness and the bench trajectory.

#include <cmath>
#include <limits>

#include "simd/ops_tables.hpp"

namespace gpa::simd::detail {
namespace {

constexpr int kLanes = 8;

/// Mirror of x86 MAXPS: a > b ? a : b (returns b on unordered and for
/// equal/signed-zero operands, matching the instruction).
inline float maxps(float a, float b) noexcept { return a > b ? a : b; }

inline float reduce_tree_add(const float* s) noexcept {
  const float t0 = s[0] + s[4];
  const float t1 = s[1] + s[5];
  const float t2 = s[2] + s[6];
  const float t3 = s[3] + s[7];
  const float u0 = t0 + t2;
  const float u1 = t1 + t3;
  return u0 + u1;
}

inline float reduce_tree_max(const float* s) noexcept {
  const float t0 = maxps(s[0], s[4]);
  const float t1 = maxps(s[1], s[5]);
  const float t2 = maxps(s[2], s[6]);
  const float t3 = maxps(s[3], s[7]);
  const float u0 = maxps(t0, t2);
  const float u1 = maxps(t1, t3);
  return maxps(u0, u1);
}

// Widening binary16 -> binary32 is exact (every half value is a float),
// so the half instantiations run the identical arithmetic over the
// widened values and stay bit-identical to the AVX2 arm's F16C path:
// VCVTPH2PS performs the identical exact conversion.
inline float widen(float x) noexcept { return x; }
inline float widen(half_t x) noexcept { return static_cast<float>(x); }

/// The lane-contract dot of a float query row against a float or half
/// row.
template <typename KV>
float dot_row(const float* q, const KV* k, Index n) noexcept {
  float s[kLanes] = {};
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    for (int l = 0; l < kLanes; ++l) s[l] += q[base + l] * widen(k[base + l]);
  }
  if (base < n) {
    for (int l = 0; l < kLanes; ++l) {
      s[l] += base + l < n ? q[base + l] * widen(k[base + l]) : 0.0f;
    }
  }
  return reduce_tree_add(s);
}

float dot(const float* a, const float* b, Index n) noexcept { return dot_row(a, b, n); }

void axpy(float* acc, float beta, const float* v, Index n) noexcept {
  for (Index i = 0; i < n; ++i) acc[i] = acc[i] + beta * v[i];
}

void scale(float* x, float s, Index n) noexcept {
  for (Index i = 0; i < n; ++i) x[i] = x[i] * s;
}

float reduce_max(const float* x, Index n) noexcept {
  float s[kLanes];
  for (int l = 0; l < kLanes; ++l) s[l] = -std::numeric_limits<float>::infinity();
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    for (int l = 0; l < kLanes; ++l) s[l] = maxps(s[l], x[base + l]);
  }
  if (base < n) {
    // Dead tail lanes see -inf (the max identity), like the AVX2 arm's
    // blend of the masked load.
    for (int l = 0; l < kLanes; ++l) {
      s[l] = maxps(s[l], base + l < n ? x[base + l]
                                      : -std::numeric_limits<float>::infinity());
    }
  }
  return reduce_tree_max(s);
}

float reduce_sum(const float* x, Index n) noexcept {
  float s[kLanes] = {};
  Index base = 0;
  for (; base + kLanes <= n; base += kLanes) {
    for (int l = 0; l < kLanes; ++l) s[l] += x[base + l];
  }
  if (base < n) {
    for (int l = 0; l < kLanes; ++l) s[l] += base + l < n ? x[base + l] : 0.0f;
  }
  return reduce_tree_add(s);
}

// --- the tiled row fold -----------------------------------------------
// Executable specification of VecOps::fold_tile on the bitwise arms:
// lane-contract dots, the shared softmax step (fold_tile_weights), then
// per element t = Σ_j p_j·v_j in j order from +0 and acc = acc·α + t.

/// Columns per accumulate block: the tile's Σ p_j·v_j is summed into a
/// stack block, then merged as acc·α + block.
constexpr Index kColBlock = 64;

template <typename KV>
void fold_tile_impl(const float* q, const KV* const* k, const KV* const* v, const float* gate,
                    Index n, Index d, float scale, bool use_gate, float& m, float& l,
                    float* acc) noexcept {
  float p[kTile];
  for (Index j = 0; j < n; ++j) p[j] = dot_row(q, k[j], d);
  float alpha;
  if (!fold_tile_weights(p, n, scale, gate, use_gate, m, l, alpha)) return;
  for (Index c0 = 0; c0 < d; c0 += kColBlock) {
    const Index w = d - c0 < kColBlock ? d - c0 : kColBlock;
    float t[kColBlock] = {};
    for (Index j = 0; j < n; ++j) {
      const KV* vj = v[j] + c0;
      for (Index x = 0; x < w; ++x) t[x] += p[j] * widen(vj[x]);
    }
    for (Index x = 0; x < w; ++x) acc[c0 + x] = acc[c0 + x] * alpha + t[x];
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

// --- fp16 conversions -------------------------------------------------

void h2f(float* dst, const half_t* src, Index n) noexcept {
  for (Index i = 0; i < n; ++i) dst[i] = static_cast<float>(src[i]);
}

void f2h(half_t* dst, const float* src, Index n) noexcept {
  for (Index i = 0; i < n; ++i) dst[i] = half_t(src[i]);
}

}  // namespace

bool fold_tile_weights(float* s, Index n, float scale, const float* gate, bool use_gate,
                       float& m, float& l, float& alpha) noexcept {
  float m_new = m;
  for (Index j = 0; j < n; ++j) {
    s[j] = s[j] * scale;
    if (use_gate) s[j] = s[j] * gate[j];
    m_new = maxps(s[j], m_new);
  }
  if (m_new == -std::numeric_limits<float>::infinity()) return false;  // row still empty
  alpha = std::exp(m - m_new);
  float psum = 0.0f;
  for (Index j = 0; j < n; ++j) {
    s[j] = std::exp(s[j] - m_new);
    psum += s[j];
  }
  l = l * alpha + psum;
  m = m_new;
  return true;
}

const VecOps kScalarOps = {dot,       axpy,        scale, reduce_max, reduce_sum,
                           fold_tile, fold_tile_h, h2f,   f2h};

}  // namespace gpa::simd::detail
