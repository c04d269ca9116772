#pragma once
// Internal linkage point between the dispatcher and the per-arm
// translation units. Not part of the public simd API.

#include "simd/simd.hpp"

namespace gpa::simd::detail {

/// Portable scalar reference arm (simd_scalar.cpp — compiled with
/// auto-vectorization off so the differential baseline is honest).
extern const VecOps kScalarOps;

/// The softmax step of the bitwise arms' fold_tile (simd_scalar.cpp),
/// shared so scalar and avx2 run literally the same code: turns the raw
/// dots s[0..n) into weights p_j = exp(s_j·scale[·gate_j] − m') in
/// place and updates (m, l). Returns false, leaving the state and the
/// accumulator untouched, when the row is still empty (m' == -inf);
/// otherwise sets `alpha` = exp(m_old − m'), the accumulator rescale.
bool fold_tile_weights(float* s, Index n, float scale, const float* gate, bool use_gate,
                       float& m, float& l, float& alpha) noexcept;

/// Constants of the relaxed arms' vector exp (Cephes expf): below
/// kExpLo exp rounds to 0 in binary32; ln2 is split hi + lo for the
/// Cody–Waite reduction; e^r ≈ 1 + r + r²·P(r) with P's coefficients
/// highest degree first.
inline constexpr float kExpLo = -104.0f;
inline constexpr float kLog2e = 1.44269504088896341f;
inline constexpr float kLn2Hi = 0.693359375f;
inline constexpr float kLn2Lo = -2.12194440e-4f;
inline constexpr int kExpTerms = 6;
inline constexpr float kExpP[kExpTerms] = {1.9875691500e-4f, 1.3981999507e-3f,
                                           8.3334519073e-3f, 4.1665795894e-2f,
                                           1.6666665459e-1f, 5.0000001201e-1f};

#if defined(GPA_SIMD_AVX2)
/// Bitwise AVX2 arm (simd_avx2.cpp — built with -mavx2 -mf16c and
/// -ffp-contract=off; pinned bit-identical to the scalar arm).
extern const VecOps kAvx2Ops;
#endif

#if defined(GPA_SIMD_AVX2_FMA)
/// Relaxed AVX2+FMA arm (simd_avx2_fma.cpp — -mavx2 -mfma -mf16c,
/// explicit fused multiply-adds; ULP-bounded vs scalar).
extern const VecOps kAvx2FmaOps;
#endif

#if defined(GPA_SIMD_AVX512)
/// Relaxed AVX-512 arm (simd_avx512.cpp — -mavx512f, 16 lanes with FMA;
/// ULP-bounded vs scalar).
extern const VecOps kAvx512Ops;
#endif

}  // namespace gpa::simd::detail
