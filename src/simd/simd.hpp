#pragma once
// Runtime-dispatched vector primitives for the d-dimension inner loops.
//
// Every hot kernel reduces to a handful of row operations: the tiled
// online-softmax row fold of graph attention (fold_tile, below), the
// Q·K dot and axpy accumulate of gemm / spmm / flash, a rescale, and
// the max/sum reductions of the softmax passes. This layer provides
// those primitives behind a function-pointer table with four arms:
//
//  * scalar   — the always-compiled portable reference (compiled with
//    auto-vectorization disabled so "scalar" means scalar),
//  * avx2     — 8-lane AVX2 + F16C intrinsics, no FMA contraction,
//    compiled into a dedicated translation unit with -mavx2 -mf16c,
//  * avx2-fma — the same 8-lane shape with fused multiply-adds in the
//    dot / accumulate kernels (-mavx2 -mfma -mf16c), and
//  * avx512   — 16-lane AVX-512F with FMA (-mavx512f), behind the
//    GPA_ENABLE_AVX512 CMake gate.
// The library itself stays runnable on any x86-64; arms are picked at
// runtime (cpuid + GPA_SIMD env + ExecPolicy::simd), and an unavailable
// request clamps down to the best level at or below it.
//
// PARITY CLASSES (load-bearing for the differential test harness):
//
// BITWISE arms — scalar and avx2. Both compute reductions under THE
// LANE CONTRACT: eight partial accumulators in lane order (lane l
// accumulates elements l, l+8, l+16, ...), a masked tail block, and the
// same pairwise reduction tree
//     t_l = op(s_l, s_{l+4});  u_0 = op(t_0, t_2); u_1 = op(t_1, t_3);
//     result = op(u_0, u_1)
// with no FMA contraction anywhere (both units are built with
// -ffp-contract=off). Element-wise ops use the same expression shape and
// operand order in both arms, and fold_tile evaluates its exponentials
// with one libm std::exp call per element in both. Consequence: the
// scalar and AVX2 arms are bit-identical on every input, which
// tests/test_simd_parity.cpp pins down and which keeps the bit-exact
// gates (decode-vs-kernel, cluster oracle, exec-matrix determinism)
// independent of the dispatch decision between the bitwise arms.
//
// RELAXED arms — avx2-fma and avx512. An FMA rounds a·b+c once where
// the contract rounds twice, 16 lanes reassociate every reduction, and
// fold_tile evaluates a tile's exponentials with a vector polynomial,
// so these arms CANNOT be bitwise vs scalar; each is instead (a) still
// deterministic — the same inputs on the same arm give the same bits,
// run-to-run and schedule-to-schedule — and (b) bounded against the
// scalar reference, with bounds derived per call in
// tests/test_simd_parity.cpp. Bit-exact gates between two paths hold on
// every arm as long as both paths fold the same tiles on the same arm;
// gates against the scalar reference force a bitwise arm.
//
// FP16 ops: arithmetic is always float — half values are widened on
// load (exactly: binary16 -> binary32 is lossless, in software and in
// VCVTPH2PS) and accumulated in fp32, so fold_tile_h gives the same
// bits as fold_tile over the widened rows on EVERY arm. f2h narrows
// with round-to-nearest-even, matching common/half.hpp's software
// converter bit-for-bit (test_half_exhaustive pins software == F16C).

#include <string_view>
#include <vector>

#include "common/half.hpp"
#include "common/types.hpp"
#include "simd/simd_level.hpp"

namespace gpa::simd {

/// Edges per fold_tile call: the row fold buffers this many (K row,
/// V row, gate) triples and folds them in one call. A constant, not a
/// knob — tile boundaries are part of the fold's arithmetic.
inline constexpr Index kTile = 16;

/// The dispatch table. All pointers are non-null for every arm.
/// Reductions over n == 0 return the operation identity (0 for sum/dot,
/// -inf for max). NaN propagation in reduce_max follows x86 MAXPS
/// semantics ("a > b ? a : b" per lane) in every arm.
struct VecOps {
  /// Σ a[i]·b[i] under the lane contract.
  float (*dot)(const float* a, const float* b, Index n) noexcept;
  /// acc[i] += beta·v[i].
  void (*axpy)(float* acc, float beta, const float* v, Index n) noexcept;
  /// x[i] *= s.
  void (*scale)(float* x, float s, Index n) noexcept;
  /// max over x under the lane contract; -inf for an empty range.
  float (*reduce_max)(const float* x, Index n) noexcept;
  /// Σ x[i] under the lane contract.
  float (*reduce_sum)(const float* x, Index n) noexcept;

  /// Folds n (1 <= n <= kTile) edges of one row into its online-softmax
  /// state (m, l, acc[0..d)), with j ascending everywhere:
  ///   s_j = (q·k_j)·scale, then ·gate[j] when use_gate
  ///   m'  = max(m, max_j s_j)  — if m' == -inf the state is untouched
  ///   α   = exp(m − m'),  p_j = exp(s_j − m')
  ///   l   = l·α + Σ_j p_j,  acc = acc·α + Σ_j p_j·v_j,  m = m'
  /// Bitwise arms: dots under the lane contract, one std::exp per
  /// element, the sums accumulated in j order starting from +0, no FMA.
  /// Relaxed arms: FMA dots and accumulates with acc held in registers
  /// for the whole tile, and a vector exp (exp(-inf) = 0, exp(0) = 1,
  /// underflow to 0 or a denormal).
  void (*fold_tile)(const float* q, const float* const* k, const float* const* v,
                    const float* gate, Index n, Index d, float scale, bool use_gate, float& m,
                    float& l, float* acc) noexcept;
  /// fold_tile over half-width K/V rows, widened on load: the same bits
  /// as fold_tile over the widened rows, on every arm.
  void (*fold_tile_h)(const float* q, const half_t* const* k, const half_t* const* v,
                      const float* gate, Index n, Index d, float scale, bool use_gate, float& m,
                      float& l, float* acc) noexcept;

  // --- fp16 conversions ------------------------------------------------
  /// dst[i] = widen(src[i]) (exact).
  void (*h2f)(float* dst, const half_t* src, Index n) noexcept;
  /// dst[i] = narrow(src[i]) (round-to-nearest-even; identical bits on
  /// every arm, so fp16 page payloads are dispatch-independent).
  void (*f2h)(half_t* dst, const float* src, Index n) noexcept;
};

/// CPUID says this machine can execute AVX2 + F16C (the avx2 arm's half
/// ops use VCVTPH2PS/VCVTPS2PH; every AVX2-era core ships F16C).
bool cpu_supports_avx2() noexcept;
/// CPUID: AVX2 + FMA + F16C (the avx2-fma arm's ISA set).
bool cpu_supports_avx2_fma() noexcept;
/// CPUID: AVX-512 Foundation.
bool cpu_supports_avx512() noexcept;

/// This build carries the corresponding translation unit.
bool compiled_with_avx2() noexcept;
bool compiled_with_avx2_fma() noexcept;
bool compiled_with_avx512() noexcept;

/// The level Auto resolves to right now: the forced level if one is set,
/// else the GPA_SIMD environment variable (scalar|avx2|avx2-fma|avx512|
/// auto, read once; an unrecognised value warns once on stderr and falls
/// back to Auto), else the best level available under build + CPU
/// support.
SimdLevel active_level() noexcept;

/// Clamp a requested level to what this build + CPU can run: the best
/// available level at or below the request (Scalar is always honoured;
/// Auto resolves via active_level()). The clamp is silent by design —
/// callers that must know pin `resolve(x) == x` explicitly.
SimdLevel resolve(SimdLevel requested) noexcept;

/// True for the arms pinned bit-identical to the scalar reference
/// (Scalar, Avx2); false for the ULP-bounded relaxed arms. Auto is
/// classified by what it currently resolves to.
bool is_bitwise_level(SimdLevel level) noexcept;

/// Dispatch table for a level (resolved first).
const VecOps& ops(SimdLevel level) noexcept;

/// Every level this build + CPU can actually run, Scalar first, in
/// ascending level order — THE canonical SIMD axis for tests and
/// benchmarks to iterate (new arms only need to be added here to enter
/// every matrix). Includes the relaxed arms: iterators that require
/// bitwise parity must filter with is_bitwise_level().
std::vector<SimdLevel> available_levels();

/// Every level this build compiled an arm for, whether or not this CPU
/// can run it (diagnostics: `gpa_cli version`).
std::vector<SimdLevel> compiled_levels();

/// Process-wide override for tests and benchmarks: beats the environment
/// variable until cleared with force_level(SimdLevel::Auto). Explicit
/// per-call levels (ExecPolicy::simd != Auto) are unaffected.
void force_level(SimdLevel level) noexcept;

/// "auto" / "scalar" / "avx2" / "avx2-fma" / "avx512".
std::string_view level_name(SimdLevel level) noexcept;

/// Parse a level name as level_name() and the GPA_SIMD env var spell it.
/// Returns false (and leaves `out` untouched) for unrecognised names —
/// the env path warns and falls back to Auto on that signal.
bool parse_level(std::string_view name, SimdLevel& out) noexcept;

/// Name of the level Auto currently resolves to — reported next to
/// parallel_backend() in diagnostics and stamped into bench records.
std::string_view simd_backend() noexcept;

}  // namespace gpa::simd
