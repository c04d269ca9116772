#pragma once
// Sequential kernel composition over a ComposedMask — the execution
// style Figure 6 benchmarks ("a double kernel call of our local and
// global", "a sequential kernel call of our local; global; and CSR
// functions"). Each component folds its (disjoint) edges into one shared
// SoftmaxState; a single finalisation yields attention over the union.

#include "core/attention_options.hpp"
#include "core/state.hpp"
#include "sparse/presets.hpp"
#include "tensor/matrix.hpp"

namespace gpa {

/// Folds every component's edges (each through its family's traversal:
/// local / dilated / global / CSR) in one row-parallel pass, one
/// enumeration per row — equal to the sequential per-component kernel
/// calls up to rounding.
template <typename T>
void composed_attention(const Matrix<T>& q, const Matrix<T>& k, const Matrix<T>& v,
                        const ComposedMask& mask, Matrix<T>& out,
                        const AttentionOptions& opts = {});

/// The fused alternative: one CSR kernel call on the union mask (the
/// paper's "single call to the CSR implementation performs as well as or
/// better than sequential calls").
template <typename T>
void fused_csr_attention(const Matrix<T>& q, const Matrix<T>& k, const Matrix<T>& v,
                         const ComposedMask& mask, Matrix<T>& out,
                         const AttentionOptions& opts = {});

}  // namespace gpa
