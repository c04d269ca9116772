#pragma once
// Sequence partitioning for distributed execution — §VI-A future work:
// "to support distributed training across multiple nodes, we will
// implement distributed memory versions of the algorithms ... along with
// graph partitioning techniques to load balance work across the nodes."
//
// Rows (tokens) are assigned to P nodes. Work per row is its degree
// (edges = dot products), so a contiguous equal-*rows* split is balanced
// only for uniform masks; a global mask concentrates work in a few rows.
// The NNZ-balanced partitioner splits by prefix sums of degree instead.

#include <vector>

#include "common/types.hpp"
#include "sparse/csr.hpp"

namespace gpa::seqpar {

struct Partition {
  /// boundaries[p] .. boundaries[p+1] is node p's contiguous row range.
  std::vector<Index> boundaries;  ///< size parts+1, boundaries[0] == 0
  std::vector<Size> work;         ///< edges owned by each part

  Index parts() const noexcept { return static_cast<Index>(work.size()); }
  /// max(work) / mean(work); 1.0 is perfect balance.
  double imbalance() const;
};

/// Equal row count per node (the naive split).
Partition partition_uniform_rows(Index seq_len, Index parts,
                                 const std::vector<Index>& degrees);

/// Contiguous ranges with (greedily) equalised edge counts via prefix
/// sums of `degrees`.
Partition partition_balanced_nnz(Index seq_len, Index parts,
                                 const std::vector<Index>& degrees);

/// Degrees for a CSR mask (convenience shim over graph/degree).
std::vector<Index> degrees_of(const Csr<float>& mask);

/// True when `p` splits [0, seq_len) into parts() >= 1 contiguous
/// ranges: parts() + 1 boundaries, monotone, from 0 to seq_len.
bool is_valid_partition(const Partition& p, Index seq_len) noexcept;

/// Throws InvalidArgument unless is_valid_partition(p, seq_len). Every
/// path that indexes boundaries by part calls this first.
void check_partition(const Partition& p, Index seq_len);

/// The distinct columns that rows [lo, hi) of `mask` reference (only
/// j <= i under `causal`), ascending: the K/V rows a node owning those
/// rows folds, and so the rows the wire ring prefill ships it.
std::vector<Index> referenced_columns(const Csr<float>& mask, Index lo, Index hi, bool causal);

}  // namespace gpa::seqpar
