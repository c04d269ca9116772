#include "seqpar/partition.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "graph/degree.hpp"

namespace gpa::seqpar {

double Partition::imbalance() const {
  if (work.empty()) return 0.0;
  Size total = 0;
  Size max_w = 0;
  for (const Size w : work) {
    total += w;
    max_w = std::max(max_w, w);
  }
  if (total == 0) return 1.0;
  const double mean = static_cast<double>(total) / static_cast<double>(work.size());
  return static_cast<double>(max_w) / mean;
}

namespace {

Partition from_boundaries(std::vector<Index> boundaries, const std::vector<Index>& degrees) {
  Partition part;
  part.boundaries = std::move(boundaries);
  part.work.resize(part.boundaries.size() - 1, 0);
  for (std::size_t p = 0; p + 1 < part.boundaries.size(); ++p) {
    Size w = 0;
    for (Index i = part.boundaries[p]; i < part.boundaries[p + 1]; ++i) {
      w += static_cast<Size>(degrees[static_cast<std::size_t>(i)]);
    }
    part.work[p] = w;
  }
  return part;
}

}  // namespace

Partition partition_uniform_rows(Index seq_len, Index parts,
                                 const std::vector<Index>& degrees) {
  GPA_CHECK(parts >= 1, "need at least one part");
  GPA_CHECK(static_cast<Index>(degrees.size()) == seq_len, "degree vector length mismatch");
  std::vector<Index> b(static_cast<std::size_t>(parts) + 1);
  for (Index p = 0; p <= parts; ++p) {
    b[static_cast<std::size_t>(p)] = seq_len * p / parts;
  }
  return from_boundaries(std::move(b), degrees);
}

Partition partition_balanced_nnz(Index seq_len, Index parts,
                                 const std::vector<Index>& degrees) {
  GPA_CHECK(parts >= 1, "need at least one part");
  GPA_CHECK(static_cast<Index>(degrees.size()) == seq_len, "degree vector length mismatch");

  // Prefix sums, then place each boundary at the first row whose prefix
  // reaches p/parts of the total.
  std::vector<Size> prefix(static_cast<std::size_t>(seq_len) + 1, 0);
  for (Index i = 0; i < seq_len; ++i) {
    prefix[static_cast<std::size_t>(i) + 1] =
        prefix[static_cast<std::size_t>(i)] + static_cast<Size>(degrees[static_cast<std::size_t>(i)]);
  }
  const Size total = prefix.back();

  std::vector<Index> b(static_cast<std::size_t>(parts) + 1, 0);
  b[static_cast<std::size_t>(parts)] = seq_len;
  for (Index p = 1; p < parts; ++p) {
    const Size target = total * static_cast<Size>(p) / static_cast<Size>(parts);
    const auto it = std::lower_bound(prefix.begin(), prefix.end(), target);
    Index row = static_cast<Index>(it - prefix.begin());
    row = std::clamp<Index>(row, b[static_cast<std::size_t>(p) - 1], seq_len);
    b[static_cast<std::size_t>(p)] = row;
  }
  return from_boundaries(std::move(b), degrees);
}

std::vector<Index> degrees_of(const Csr<float>& mask) { return csr_degrees(mask); }

bool is_valid_partition(const Partition& p, Index seq_len) noexcept {
  const auto& b = p.boundaries;
  if (p.work.empty() || b.size() != p.work.size() + 1) return false;
  if (b.front() != 0 || b.back() != seq_len) return false;
  for (std::size_t i = 1; i < b.size(); ++i) {
    if (b[i] < b[i - 1]) return false;
  }
  return true;
}

void check_partition(const Partition& p, Index seq_len) {
  GPA_CHECK(is_valid_partition(p, seq_len),
            "partition must have parts + 1 monotone boundaries covering [0, L)");
}

std::vector<Index> referenced_columns(const Csr<float>& mask, Index lo, Index hi, bool causal) {
  GPA_CHECK(0 <= lo && lo <= hi && hi <= mask.rows, "referenced_columns: row range out of bounds");
  std::vector<char> seen(static_cast<std::size_t>(mask.cols), 0);
  for (Index i = lo; i < hi; ++i) {
    for (Index kk = mask.row_begin(i); kk < mask.row_end(i); ++kk) {
      const Index j = mask.col_idx[static_cast<std::size_t>(kk)];
      if (causal && j > i) break;  // columns are sorted
      seen[static_cast<std::size_t>(j)] = 1;
    }
  }
  std::vector<Index> cols;
  for (Index j = 0; j < mask.cols; ++j) {
    if (seen[static_cast<std::size_t>(j)] != 0) cols.push_back(j);
  }
  return cols;
}

}  // namespace gpa::seqpar
