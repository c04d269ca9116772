#pragma once
// Simulated distributed attention: each "node" owns a contiguous row
// range of Q (sequence parallelism à la DeepSpeed-Ulysses/LongNet,
// §III) and reads the K/V rows its rows reference. Nodes run
// concurrently, one thread each; per-node wall time and gathered bytes
// are recorded so the load-balancing claim of the partitioner is
// measurable without real MPI.

#include <vector>

#include "core/attention_options.hpp"
#include "seqpar/partition.hpp"
#include "sparse/csr.hpp"
#include "tensor/matrix.hpp"

namespace gpa::seqpar {

struct NodeReport {
  Index node = 0;
  Index row_begin = 0;
  Index row_end = 0;
  Size edges = 0;
  double seconds = 0.0;       ///< kernel time on this node
  /// K + V bytes a node is shipped: the rows its rows reference
  /// (seqpar::referenced_columns) × 2·d·4, as the wire ring prefill
  /// sends them.
  Size gathered_bytes = 0;
};

struct ClusterReport {
  std::vector<NodeReport> nodes;
  double makespan_seconds = 0.0;  ///< slowest node (the cluster's step time)
  double imbalance = 0.0;         ///< max node time / mean node time
};

/// Runs CSR graph attention with rows partitioned across `partition`,
/// one OS thread per node, writing into `out`. Each row folds shard by
/// shard in ascending column order (tiles flush at shard ends), so the
/// result is bit-identical to the wire ring prefill over the same
/// partition, and equals the single-node kernel up to rounding (exactly
/// when the partition has one part). Throws InvalidArgument on a
/// partition that is not a valid split of [0, L) (check_partition).
ClusterReport distributed_csr_attention(const Matrix<float>& q, const Matrix<float>& k,
                                        const Matrix<float>& v, const Csr<float>& mask,
                                        const Partition& partition, Matrix<float>& out,
                                        const AttentionOptions& opts = {});

}  // namespace gpa::seqpar
