#include "seqpar/sim_cluster.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "seqpar/shard_fold.hpp"

namespace gpa::seqpar {

ClusterReport distributed_csr_attention(const Matrix<float>& q, const Matrix<float>& k,
                                        const Matrix<float>& v, const Csr<float>& mask,
                                        const Partition& partition, Matrix<float>& out,
                                        const AttentionOptions& opts) {
  const Index L = q.rows();
  const Index d = q.cols();
  GPA_CHECK(mask.rows == L && mask.cols == L, "distributed: mask shape mismatch");
  GPA_CHECK(out.rows() == L && out.cols() == d, "distributed: output shape mismatch");
  check_partition(partition, L);
  // THE iteration order (seqpar/shard_fold.hpp): each node folds each
  // of its rows shard by shard, in ascending column order over the same
  // partition — the fold a wire node runs, which makes this the bitwise
  // oracle of the wire ring prefill (src/net) on the same partition and
  // arm.
  const ShardFold fold{simd::ops(opts.policy.simd), d, gpa::detail::resolve_scale(opts.scale, d),
                       opts.use_mask_values, opts.causal, partition.boundaries.data() + 1};
  const Index parts = partition.parts();

  ClusterReport report;
  report.nodes.resize(static_cast<std::size_t>(parts));

  // One thread per node; each node folds its own rows. K/V are shared
  // read-only here — gathered_bytes records what a node is shipped: the
  // K and V rows its rows reference, as the wire ring prefill sends.
  std::vector<std::thread> nodes;
  nodes.reserve(report.nodes.size());
  for (Index p = 0; p < parts; ++p) {
    nodes.emplace_back([&, p] {
      const auto t0 = std::chrono::steady_clock::now();
      const Index lo = partition.boundaries[static_cast<std::size_t>(p)];
      const Index hi = partition.boundaries[static_cast<std::size_t>(p) + 1];
      Size edges = 0;
      const auto kv = [&](Index j) { return std::pair{k.row(j), v.row(j)}; };
      for (Index i = lo; i < hi; ++i) {
        const Index b = mask.row_begin(i);
        edges += fold.row(i, q.row(i), mask.col_idx.data() + b, mask.values.data() + b,
                          mask.row_end(i) - b, kv, out.row(i));
      }
      const auto t1 = std::chrono::steady_clock::now();
      auto& nr = report.nodes[static_cast<std::size_t>(p)];
      nr.node = p;
      nr.row_begin = lo;
      nr.row_end = hi;
      nr.edges = edges;
      nr.seconds = std::chrono::duration<double>(t1 - t0).count();
      nr.gathered_bytes = referenced_columns(mask, lo, hi, opts.causal).size() * 2 *
                          static_cast<Size>(d) * sizeof(float);
    });
  }
  for (auto& t : nodes) t.join();

  double total = 0.0;
  for (const auto& nr : report.nodes) {
    report.makespan_seconds = std::max(report.makespan_seconds, nr.seconds);
    total += nr.seconds;
  }
  const double mean = total / static_cast<double>(report.nodes.size());
  report.imbalance = mean > 0.0 ? report.makespan_seconds / mean : 0.0;
  return report;
}

}  // namespace gpa::seqpar
