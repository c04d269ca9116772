#include "seqpar/ring_attention.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "core/kernel_common.hpp"
#include "core/state.hpp"
#include "core/traversal.hpp"

namespace gpa::seqpar {

RingReport ring_csr_attention(const Matrix<float>& q, const Matrix<float>& k,
                              const Matrix<float>& v, const Csr<float>& mask,
                              const Partition& partition, Matrix<float>& out,
                              const AttentionOptions& opts) {
  const Index L = q.rows();
  const Index d = q.cols();
  GPA_CHECK(mask.rows == L && mask.cols == L, "ring: mask shape mismatch");
  GPA_CHECK(out.rows() == L && out.cols() == d, "ring: output shape mismatch");
  check_partition(partition, L);
  GPA_CHECK(!opts.use_mask_values, "ring: weighted masks not supported");
  const float scale = gpa::detail::resolve_scale(opts.scale, d);
  const simd::VecOps& vo = simd::ops(opts.policy.simd);
  const Index P = partition.parts();
  // The shard iteration is the traversal's column-ranged enumeration —
  // the same edge order the one-shot kernels (and the wire-path ring
  // prefill in src/net) drive, located by binary search per row.
  const MaskTraversal tr = MaskTraversal::over(mask);

  RingReport report;
  report.nodes = P;
  report.steps = P;
  report.edges_per_step.assign(static_cast<std::size_t>(P), 0);

  // One persistent softmax state for all rows (each node owns a row
  // slice of it, so there is no sharing in the simulated execution).
  SoftmaxState state(L, d);

  // Shard extents and the communication model.
  for (Index p = 0; p < P; ++p) {
    const Size shard_rows = static_cast<Size>(partition.boundaries[static_cast<std::size_t>(p) + 1] -
                                              partition.boundaries[static_cast<std::size_t>(p)]);
    const Size shard_bytes = 2 * shard_rows * static_cast<Size>(d) * sizeof(float);
    report.peak_node_kv_bytes = std::max(report.peak_node_kv_bytes, shard_bytes);
  }
  report.comm_bytes_per_step = report.peak_node_kv_bytes;
  report.total_comm_bytes = static_cast<Size>(P - 1) * report.comm_bytes_per_step;

  // Ring steps: at step s, node p holds shard (p + s) mod P and folds
  // the edges of its rows whose columns land in that shard. Simulated
  // faithfully: within a step nodes run independently (parallelisable);
  // steps are globally ordered (the rotation barrier).
  for (Index s = 0; s < P; ++s) {
    Size step_edges = 0;
    for (Index p = 0; p < P; ++p) {
      const Index shard = (p + s) % P;
      const Index col_lo = partition.boundaries[static_cast<std::size_t>(shard)];
      const Index col_hi = partition.boundaries[static_cast<std::size_t>(shard) + 1];
      const Index row_lo = partition.boundaries[static_cast<std::size_t>(p)];
      const Index row_hi = partition.boundaries[static_cast<std::size_t>(p) + 1];

      for (Index i = row_lo; i < row_hi; ++i) {
        // One enumeration per (row, shard): tiles flush at the shard end.
        gpa::detail::RowFold<float> fold(vo, q.row(i), d, scale, false, state.m(i), state.l(i),
                                         state.acc_row(i));
        tr.for_each_edge_in_cols(i, L, opts.causal, col_lo, col_hi, [&](Index j, float) {
          fold.add(k.row(j), v.row(j), 1.0f);
          ++step_edges;
        });
        fold.finish();
      }
    }
    report.edges_per_step[static_cast<std::size_t>(s)] = step_edges;
  }

  state.finalize_into(out);
  return report;
}

}  // namespace gpa::seqpar
