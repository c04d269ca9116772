// Tests for the ring-attention-style sequence-parallel execution.

#include <gtest/gtest.h>

#include "baselines/reference_attention.hpp"
#include "common/rng.hpp"
#include "core/graph_attention.hpp"
#include "seqpar/partition.hpp"
#include "seqpar/ring_attention.hpp"
#include "seqpar/sim_cluster.hpp"
#include "sparse/build.hpp"
#include "sparse/compose.hpp"
#include "tensor/tensor_ops.hpp"
#include "tile_cases.hpp"

namespace gpa::seqpar {
namespace {

struct Inputs {
  Matrix<float> q, k, v;
};

Inputs make_inputs(Index L, Index d, std::uint64_t seed) {
  Inputs in{Matrix<float>(L, d), Matrix<float>(L, d), Matrix<float>(L, d)};
  Rng rng(seed);
  fill_uniform(in.q, rng);
  fill_uniform(in.k, rng);
  fill_uniform(in.v, rng);
  return in;
}

class RingNodes : public ::testing::TestWithParam<Index> {};

TEST_P(RingNodes, MatchesReferenceOnRandomMask) {
  const Index nodes = GetParam();
  const Index L = 120, d = 16;
  const auto in = make_inputs(L, d, 1400);
  const auto mask = build_csr_random(L, RandomParams{0.15, 95});
  const auto part = partition_uniform_rows(L, nodes, degrees_of(mask));

  Matrix<float> ring_out(L, d), expected(L, d);
  const auto report = ring_csr_attention(in.q, in.k, in.v, mask, part, ring_out);
  gpa::baselines::reference_attention(in.q, in.k, in.v, mask, expected);
  const auto rep = gpa::allclose(ring_out, expected, 1e-5, 1e-6);
  EXPECT_TRUE(rep.all_close) << "nodes=" << nodes << " diff " << rep.max_abs_diff;

  // Every edge visited exactly once across all steps.
  Size total = 0;
  for (const Size e : report.edges_per_step) total += e;
  EXPECT_EQ(total, mask.nnz());
  EXPECT_EQ(report.steps, nodes);
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, RingNodes, ::testing::Values<Index>(1, 2, 3, 5, 8));

TEST(RingTest, MatchesPlainKernelBitwiseWithOneNode) {
  const Index L = 64, d = 8;
  const auto in = make_inputs(L, d, 1401);
  const auto mask = build_csr_random(L, RandomParams{0.2, 96});
  const auto part = partition_uniform_rows(L, 1, degrees_of(mask));
  Matrix<float> ring_out(L, d), plain(L, d);
  ring_csr_attention(in.q, in.k, in.v, mask, part, ring_out);
  csr_attention(in.q, in.k, in.v, mask, plain);
  EXPECT_EQ(max_abs_diff(ring_out, plain), 0.0);  // single shard: same fold order
}

TEST(RingTest, OneNodeMatchesPlainKernelBitwiseOnTileLadder) {
  // Rows of degree 0, 1, 15, 16, 17 and 33: one shard is one
  // enumeration per row, so the ring folds the plain kernel's tiles.
  const Index L = 72;
  const auto mask = gpa::test::tile_ladder_mask(L);
  const auto part = partition_uniform_rows(L, 1, degrees_of(mask));
  for (const Index d : {Index{16}, Index{67}}) {
    const auto in = make_inputs(L, d, 1410 + static_cast<std::uint64_t>(d));
    for (const bool causal : {false, true}) {
      SCOPED_TRACE(testing::Message() << "d=" << d << " causal=" << causal);
      AttentionOptions opts;
      opts.causal = causal;
      Matrix<float> ring_out(L, d), plain(L, d);
      ring_csr_attention(in.q, in.k, in.v, mask, part, ring_out, opts);
      csr_attention(in.q, in.k, in.v, mask, plain, opts);
      EXPECT_EQ(max_abs_diff(ring_out, plain), 0.0);
      for (Index x = 0; x < d; ++x) EXPECT_EQ(ring_out(0, x), 0.0f);  // empty row 0
    }
  }
}

TEST(RingTest, FirstNodeMatchesSimClusterWhereShardsCutATile) {
  // Three shards over 72 columns split the 16- and 33-edge ladder rows
  // mid-tile (the wide ladder spreads every row over all columns).
  // Node 0 visits shards in ascending order, exactly as sim_cluster
  // folds every row (a tile flushes at each shard end), so node 0's
  // rows must agree bit for bit.
  const Index L = 72, d = 24;
  const auto mask = gpa::test::tile_ladder_mask(L, /*lower=*/false);
  const auto part = partition_uniform_rows(L, 3, degrees_of(mask));
  ASSERT_EQ(part.boundaries, (std::vector<Index>{0, 24, 48, 72}));
  const auto in = make_inputs(L, d, 1420);
  Matrix<float> ring_out(L, d), sim(L, d);
  ring_csr_attention(in.q, in.k, in.v, mask, part, ring_out);
  distributed_csr_attention(in.q, in.k, in.v, mask, part, sim);
  for (Index i = part.boundaries[0]; i < part.boundaries[1]; ++i) {
    for (Index x = 0; x < d; ++x) ASSERT_EQ(ring_out(i, x), sim(i, x)) << "row " << i;
  }
  // Every node still matches the reference.
  Matrix<float> expected(L, d);
  gpa::baselines::reference_attention(in.q, in.k, in.v, mask, expected);
  EXPECT_TRUE(gpa::allclose(ring_out, expected, 1e-5, 1e-6).all_close);
}

TEST(RingTest, CausalSupport) {
  const Index L = 96, d = 8;
  const auto in = make_inputs(L, d, 1402);
  const auto mask = build_csr_random(L, RandomParams{0.25, 97});
  const auto part = partition_uniform_rows(L, 4, degrees_of(mask));
  AttentionOptions opts;
  opts.causal = true;
  Matrix<float> ring_out(L, d), expected(L, d);
  ring_csr_attention(in.q, in.k, in.v, mask, part, ring_out, opts);

  const auto tri = build_csr_from_predicate(L, [](Index i, Index j) { return j <= i; });
  gpa::baselines::reference_attention(in.q, in.k, in.v, mask_intersect(mask, tri), expected);
  EXPECT_TRUE(gpa::allclose(ring_out, expected, 1e-5, 1e-6).all_close);
}

TEST(RingTest, CommunicationModelScalesWithShards) {
  const Index L = 128, d = 16;
  const auto in = make_inputs(L, d, 1403);
  const auto mask = build_csr_local(L, LocalParams{4});
  Matrix<float> out(L, d);

  const auto part2 = partition_uniform_rows(L, 2, degrees_of(mask));
  const auto part8 = partition_uniform_rows(L, 8, degrees_of(mask));
  const auto r2 = ring_csr_attention(in.q, in.k, in.v, mask, part2, out);
  const auto r8 = ring_csr_attention(in.q, in.k, in.v, mask, part8, out);

  // 8 shards -> each node holds 1/4 the K/V of the 2-shard case.
  EXPECT_EQ(r2.peak_node_kv_bytes, 2u * 64 * 16 * sizeof(float));
  EXPECT_EQ(r8.peak_node_kv_bytes, 2u * 16 * 16 * sizeof(float));
  // Total communication: (P-1) shard rotations.
  EXPECT_EQ(r2.total_comm_bytes, 1u * r2.comm_bytes_per_step);
  EXPECT_EQ(r8.total_comm_bytes, 7u * r8.comm_bytes_per_step);
}

TEST(RingTest, LocalMaskTouchesOnlyNeighborShards) {
  // A narrow window means most ring steps process zero edges — the
  // block-sparse structure ring attention exploits.
  const Index L = 128, d = 4;
  const auto in = make_inputs(L, d, 1404);
  const auto mask = build_csr_local(L, LocalParams{4});
  const auto part = partition_uniform_rows(L, 8, degrees_of(mask));
  Matrix<float> out(L, d);
  const auto report = ring_csr_attention(in.q, in.k, in.v, mask, part, out);
  // Steps 0 (own shard), 1 and P-1 (adjacent shards) carry all edges.
  EXPECT_GT(report.edges_per_step[0], 0u);
  for (Index s = 2; s < 7; ++s) {
    EXPECT_EQ(report.edges_per_step[static_cast<std::size_t>(s)], 0u) << "step " << s;
  }
}

TEST(RingTest, NnzBalancedPartitionStillExact) {
  const Index L = 100, d = 8;
  const auto in = make_inputs(L, d, 1405);
  const auto mask = mask_union(build_csr_local(L, LocalParams{3}),
                               build_csr_global(L, make_global({0, 1}, L)));
  const auto part = partition_balanced_nnz(L, 4, degrees_of(mask));
  Matrix<float> ring_out(L, d), expected(L, d);
  ring_csr_attention(in.q, in.k, in.v, mask, part, ring_out);
  gpa::baselines::reference_attention(in.q, in.k, in.v, mask, expected);
  EXPECT_TRUE(gpa::allclose(ring_out, expected, 1e-5, 1e-6).all_close);
}

}  // namespace
}  // namespace gpa::seqpar
