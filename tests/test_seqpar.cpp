// Tests for the sequence-parallel extension: partitioners and the
// simulated distributed attention (§VI-A future work).

#include <gtest/gtest.h>

#include "baselines/reference_attention.hpp"
#include "common/rng.hpp"
#include "seqpar/partition.hpp"
#include "seqpar/sim_cluster.hpp"
#include "sparse/build.hpp"
#include "sparse/compose.hpp"
#include "tensor/tensor_ops.hpp"

namespace gpa::seqpar {
namespace {

TEST(PartitionTest, UniformRowsSplitsEvenly) {
  std::vector<Index> deg(100, 5);
  const auto p = partition_uniform_rows(100, 4, deg);
  ASSERT_EQ(p.parts(), 4);
  EXPECT_EQ(p.boundaries.front(), 0);
  EXPECT_EQ(p.boundaries.back(), 100);
  for (const Size w : p.work) EXPECT_EQ(w, 125u);
  EXPECT_DOUBLE_EQ(p.imbalance(), 1.0);
}

TEST(PartitionTest, BalancedEqualsUniformOnUniformDegrees) {
  std::vector<Index> deg(64, 3);
  const auto a = partition_uniform_rows(64, 8, deg);
  const auto b = partition_balanced_nnz(64, 8, deg);
  EXPECT_EQ(a.boundaries, b.boundaries);
}

TEST(PartitionTest, BalancedBeatsUniformOnSkewedMask) {
  // Longformer-style skew: global tokens at the front make the first
  // rows vastly heavier; the paper's load-balancing motivation.
  const Index L = 512;
  const auto mask = mask_union(build_csr_local(L, LocalParams{2}),
                               build_csr_global(L, make_global({0, 1, 2, 3}, L)));
  const auto deg = degrees_of(mask);
  const auto uniform = partition_uniform_rows(L, 8, deg);
  const auto balanced = partition_balanced_nnz(L, 8, deg);
  EXPECT_LT(balanced.imbalance(), uniform.imbalance());
  EXPECT_LT(balanced.imbalance(), 1.6);
  EXPECT_GT(uniform.imbalance(), 2.0);
}

TEST(PartitionTest, BoundariesAreMonotoneAndCover) {
  const Index L = 300;
  const auto mask = build_csr_random(L, RandomParams{0.03, 5});
  const auto p = partition_balanced_nnz(L, 7, degrees_of(mask));
  EXPECT_EQ(p.boundaries.front(), 0);
  EXPECT_EQ(p.boundaries.back(), L);
  for (std::size_t i = 1; i < p.boundaries.size(); ++i) {
    EXPECT_LE(p.boundaries[i - 1], p.boundaries[i]);
  }
  Size total = 0;
  for (const Size w : p.work) total += w;
  EXPECT_EQ(total, mask.nnz());
}

TEST(PartitionTest, MorePartsThanRowsStillValid) {
  std::vector<Index> deg(3, 1);
  const auto p = partition_balanced_nnz(3, 8, deg);
  EXPECT_EQ(p.boundaries.front(), 0);
  EXPECT_EQ(p.boundaries.back(), 3);
}

TEST(PartitionTest, SinglePartOwnsEverything) {
  std::vector<Index> deg(10, 2);
  const auto p = partition_balanced_nnz(10, 1, deg);
  EXPECT_EQ(p.work[0], 20u);
}

class DistributedAttention : public ::testing::TestWithParam<Index> {};

TEST_P(DistributedAttention, MatchesSingleNodeExactly) {
  const Index nodes = GetParam();
  const Index L = 128, d = 16;
  Matrix<float> q(L, d), k(L, d), v(L, d);
  Rng rng(700);
  fill_uniform(q, rng);
  fill_uniform(k, rng);
  fill_uniform(v, rng);
  const auto mask = build_csr_random(L, RandomParams{0.1, 71});

  const auto part = partition_balanced_nnz(L, nodes, degrees_of(mask));
  Matrix<float> dist(L, d);
  const auto report = distributed_csr_attention(q, k, v, mask, part, dist);

  Matrix<float> expected(L, d);
  gpa::baselines::reference_attention(q, k, v, mask, expected);
  const auto rep = gpa::allclose(dist, expected, 1e-5, 1e-6);
  EXPECT_TRUE(rep.all_close) << "nodes=" << nodes << " diff " << rep.max_abs_diff;

  ASSERT_EQ(report.nodes.size(), static_cast<std::size_t>(nodes));
  Size edges = 0;
  for (const auto& nr : report.nodes) edges += nr.edges;
  EXPECT_EQ(edges, mask.nnz());
  EXPECT_GT(report.makespan_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, DistributedAttention, ::testing::Values<Index>(1, 2, 4, 7));

TEST(DistributedAttention2, GatheredBytesCountReferencedRows) {
  // local(2) over two 32-row parts: part 0 reads columns [0, 33), part 1
  // reads [31, 64); the causal cut drops part 0's look-ahead column.
  const Index L = 64, d = 8;
  Matrix<float> q(L, d), k(L, d), v(L, d);
  Rng rng(701);
  fill_uniform(q, rng);
  fill_uniform(k, rng);
  fill_uniform(v, rng);
  const auto mask = build_csr_local(L, LocalParams{2});
  const auto part = partition_uniform_rows(L, 2, degrees_of(mask));
  const Size row = 2 * d * sizeof(float);
  for (const bool causal : {false, true}) {
    Matrix<float> out(L, d);
    AttentionOptions opts;
    opts.causal = causal;
    const auto report = distributed_csr_attention(q, k, v, mask, part, out, opts);
    EXPECT_EQ(report.nodes[0].gathered_bytes, (causal ? 32u : 33u) * row);
    EXPECT_EQ(report.nodes[1].gathered_bytes, 33u * row);
  }
}

TEST(DistributedAttention2, ReferencedColumnsAreTheDistinctFoldedColumns) {
  const auto mask = mask_union(build_csr_local(32, LocalParams{2}),
                               build_csr_global(32, make_global({0, 1}, 32)));
  // Rows 10..13 reach their band [9, 14] and the global columns 0, 1.
  EXPECT_EQ(referenced_columns(mask, 10, 14, false),
            (std::vector<Index>{0, 1, 9, 10, 11, 12, 13, 14}));
  EXPECT_EQ(referenced_columns(mask, 10, 14, true),
            (std::vector<Index>{0, 1, 9, 10, 11, 12, 13}));
  EXPECT_TRUE(referenced_columns(mask, 5, 5, false).empty());
}

TEST(DistributedAttention2, RejectsShortOrNonMonotoneBoundaries) {
  const Index L = 32, d = 4;
  Matrix<float> q(L, d), k(L, d), v(L, d), out(L, d);
  const auto mask = build_csr_local(L, LocalParams{2});
  Partition short_part;  // three parts, two boundaries
  short_part.boundaries = {0, L};
  short_part.work = {0, 0, 0};
  EXPECT_FALSE(is_valid_partition(short_part, L));
  EXPECT_THROW(distributed_csr_attention(q, k, v, mask, short_part, out), InvalidArgument);
  Partition backwards;
  backwards.boundaries = {0, 20, 10, L};
  backwards.work = {0, 0, 0};
  EXPECT_FALSE(is_valid_partition(backwards, L));
  EXPECT_THROW(distributed_csr_attention(q, k, v, mask, backwards, out), InvalidArgument);
  EXPECT_TRUE(is_valid_partition(partition_uniform_rows(L, 3, degrees_of(mask)), L));
}

TEST(DistributedAttention2, RejectsPartialCover) {
  const Index L = 32, d = 4;
  Matrix<float> q(L, d), k(L, d), v(L, d);
  const auto mask = build_csr_local(L, LocalParams{2});
  Partition bad;
  bad.boundaries = {0, 16};  // does not reach L
  bad.work = {0};
  Matrix<float> out(L, d);
  EXPECT_THROW(distributed_csr_attention(q, k, v, mask, bad, out), InvalidArgument);
}

}  // namespace
}  // namespace gpa::seqpar
