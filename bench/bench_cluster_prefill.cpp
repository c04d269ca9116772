// Cluster ring-prefill bench: the wire path (frame codec + RPC + one
// RingPrefill request per node, carrying only the K/V rows its mask
// slice references) against the in-process sim_cluster oracle on the
// same NNZ-balanced partition, on a banded and a scattered mask. Every
// timed run re-checks bit-identity — a cluster bench that drifted
// numerically would be measuring a different computation.
//
// Loopback transports keep the measurement about the protocol (framing,
// copies, bytes shipped) rather than kernel arithmetic or the host's
// TCP stack; tools/gpa_cli cluster-bench is the real-socket,
// real-process variant of the same comparison.

#include <cstring>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "benchutil/runner.hpp"
#include "benchutil/table.hpp"
#include "common/rng.hpp"
#include "net/cluster.hpp"
#include "net/node.hpp"
#include "net/transport.hpp"
#include "seqpar/partition.hpp"
#include "seqpar/sim_cluster.hpp"
#include "sparse/build.hpp"
#include "sparse/compose.hpp"
#include "tensor/tensor_ops.hpp"

namespace {

/// N in-process NodeServices served on threads over loopback pipes.
struct LoopbackCluster {
  std::vector<std::unique_ptr<gpa::net::NodeService>> services;
  std::vector<std::thread> threads;
  gpa::net::ClusterClient client;

  explicit LoopbackCluster(gpa::Index n) {
    for (gpa::Index i = 0; i < n; ++i) {
      auto [client_end, server_end] = gpa::net::make_loopback_pair();
      services.push_back(std::make_unique<gpa::net::NodeService>(gpa::net::NodeConfig{}));
      gpa::net::NodeService* svc = services.back().get();
      threads.emplace_back([svc, t = std::move(server_end)]() mutable { svc->serve(*t); });
      client.add_peer(static_cast<std::uint64_t>(i), std::move(client_end));
    }
  }
  ~LoopbackCluster() {
    client.shutdown_all();
    for (auto& t : threads) t.join();
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace gpa;
  using benchutil::Table;
  const auto args = benchutil::parse_bench_args(argc, argv, /*warmup=*/1, /*iters=*/3);

  const Index L = args.smoke ? 256 : (args.paper_scale ? 16'384 : 4'096);
  const Index d = args.smoke ? 32 : 64;
  const std::vector<Index> node_counts = args.smoke ? std::vector<Index>{2}
                                                    : std::vector<Index>{2, 3, 4};

  // Two mask shapes. Longformer-style skew (narrow window + global
  // front tokens) is where NNZ-balanced partitioning earns its keep and
  // each node's K/V is a few long runs. A random CSR at Sf = 0.001
  // scatters each node's columns into hundreds of short runs, so the
  // router's gather write carries hundreds of parts.
  struct MaskCase {
    const char* name;
    Csr<float> mask;
  };
  const MaskCase cases[] = {
      {"longformer", mask_union(build_csr_local(L, LocalParams{8}),
                                build_csr_global(L, make_global({0, 1, 2, 3}, L)))},
      {"csr Sf=0.001", build_csr_random(L, RandomParams{0.001, 41})},
  };

  Rng rng(97);
  Matrix<float> q(L, d), k(L, d), v(L, d);
  fill_uniform(q, rng);
  fill_uniform(k, rng);
  fill_uniform(v, rng);

  std::cout << "=== Cluster ring prefill over loopback vs sim_cluster (L=" << L
            << ", d=" << d << ") ===\n";
  Table table({"mask", "nodes", "wire_s", "edges_per_s", "kv_rows_shipped", "kv_runs",
               "foreign_shards", "sim_makespan_s", "bit_identical"});

  int rc = 0;
  for (const MaskCase& mc : cases) {
    const Csr<float>& mask = mc.mask;
    const auto deg = seqpar::degrees_of(mask);
    for (const Index nodes : node_counts) {
      const auto part = seqpar::partition_balanced_nnz(L, nodes, deg);

      Matrix<float> oracle(L, d);
      const auto sim = seqpar::distributed_csr_attention(q, k, v, mask, part, oracle);

      LoopbackCluster cluster(nodes);
      Matrix<float> out;
      net::ClusterRingReport rep;
      const auto st = benchutil::run_benchmark(
          [&] { rep = cluster.client.ring_prefill(q, k, v, mask, part, false, -1.0f, out); },
          args.run);

      const bool identical =
          out.rows() == oracle.rows() && out.cols() == oracle.cols() &&
          std::memcmp(out.data(), oracle.data(), oracle.size_bytes()) == 0;
      if (!identical) rc = 1;

      // Runs of consecutive shipped columns: each is one K and one V
      // part of that node's request.
      Size edges = 0, kv_rows = 0, kv_runs = 0;
      for (const auto& nr : rep.nodes) {
        edges += nr.edges;
        kv_rows += nr.kv_rows;
        const auto cols = seqpar::referenced_columns(mask, nr.row_begin, nr.row_end, false);
        for (std::size_t x = 0; x < cols.size(); ++x) {
          kv_runs += x == 0 || cols[x] != cols[x - 1] + 1 ? 1 : 0;
        }
      }
      table.add_row({mc.name, std::to_string(nodes), Table::fmt_seconds(st.mean),
                     Table::fmt_double(static_cast<double>(edges) / st.mean, 0),
                     std::to_string(kv_rows), std::to_string(kv_runs),
                     std::to_string(rep.shard_deliveries),
                     Table::fmt_seconds(sim.makespan_seconds), identical ? "yes" : "NO"});
      std::cout << "  " << mc.name << ", nodes=" << nodes << ": "
                << Table::fmt_seconds(st.mean) << "/prefill, " << kv_rows
                << " K/V rows shipped in " << kv_runs << " runs (" << rep.shard_deliveries
                << " node/foreign-shard pairs), oracle "
                << (identical ? "bit-identical" : "MISMATCH") << "\n";
    }
  }

  std::cout << '\n';
  table.print();
  table.write_csv(args.csv_path);
  return rc;
}
