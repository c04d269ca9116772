#pragma once
// Cluster layer: the front-end router.
//
//   * HashRing — consistent hashing of session ids to node ids with
//     virtual nodes, so adding a node to an N-node ring re-owns ~1/(N+1)
//     of the keys instead of rehashing everything.
//   * ClusterClient — one RPC connection per peer; session ops route to
//     the ring owner, and ring_prefill splits one long-context prefill
//     across all peers by rows.
//
// Ring prefill topology: a star. The router sends each node one
// Op::RingPrefill request (its Q rows, its row slice of the mask and
// only the K/V rows that slice references), all before reading any
// response, so the nodes fold concurrently. Nothing is relayed or
// rotated and no node keeps state between requests; nodes fold through
// seqpar::ShardFold, which makes the result bit-identical to
// seqpar/sim_cluster.

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "net/node.hpp"
#include "net/rpc.hpp"
#include "seqpar/partition.hpp"

namespace gpa::net {

class HashRing {
 public:
  explicit HashRing(Index virtual_nodes = 64);

  void add_node(std::uint64_t node_id);
  void remove_node(std::uint64_t node_id);

  bool contains(std::uint64_t node_id) const { return nodes_.count(node_id) != 0; }
  Size nodes() const noexcept { return nodes_.size(); }

  /// Owning node for a key: clockwise successor of the key's hash
  /// point. Throws InvalidArgument on an empty ring.
  std::uint64_t owner(std::uint64_t key) const;

 private:
  Index vnodes_;
  std::map<std::uint64_t, std::uint64_t> points_;  ///< hash point → node id
  std::set<std::uint64_t> nodes_;
};

/// Per-node throughput sample from a cluster ring prefill.
struct ClusterNodeReport {
  std::uint64_t node_id = 0;
  Index row_begin = 0;
  Index row_end = 0;
  Size edges = 0;
  /// K/V rows shipped to the node: the columns its rows reference
  /// (seqpar::referenced_columns). sim_cluster's gathered_bytes for the
  /// same node is kv_rows × 2·d·4.
  Size kv_rows = 0;
};

struct ClusterRingReport {
  std::vector<ClusterNodeReport> nodes;
  /// (node, foreign shard) pairs where the node was shipped at least
  /// one row of another node's K/V shard.
  Size shard_deliveries = 0;
  double seconds = 0.0;  ///< wall time of the whole exchange
};

struct PingInfo {
  Size sessions = 0;
  Index pages_in_use = 0;
  Index pages_free = 0;
};

class ClusterClient {
 public:
  explicit ClusterClient(Index virtual_nodes = 64) : ring_(virtual_nodes) {}

  /// Register a connected peer. Node ids must be unique; insertion
  /// order defines the ring-prefill part index p.
  void add_peer(std::uint64_t node_id, std::unique_ptr<Transport> transport);

  Size peers() const noexcept { return peers_.size(); }
  std::uint64_t owner_of(std::uint64_t session_id) const { return ring_.owner(session_id); }

  // Session ops, routed to the ring owner. Remote typed errors
  // (SessionNotFound / SessionEvicted / CacheFull / InvalidArgument)
  // rethrow client-side as the local exceptions.
  void create_session(std::uint64_t session_id, const WireMask& mask);
  void prefill(std::uint64_t session_id, const Matrix<float>& q, const Matrix<float>& k,
               const Matrix<float>& v, Matrix<float>& out);
  Index decode_step(std::uint64_t session_id, const float* q, const float* k, const float* v,
                    Index head_dim, float* out_row);
  void release_session(std::uint64_t session_id);

  PingInfo ping(std::uint64_t node_id);

  /// Scrape a node's full metrics registry snapshot (Op::Stats).
  obs::MetricsSnapshot node_stats(std::uint64_t node_id);

  /// Sequence-parallel prefill across ALL peers (peer i is part i;
  /// partition.parts() must equal peers()). Bit-identical to
  /// seqpar::distributed_csr_attention on the same partition. A bad
  /// partition or shape throws InvalidArgument before anything is sent;
  /// otherwise every response is read before the first error rethrows.
  ClusterRingReport ring_prefill(const Matrix<float>& q, const Matrix<float>& k,
                                 const Matrix<float>& v, const Csr<float>& mask,
                                 const seqpar::Partition& partition, bool causal, float scale,
                                 Matrix<float>& out);

  /// Orderly shutdown of every peer (each node's serve loop exits).
  void shutdown_all();

 private:
  struct Peer {
    std::uint64_t id = 0;
    std::unique_ptr<Transport> transport;
    std::unique_ptr<RpcClient> rpc;
  };

  Peer& by_session(std::uint64_t session_id);
  Peer& by_id(std::uint64_t node_id);

  HashRing ring_;
  std::vector<Peer> peers_;
};

}  // namespace gpa::net
