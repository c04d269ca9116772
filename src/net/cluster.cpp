#include "net/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <utility>

#include "common/error.hpp"
#include "common/fnv1a.hpp"

namespace gpa::net {

// ---------------------------------------------------------------------
// HashRing

namespace {
std::uint64_t hash_key(std::uint64_t key) {
  Fnv1a f;
  f.mix(key);
  return f.h;
}
std::uint64_t hash_point(std::uint64_t node_id, Index replica) {
  Fnv1a f;
  f.mix(node_id);
  f.mix(static_cast<std::uint64_t>(replica));
  return f.h;
}
}  // namespace

HashRing::HashRing(Index virtual_nodes) : vnodes_(virtual_nodes) {
  GPA_CHECK(virtual_nodes > 0, "hash ring: need at least one virtual node");
}

void HashRing::add_node(std::uint64_t node_id) {
  GPA_CHECK(nodes_.insert(node_id).second, "hash ring: duplicate node id");
  for (Index rep = 0; rep < vnodes_; ++rep) {
    // Collisions between 64-bit points are vanishingly rare; if two
    // vnodes do collide, last-insert wins for that point, which only
    // perturbs the balance, never correctness.
    points_[hash_point(node_id, rep)] = node_id;
  }
}

void HashRing::remove_node(std::uint64_t node_id) {
  if (nodes_.erase(node_id) == 0) return;
  for (auto it = points_.begin(); it != points_.end();) {
    if (it->second == node_id) {
      it = points_.erase(it);
    } else {
      ++it;
    }
  }
}

std::uint64_t HashRing::owner(std::uint64_t key) const {
  GPA_CHECK(!points_.empty(), "hash ring: no nodes");
  auto it = points_.lower_bound(hash_key(key));
  if (it == points_.end()) it = points_.begin();  // wrap around
  return it->second;
}

// ---------------------------------------------------------------------
// ClusterClient

void ClusterClient::add_peer(std::uint64_t node_id, std::unique_ptr<Transport> transport) {
  GPA_CHECK(transport != nullptr, "cluster: null transport");
  ring_.add_node(node_id);  // throws on duplicates before we mutate peers_
  Peer p;
  p.id = node_id;
  p.transport = std::move(transport);
  p.rpc = std::make_unique<RpcClient>(*p.transport);
  peers_.push_back(std::move(p));
}

ClusterClient::Peer& ClusterClient::by_id(std::uint64_t node_id) {
  for (Peer& p : peers_) {
    if (p.id == node_id) return p;
  }
  GPA_CHECK(false, "cluster: unknown node id");
  return peers_.front();  // unreachable
}

ClusterClient::Peer& ClusterClient::by_session(std::uint64_t session_id) {
  return by_id(ring_.owner(session_id));
}

void ClusterClient::create_session(std::uint64_t session_id, const WireMask& mask) {
  Writer w;
  w.u64(session_id);
  put_mask(w, mask);
  by_session(session_id).rpc->call(Op::CreateSession, std::move(w.buf));
}

void ClusterClient::prefill(std::uint64_t session_id, const Matrix<float>& q,
                            const Matrix<float>& k, const Matrix<float>& v,
                            Matrix<float>& out) {
  Writer w;
  w.u64(session_id);
  put_matrix(w, q);
  put_matrix(w, k);
  put_matrix(w, v);
  const auto body = by_session(session_id).rpc->call(Op::Prefill, std::move(w.buf));
  Reader r(body);
  GPA_CHECK(get_matrix(r, out) && r.done(), "cluster: bad prefill response");
}

Index ClusterClient::decode_step(std::uint64_t session_id, const float* q, const float* k,
                                 const float* v, Index head_dim, float* out_row) {
  GPA_CHECK(head_dim > 0, "cluster: head_dim must be positive");
  Writer w;
  w.u64(session_id);
  w.u32(static_cast<std::uint32_t>(head_dim));
  const std::size_t row_bytes = static_cast<std::size_t>(head_dim) * sizeof(float);
  w.bytes(q, row_bytes);
  w.bytes(k, row_bytes);
  w.bytes(v, row_bytes);
  const auto body = by_session(session_id).rpc->call(Op::DecodeStep, std::move(w.buf));
  Reader r(body);
  const Index d = static_cast<Index>(r.u32());
  GPA_CHECK(r.ok && d == head_dim, "cluster: decode response dimension mismatch");
  GPA_CHECK(r.bytes(out_row, row_bytes), "cluster: short decode response");
  const Index edges = static_cast<Index>(r.i64());
  GPA_CHECK(r.done(), "cluster: bad decode response");
  return edges;
}

void ClusterClient::release_session(std::uint64_t session_id) {
  Writer w;
  w.u64(session_id);
  by_session(session_id).rpc->call(Op::ReleaseSession, std::move(w.buf));
}

PingInfo ClusterClient::ping(std::uint64_t node_id) {
  Writer w;
  w.u8(1);
  const auto body = by_id(node_id).rpc->call(Op::Ping, std::move(w.buf));
  Reader r(body);
  PingInfo info;
  info.sessions = r.u64();
  info.pages_in_use = static_cast<Index>(r.i64());
  info.pages_free = static_cast<Index>(r.i64());
  GPA_CHECK(r.done(), "cluster: bad ping response");
  return info;
}

obs::MetricsSnapshot ClusterClient::node_stats(std::uint64_t node_id) {
  Writer w;
  w.u8(1);
  const auto body = by_id(node_id).rpc->call(Op::Stats, std::move(w.buf));
  Reader r(body);
  obs::MetricsSnapshot snap;
  GPA_CHECK(get_metrics_snapshot(r, snap) && r.done(), "cluster: bad stats response");
  return snap;
}

ClusterRingReport ClusterClient::ring_prefill(const Matrix<float>& q, const Matrix<float>& k,
                                              const Matrix<float>& v, const Csr<float>& mask,
                                              const seqpar::Partition& partition, bool causal,
                                              float scale, Matrix<float>& out) {
  const Index L = q.rows();
  const Index d = q.cols();
  // Column ids and run bounds travel as u32.
  GPA_CHECK(static_cast<std::uint64_t>(L) <= UINT32_MAX,
            "cluster: sequence length exceeds the wire's u32 column ids");
  const Index P = static_cast<Index>(peers_.size());
  GPA_CHECK(P > 0, "cluster: no peers");
  GPA_CHECK(partition.parts() == P, "cluster: partition parts must equal peer count");
  seqpar::check_partition(partition, L);
  GPA_CHECK(mask.rows == L && mask.cols == L, "cluster: mask shape mismatch");
  GPA_CHECK(d > 0, "cluster: head dim must be positive");
  GPA_CHECK(k.rows() == L && v.rows() == L && k.cols() == d && v.cols() == d,
            "cluster: K/V shape mismatch");
  out = Matrix<float>(L, d);

  const auto t0 = std::chrono::steady_clock::now();
  ClusterRingReport report;
  report.nodes.resize(static_cast<std::size_t>(P));
  const auto bound = [&](Index p) { return partition.boundaries[static_cast<std::size_t>(p)]; };
  const auto bytes_of = [](const Writer& w) { return ConstBytes{w.buf.data(), w.buf.size()}; };
  const std::size_t row_bytes = static_cast<std::size_t>(d) * sizeof(float);

  // Send every node its request before reading any response, so the
  // nodes fold concurrently. The Q rows go out in place, and so does
  // each run of referenced K/V rows, as one gather part for K and one
  // for V; only the column ids are copied, narrowed to u32 (body
  // layout: net/node.hpp).
  std::vector<RpcClient::Pending> sent;
  sent.reserve(static_cast<std::size_t>(P));
  std::vector<std::uint32_t> ids;
  std::vector<std::pair<Index, Index>> spans;  // runs of consecutive columns
  std::vector<ConstBytes> parts;
  std::exception_ptr first_error;
  try {
    for (Index p = 0; p < P; ++p) {
      const Index lo = bound(p);
      const Index hi = bound(p + 1);
      const Index e0 = mask.row_begin(lo);
      const Index e1 = mask.row_begin(hi);
      Writer head;
      head.u32(static_cast<std::uint32_t>(p));
      head.u32(causal ? 1 : 0);
      head.f32(scale);
      head.u32(static_cast<std::uint32_t>(d));
      put_partition(head, partition);
      head.i64(hi - lo);
      head.i64(L);
      head.u64(static_cast<std::uint64_t>(e1 - e0));
      for (Index i = lo; i <= hi; ++i) head.i64(mask.row_begin(i) - e0);
      ids.resize(static_cast<std::size_t>(e1 - e0));
      std::transform(mask.col_idx.begin() + e0, mask.col_idx.begin() + e1, ids.begin(),
                     [](Index j) { return static_cast<std::uint32_t>(j); });

      const std::vector<Index> cols = seqpar::referenced_columns(mask, lo, hi, causal);
      spans.clear();
      Index shard = 0, counted = -1;
      for (const Index j : cols) {
        if (!spans.empty() && spans.back().second == j) {
          ++spans.back().second;
        } else {
          spans.emplace_back(j, j + 1);
        }
        while (j >= bound(shard + 1)) ++shard;
        if (shard != p && shard != counted) {
          ++report.shard_deliveries;
          counted = shard;
        }
      }
      Writer runs;
      runs.u32(static_cast<std::uint32_t>(spans.size()));
      for (const auto& [b, e] : spans) {
        runs.u32(static_cast<std::uint32_t>(b));
        runs.u32(static_cast<std::uint32_t>(e));
      }

      report.nodes[static_cast<std::size_t>(p)] = {peers_[static_cast<std::size_t>(p)].id, lo,
                                                   hi, 0, cols.size()};
      parts = {bytes_of(head),
               {ids.data(), ids.size() * sizeof(std::uint32_t)},
               bytes_of(runs),
               {q.row(lo), static_cast<std::size_t>(hi - lo) * row_bytes}};
      for (const Matrix<float>* m : {&k, &v}) {
        for (const auto& [b, e] : spans) {
          parts.push_back({m->row(b), static_cast<std::size_t>(e - b) * row_bytes});
        }
      }
      sent.push_back(peers_[static_cast<std::size_t>(p)].rpc->send(Op::RingPrefill, parts));
    }
  } catch (...) {
    first_error = std::current_exception();
  }

  // Read every response that is owed, even after an error, so no
  // connection is left with an unread response; then rethrow the first.
  for (std::size_t p = 0; p < sent.size(); ++p) {
    try {
      const auto body = peers_[p].rpc->receive(sent[p]);
      ClusterNodeReport& nr = report.nodes[p];
      const Index rows = nr.row_end - nr.row_begin;
      Reader r(body);
      const std::size_t nbytes = static_cast<std::size_t>(rows) * row_bytes;
      const bool shaped = r.i64() == rows && r.i64() == d && r.bytes(out.row(nr.row_begin), nbytes);
      nr.edges = r.u64();
      GPA_CHECK(shaped && r.done(), "cluster: bad ring prefill response");
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  report.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return report;
}

void ClusterClient::shutdown_all() {
  for (Peer& p : peers_) {
    Writer w;
    w.u8(1);
    try {
      p.rpc->call(Op::Shutdown, std::move(w.buf));
    } catch (const TransportError&) {
      // Peer already gone — shutdown is best-effort by design.
    }
    p.transport->close();
  }
}

}  // namespace gpa::net
