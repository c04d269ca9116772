#pragma once
// Node service: the server half of a cluster process. Owns a
// SessionManager (each node holds only the sessions the hash ring
// assigns it) and serves ring-prefill parts.
//
// Ring prefill is one stateless Op::RingPrefill request per node. It
// carries the node's Q rows, its row slice of the mask and only the K/V
// rows that slice references; the response carries its finished rows.
// Rows fold through seqpar::ShardFold, sim_cluster's fold, so the output
// is bit-identical to the seqpar/sim_cluster oracle by construction.
//
// Request body, little-endian. Every field is a multiple of 4 bytes and
// the arrays start aligned for their type, so the node reads them in
// place:
//   [part u32][causal u32][scale f32][head_dim u32][partition]
//   [rows i64 = hi-lo][cols i64 = L][nnz u64]       the mask slice's
//   [offsets (rows+1) × i64][columns nnz × u32]     pattern, no values
//   [runs u32][(begin u32, end u32) × runs]  shipped columns: sorted,
//                                            disjoint, non-empty
//   [Q (hi-lo) × head_dim f32][K kv × head_dim f32][V kv × head_dim f32]
// with kv the total run length, rows packed in run order. Nodes fold
// every edge with gate 1 (the mask's pattern, not its values), as the
// ring prefill always has. Response: [rows i64][head_dim i64][output
// rows f32][edges u64]. A body that does not decode is Malformed; one
// that breaks a rule (part out of range, a slice of the wrong shape, a
// non-canonical slice, bad runs, a folded column not shipped) is
// InvalidArgument — both before any output.

#include <cstdint>
#include <memory>

#include "kvcache/session_manager.hpp"
#include "net/rpc.hpp"
#include "obs/metrics.hpp"
#include "sparse/patterns.hpp"

namespace gpa::net {

// ---------------------------------------------------------------------
// Metrics snapshot over the wire (Op::Stats). Typed, not stringly: the
// scraper (gpa_cli stats / cluster-bench) reads individual fields, so
// the snapshot ships as [counters][gauges][histograms] with
// length-prefixed name strings and LE-encoded values. get_* applies the
// usual hostile-input bounds before any allocation.

/// The most edges a histogram may claim on the wire: room for the one
/// obs layout, far below what a corrupt count would ask for.
inline constexpr std::uint32_t kMaxHistEdges = 1024;
static_assert(kMaxHistEdges >= obs::kHistogramEdges, "the codec must carry the histogram layout");

void put_metrics_snapshot(Writer& w, const obs::MetricsSnapshot& s);
bool get_metrics_snapshot(Reader& r, obs::MetricsSnapshot& s);

// ---------------------------------------------------------------------
// Session mask over the wire: the restricted MaskSpec vocabulary the
// cluster serves (one component; the families with a closed-form or
// explicit spelling).

enum class WireMaskKind : std::uint8_t {
  Local = 1,     ///< a = window
  Dilated1d = 2, ///< a = window, b = dilation
  Global = 3,    ///< tokens = global tokens, a = local window to subtract
  Csr = 4,
};

struct WireMask {
  WireMaskKind kind = WireMaskKind::Local;
  Index a = 0;
  Index b = 0;
  std::vector<Index> tokens;        ///< Global kind only
  std::shared_ptr<Csr<float>> csr;  ///< Csr kind only

  kvcache::MaskSpec to_spec() const;
};

void put_mask(Writer& w, const WireMask& m);
bool get_mask(Reader& r, WireMask& m);

// ---------------------------------------------------------------------

struct NodeConfig {
  kvcache::SessionManager::Config sessions{};
};

class NodeService {
 public:
  explicit NodeService(NodeConfig cfg) : sessions_(cfg.sessions) {}

  /// Serve one connection: request/response until EOF, a corrupt
  /// frame, or a Shutdown op. Returns true iff shutdown was requested
  /// (the process-level accept loop exits on true).
  bool serve(Transport& t);

  /// One request → one response (exposed for loopback tests).
  void handle(const RpcRequest& req, RpcResponse& rsp);

  const kvcache::SessionManager& sessions() const noexcept { return sessions_; }

 private:
  RpcStatus ring_prefill(Reader& r, Writer& out);

  kvcache::SessionManager sessions_;
};

}  // namespace gpa::net
