#include "net/node.hpp"

#include <algorithm>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "obs/trace.hpp"
#include "seqpar/shard_fold.hpp"

namespace gpa::net {

// ---------------------------------------------------------------------
// Metrics snapshot codec

namespace {
/// A registry holds tens of metrics; a peer claiming orders of
/// magnitude more is corrupt, not just big.
constexpr std::uint32_t kMaxMetrics = 4096;
}  // namespace

void put_metrics_snapshot(Writer& w, const obs::MetricsSnapshot& s) {
  w.u32(static_cast<std::uint32_t>(s.counters.size()));
  for (const auto& c : s.counters) {
    put_string(w, c.name);
    w.u64(c.value);
  }
  w.u32(static_cast<std::uint32_t>(s.gauges.size()));
  for (const auto& g : s.gauges) {
    put_string(w, g.name);
    w.i64(g.value);
  }
  w.u32(static_cast<std::uint32_t>(s.histograms.size()));
  for (const auto& h : s.histograms) {
    put_string(w, h.name);
    w.u32(static_cast<std::uint32_t>(h.edges.size()));
    for (const double e : h.edges) w.f64(e);
    for (const std::uint64_t c : h.counts) w.u64(c);  // edges + 1 of them
    w.f64(h.sum);
    w.u64(h.count);
  }
}

bool get_metrics_snapshot(Reader& r, obs::MetricsSnapshot& s) {
  s = obs::MetricsSnapshot{};
  const std::uint32_t nc = r.u32();
  if (!r.ok || nc > kMaxMetrics) return false;
  s.counters.resize(nc);
  for (auto& c : s.counters) {
    if (!get_string(r, c.name)) return false;
    c.value = r.u64();
  }
  const std::uint32_t ng = r.u32();
  if (!r.ok || ng > kMaxMetrics) return false;
  s.gauges.resize(ng);
  for (auto& g : s.gauges) {
    if (!get_string(r, g.name)) return false;
    g.value = r.i64();
  }
  const std::uint32_t nh = r.u32();
  if (!r.ok || nh > kMaxMetrics) return false;
  s.histograms.resize(nh);
  for (auto& h : s.histograms) {
    if (!get_string(r, h.name)) return false;
    const std::uint32_t ne = r.u32();
    if (!r.ok || ne == 0 || ne > kMaxHistEdges ||
        r.remaining() < (static_cast<std::uint64_t>(ne) * 2 + 1) * 8) {
      r.ok = false;
      return false;
    }
    h.edges.resize(ne);
    for (double& e : h.edges) e = r.f64();
    h.counts.resize(ne + 1);
    for (std::uint64_t& c : h.counts) c = r.u64();
    h.sum = r.f64();
    h.count = r.u64();
  }
  return r.ok;
}

// ---------------------------------------------------------------------
// Wire mask

kvcache::MaskSpec WireMask::to_spec() const {
  switch (kind) {
    case WireMaskKind::Local:
      return kvcache::MaskSpec::make_local(LocalParams{a});
    case WireMaskKind::Dilated1d:
      return kvcache::MaskSpec::make_dilated1d(Dilated1DParams{a, b});
    case WireMaskKind::Global:
      return kvcache::MaskSpec::make_global(
          GlobalMinusLocalParams{GlobalParams{tokens}, LocalParams{a}});
    case WireMaskKind::Csr:
      GPA_CHECK(csr != nullptr, "wire mask: missing CSR payload");
      return kvcache::MaskSpec::make_csr(csr);
  }
  GPA_CHECK(false, "wire mask: unknown kind");
  return {};  // unreachable
}

void put_mask(Writer& w, const WireMask& m) {
  w.u8(static_cast<std::uint8_t>(m.kind));
  w.i64(m.a);
  w.i64(m.b);
  w.u32(static_cast<std::uint32_t>(m.tokens.size()));
  for (const Index t : m.tokens) w.i64(t);
  if (m.kind == WireMaskKind::Csr) {
    GPA_CHECK(m.csr != nullptr, "wire mask: missing CSR payload");
    put_csr(w, *m.csr);
  }
}

bool get_mask(Reader& r, WireMask& m) {
  const auto kind = static_cast<WireMaskKind>(r.u8());
  m.a = static_cast<Index>(r.i64());
  m.b = static_cast<Index>(r.i64());
  const std::uint32_t ntok = r.u32();
  if (!r.ok || r.remaining() < static_cast<std::uint64_t>(ntok) * 8) return false;
  m.tokens.resize(ntok);
  for (Index& t : m.tokens) t = static_cast<Index>(r.i64());
  switch (kind) {
    case WireMaskKind::Local:
    case WireMaskKind::Dilated1d:
    case WireMaskKind::Global:
      m.kind = kind;
      return true;
    case WireMaskKind::Csr: {
      auto csr = std::make_shared<Csr<float>>();
      if (!get_csr(r, *csr)) return false;
      m.kind = kind;
      m.csr = std::move(csr);
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------
// Request handling

bool NodeService::serve(Transport& t) {
  for (;;) {
    RpcRequest req;
    const WireStatus ws = recv_request(t, req);
    // Closed is the peer hanging up (normal); anything else is corrupt
    // bytes — the stream position is unrecoverable either way.
    if (ws != WireStatus::Ok) return false;
    RpcResponse rsp;
    handle(req, rsp);
    if (send_response(t, rsp) != WireStatus::Ok) return false;
    if (req.op == Op::Shutdown && rsp.status == RpcStatus::Ok) return true;
  }
}

void NodeService::handle(const RpcRequest& req, RpcResponse& rsp) {
  // Server-side twin of RpcClient::call's span: same static op name,
  // different category, so a merged client+server trace shows the wire
  // round-trip bracketing the handler.
  obs::trace::Span span(to_string(req.op), "net.node");
  rsp.id = req.id;
  rsp.status = RpcStatus::Ok;
  Reader r(req.body);
  Writer out;
  // Session id parsed before dispatch where the op carries one, so the
  // catch blocks below can echo it in typed errors.
  std::uint64_t sid = 0;
  try {
    switch (req.op) {
      case Op::Ping: {
        const auto st = sessions_.stats();
        out.u64(st.sessions);
        out.i64(st.pages_in_use);
        out.i64(st.pages_free);
        break;
      }
      case Op::CreateSession: {
        sid = r.u64();
        WireMask mask;
        if (!r.ok || !get_mask(r, mask)) {
          make_error_response(rsp, RpcStatus::Malformed, "create-session: bad body", sid);
          return;
        }
        sessions_.create(sid, mask.to_spec());
        out.u8(1);
        break;
      }
      case Op::Prefill: {
        sid = r.u64();
        Matrix<float> q, k, v;
        if (!r.ok || !get_matrix(r, q) || !get_matrix(r, k) || !get_matrix(r, v)) {
          make_error_response(rsp, RpcStatus::Malformed, "prefill: bad body", sid);
          return;
        }
        Matrix<float> o;
        sessions_.prefill(sid, q, k, v, o);
        put_matrix(out, o);
        break;
      }
      case Op::DecodeStep: {
        sid = r.u64();
        const Index d = static_cast<Index>(r.u32());
        if (!r.ok || d <= 0 ||
            r.remaining() < 3 * static_cast<std::size_t>(d) * sizeof(float)) {
          make_error_response(rsp, RpcStatus::Malformed, "decode-step: bad body", sid);
          return;
        }
        std::vector<float> qr(static_cast<std::size_t>(d)), kr(qr.size()), vr(qr.size()),
            orow(qr.size());
        r.bytes(qr.data(), qr.size() * sizeof(float));
        r.bytes(kr.data(), kr.size() * sizeof(float));
        r.bytes(vr.data(), vr.size() * sizeof(float));
        const Index edges = sessions_.decode_step(sid, qr.data(), kr.data(), vr.data(),
                                                  orow.data());
        out.u32(static_cast<std::uint32_t>(d));
        out.bytes(orow.data(), orow.size() * sizeof(float));
        out.i64(edges);
        break;
      }
      case Op::ReleaseSession: {
        sid = r.u64();
        sessions_.release(sid);
        out.u8(1);
        break;
      }
      case Op::Stats: {
        // Counters stream in continuously; the pool/session gauges are
        // refreshed here so every scrape carries current occupancy
        // without a per-allocation gauge write on the hot path.
        const auto st = sessions_.stats();
        obs::Registry& reg = obs::Registry::global();
        reg.gauge("kvcache.sessions.live").set(static_cast<std::int64_t>(st.sessions));
        reg.gauge("kvcache.pages.in_use").set(st.pages_in_use);
        reg.gauge("kvcache.pages.free").set(st.pages_free);
        reg.gauge("kvcache.prefix.entries").set(st.prefix_entries);
        put_metrics_snapshot(out, reg.snapshot());
        break;
      }
      case Op::RingPrefill: rsp.status = ring_prefill(r, out); break;
      case Op::Shutdown: out.u8(1); break;
      default:
        make_error_response(rsp, RpcStatus::Malformed, "unknown op", 0);
        return;
    }
  } catch (const kvcache::SessionNotFound& e) {
    make_error_response(rsp, RpcStatus::SessionNotFound, e.what(), sid);
    return;
  } catch (const kvcache::SessionEvicted& e) {
    make_error_response(rsp, RpcStatus::SessionEvicted, e.what(), sid);
    return;
  } catch (const kvcache::CacheFull& e) {
    make_error_response(rsp, RpcStatus::CacheFull, e.what(), sid);
    return;
  } catch (const InvalidArgument& e) {
    make_error_response(rsp, RpcStatus::InvalidArgument, e.what(), sid);
    return;
  } catch (const std::exception& e) {
    make_error_response(rsp, RpcStatus::Internal, e.what(), sid);
    return;
  }
  if (rsp.status == RpcStatus::Ok) {
    if (out.buf.empty()) out.u8(1);  // every payload is non-empty
    rsp.body = std::move(out.buf);
  } else {
    make_error_response(rsp, rsp.status, to_string(rsp.status), 0);
  }
}

// ---------------------------------------------------------------------
// Ring prefill (body layout and status rules: node.hpp)

namespace {

/// Ceiling on a decoded element count: nothing larger fits in a frame.
constexpr std::uint64_t kMaxElems = kMaxFramePayload / sizeof(float);

/// `n` elements of T in the body, viewed where the transport copied
/// them (memcpy or recv, which create the T objects implicitly, as
/// C++20 [intro.object] lets a byte copy do); nullptr, with the Reader
/// tripped, when they are not all there or not aligned for T.
template <typename T>
const T* view(Reader& r, std::uint64_t n) {
  if (n > r.remaining() / sizeof(T) || reinterpret_cast<std::uintptr_t>(r.p) % alignof(T) != 0) {
    r.ok = false;
    return nullptr;
  }
  const T* p = reinterpret_cast<const T*>(r.p);
  r.p += n * sizeof(T);
  return p;
}

/// A run of shipped K/V columns [begin, end), packed from row `slot` on.
struct KvRun {
  Index begin = 0;
  Index end = 0;
  Index slot = 0;
};

/// The packed K/V row of column j, or -1 when j was not shipped.
Index slot_of(const std::vector<KvRun>& runs, Index j) {
  const auto it = std::upper_bound(runs.begin(), runs.end(), j,
                                   [](Index col, const KvRun& run) { return col < run.end; });
  return it != runs.end() && it->begin <= j ? it->slot + (j - it->begin) : -1;
}

}  // namespace

RpcStatus NodeService::ring_prefill(Reader& r, Writer& out) {
  const std::uint32_t part = r.u32();
  const bool causal = r.u32() != 0;
  const float scale = r.f32();
  const Index d = static_cast<Index>(r.u32());
  seqpar::Partition partition;
  if (!r.ok || !get_partition(r, partition)) return RpcStatus::Malformed;
  if (d <= 0 || part >= static_cast<std::uint64_t>(partition.parts())) {
    return RpcStatus::InvalidArgument;
  }
  const Index L = partition.boundaries.back();
  const Index lo = partition.boundaries[part];
  const Index rows = partition.boundaries[part + 1] - lo;
  if (static_cast<std::uint64_t>(rows) > kMaxElems / static_cast<std::uint64_t>(d)) {
    return RpcStatus::InvalidArgument;  // rows × d overflows any frame
  }

  const std::int64_t mask_rows = r.i64();
  const std::int64_t mask_cols = r.i64();
  const std::uint64_t nnz = r.u64();
  if (!r.ok) return RpcStatus::Malformed;
  if (mask_rows != rows || mask_cols != L) return RpcStatus::InvalidArgument;
  const Index* offsets = view<Index>(r, static_cast<std::uint64_t>(rows) + 1);
  const std::uint32_t* cols = view<std::uint32_t>(r, nnz);

  const std::uint32_t nruns = r.u32();
  if (!r.ok || nruns > r.remaining() / 8) return RpcStatus::Malformed;
  std::vector<KvRun> runs(nruns);
  Index kv_rows = 0;
  for (std::size_t x = 0; x < runs.size(); ++x) {
    const Index begin = r.u32();
    const Index end = r.u32();
    if (begin < (x == 0 ? 0 : runs[x - 1].end) || end <= begin || end > L) {
      return RpcStatus::InvalidArgument;  // unsorted, overlapping, empty or out of range
    }
    runs[x] = {begin, end, kv_rows};
    kv_rows += end - begin;
  }
  if (static_cast<std::uint64_t>(kv_rows) > kMaxElems / static_cast<std::uint64_t>(d)) {
    return RpcStatus::Malformed;  // more K/V than any frame carries
  }
  const float* q = view<float>(r, static_cast<std::uint64_t>(rows * d));
  const float* k = view<float>(r, static_cast<std::uint64_t>(kv_rows * d));
  const float* v = view<float>(r, static_cast<std::uint64_t>(kv_rows * d));
  if (!r.done()) return RpcStatus::Malformed;

  // A canonical slice (offsets from 0 to nnz, each row's columns
  // strictly ascending in [0, L)) whose every folded edge was shipped.
  if (offsets[0] != 0 || static_cast<std::uint64_t>(offsets[rows]) != nnz ||
      !std::is_sorted(offsets, offsets + rows + 1)) {
    return RpcStatus::InvalidArgument;
  }
  for (Index li = 0; li < rows; ++li) {
    for (Index kk = offsets[li]; kk < offsets[li + 1]; ++kk) {
      const Index j = cols[kk];
      if (j >= L || (kk > offsets[li] && j <= cols[kk - 1]) ||
          (!(causal && j > lo + li) && slot_of(runs, j) < 0)) {
        return RpcStatus::InvalidArgument;
      }
    }
  }

  // Fold straight into the response body: [rows][d][rows × d][edges].
  // Default dispatch: every node runs the same binary on the same host
  // class as the sim_cluster oracle, so the resolved VecOps arm (and
  // with it the fold's operation order) matches. Wire contract matches
  // AttentionOptions: scale < 0 selects 1/sqrt(dk), resolved here as
  // the oracle resolves it.
  put_matrix_dims(out, rows, d);
  const std::size_t out_at = out.buf.size();
  out.buf.resize(out_at + static_cast<std::size_t>(rows * d) * sizeof(float));
  float* o = new (out.buf.data() + out_at) float[static_cast<std::size_t>(rows * d)];
  const seqpar::ShardFold fold{simd::ops(ExecPolicy{}.simd), d,
                              gpa::detail::resolve_scale(scale, d), false, causal,
                              partition.boundaries.data() + 1};
  const auto kv = [&](Index j) {
    const auto at = static_cast<std::size_t>(slot_of(runs, j) * d);
    return std::pair{k + at, v + at};
  };
  Size edges = 0;
  for (Index li = 0; li < rows; ++li) {
    const Index b = offsets[li];
    edges += fold.row(lo + li, q + li * d, cols + b, nullptr, offsets[li + 1] - b, kv,
                      o + li * d);
  }
  out.u64(edges);
  return RpcStatus::Ok;
}

}  // namespace gpa::net
