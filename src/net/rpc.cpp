#include "net/rpc.hpp"

#include <algorithm>
#include <chrono>

#include "common/error.hpp"
#include "kvcache/errors.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gpa::net {

namespace {

struct RpcMetrics {
  obs::Counter& calls;
  obs::Counter& errors;              ///< typed non-Ok statuses from the peer
  obs::Counter& transport_failures;  ///< connection died / desynchronised
  obs::Histogram& latency_us;

  static RpcMetrics& get() {
    static RpcMetrics m = [] {
      obs::Registry& reg = obs::Registry::global();
      return RpcMetrics{
          reg.counter("net.rpc.calls"), reg.counter("net.rpc.errors"),
          reg.counter("net.rpc.transport_failures"),
          reg.histogram("net.rpc.latency_us",
                        {50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000,
                         100000, 250000, 1000000})};
    }();
    return m;
  }
};

}  // namespace

const char* to_string(RpcStatus s) {
  switch (s) {
    case RpcStatus::Ok: return "ok";
    case RpcStatus::SessionNotFound: return "session not found";
    case RpcStatus::SessionEvicted: return "session evicted";
    case RpcStatus::CacheFull: return "cache full";
    case RpcStatus::InvalidArgument: return "invalid argument";
    case RpcStatus::Malformed: return "malformed request body";
    case RpcStatus::Internal: return "internal error";
  }
  return "unknown";
}

const char* to_string(Op op) {
  switch (op) {
    case Op::Ping: return "ping";
    case Op::CreateSession: return "create-session";
    case Op::Prefill: return "prefill";
    case Op::DecodeStep: return "decode-step";
    case Op::ReleaseSession: return "release-session";
    case Op::RingStart: return "ring-start";
    case Op::RingFetch: return "ring-fetch";
    case Op::RingShard: return "ring-shard";
    case Op::RingFinish: return "ring-finish";
    case Op::Shutdown: return "shutdown";
    case Op::Stats: return "stats";
  }
  return "unknown";
}

namespace {

/// Every RPC payload opens with [id u64][op or status u8].
constexpr std::size_t kRpcPrefixBytes = 9;

WireStatus send_rpc(Transport& t, std::uint16_t type, std::uint64_t id, std::uint8_t code,
                    std::span<const ConstBytes> body) {
  std::uint8_t prefix[kRpcPrefixBytes];
  for (std::size_t b = 0; b < 8; ++b) prefix[b] = static_cast<std::uint8_t>(id >> (8 * b));
  prefix[8] = code;
  GPA_CHECK(body.size() + 1 <= kMaxGatherParts, "rpc: too many body parts");
  ConstBytes parts[kMaxGatherParts];
  parts[0] = {prefix, sizeof(prefix)};
  std::copy(body.begin(), body.end(), parts + 1);
  return write_frame_parts(t, type, 0, {parts, body.size() + 1});
}

/// Reads one RPC frame of `type`; the body lands in `body` in place.
WireStatus recv_rpc(Transport& t, std::uint16_t type, std::uint64_t& id, std::uint8_t& code,
                    std::vector<std::uint8_t>& body) {
  std::uint8_t prefix[kRpcPrefixBytes];
  Frame f;
  const WireStatus ws = read_frame_prefixed(t, prefix, sizeof(prefix), f);
  if (ws != WireStatus::Ok) return ws;
  if (f.type != type) return WireStatus::Malformed;
  Reader r(prefix, sizeof(prefix));
  id = r.u64();
  code = r.u8();
  body = std::move(f.payload);
  return WireStatus::Ok;
}

}  // namespace

WireStatus send_request(Transport& t, std::uint64_t id, Op op,
                        std::span<const ConstBytes> body) {
  return send_rpc(t, kFrameRequest, id, static_cast<std::uint8_t>(op), body);
}

WireStatus recv_request(Transport& t, RpcRequest& req) {
  std::uint8_t op = 0;
  const WireStatus ws = recv_rpc(t, kFrameRequest, req.id, op, req.body);
  if (ws == WireStatus::Ok) req.op = static_cast<Op>(op);
  return ws;
}

WireStatus send_response(Transport& t, const RpcResponse& rsp) {
  const ConstBytes body{rsp.body.data(), rsp.body.size()};
  return send_rpc(t, kFrameResponse, rsp.id, static_cast<std::uint8_t>(rsp.status), {&body, 1});
}

WireStatus recv_response(Transport& t, RpcResponse& rsp) {
  std::uint8_t status = 0;
  const WireStatus ws = recv_rpc(t, kFrameResponse, rsp.id, status, rsp.body);
  if (ws == WireStatus::Ok) rsp.status = static_cast<RpcStatus>(status);
  return ws;
}

void make_error_response(RpcResponse& rsp, RpcStatus status, const std::string& detail,
                         std::uint64_t session_id) {
  rsp.status = status;
  Writer w;
  put_string(w, detail);
  w.u64(session_id);
  rsp.body = std::move(w.buf);
}

std::vector<std::uint8_t> RpcClient::call(Op op, std::vector<std::uint8_t> body) {
  const ConstBytes part{body.data(), body.size()};
  return call(op, std::span<const ConstBytes>(&part, 1));
}

std::vector<std::uint8_t> RpcClient::call(Op op, std::span<const ConstBytes> body) {
  // Span name = the op's static string, so a trace shows which RPCs a
  // client spent its wall-clock in; the latency histogram is the
  // aggregate view of the same interval.
  obs::trace::Span span(to_string(op), "net.rpc");
  RpcMetrics& rm = RpcMetrics::get();
  rm.calls.inc();
  const auto t0 = std::chrono::steady_clock::now();

  const std::uint64_t id = next_id_++;
  if (send_request(t_, id, op, body) != WireStatus::Ok) {
    rm.transport_failures.inc();
    throw TransportError("rpc: send failed (" + std::string(to_string(op)) + ")");
  }
  RpcResponse rsp;
  const WireStatus ws = recv_response(t_, rsp);
  if (ws != WireStatus::Ok) {
    rm.transport_failures.inc();
    throw TransportError("rpc: receive failed (" + std::string(to_string(ws)) + ")");
  }
  if (rsp.id != id) {
    rm.transport_failures.inc();
    throw TransportError("rpc: response id mismatch — connection desynchronised");
  }
  rm.latency_us.observe(
      std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0)
          .count());
  if (rsp.status == RpcStatus::Ok) return std::move(rsp.body);
  rm.errors.inc();

  // Rebuild the typed exception the local API would have thrown.
  Reader r(rsp.body);
  std::string detail;
  get_string(r, detail);
  const std::uint64_t sid = r.u64();
  switch (rsp.status) {
    case RpcStatus::SessionNotFound: throw kvcache::SessionNotFound(sid);
    case RpcStatus::SessionEvicted: throw kvcache::SessionEvicted(sid);
    case RpcStatus::CacheFull: throw kvcache::CacheFull();
    case RpcStatus::InvalidArgument:
      throw InvalidArgument(detail.empty() ? std::string(to_string(rsp.status)) : detail);
    default: throw RpcError(rsp.status, detail.empty() ? to_string(rsp.status) : detail);
  }
}

}  // namespace gpa::net
