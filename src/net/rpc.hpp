#pragma once
// RPC layer: a minimal request/response protocol over frames, carrying
// the KV-cache error taxonomy (SessionNotFound / SessionEvicted /
// CacheFull) across the wire as typed statuses instead of letting a
// node assert on an operational condition.
//
// Request payload:   [id u64][op u8][body ...]
// Response payload:  [id u64][status u8][body ...]
//
// On any status other than Ok the response body is [detail string]
// [session id u64] so the client can rethrow the exact exception the
// local API would have thrown — the serving layer's catch sites work
// unchanged whether the session lives in-process or across a socket.

#include <chrono>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/transport.hpp"

namespace gpa::net {

inline constexpr std::uint16_t kFrameRequest = 1;
inline constexpr std::uint16_t kFrameResponse = 2;

/// Operations a node serves. Values are wire format — append only.
/// Retired values are answered as unknown ops and never reused: 6–9
/// carried the four-op relayed ring rotation, and 12 the ring prefill
/// body with mask values and i64 column ids.
enum class Op : std::uint8_t {
  Ping = 1,
  CreateSession = 2,
  Prefill = 3,
  DecodeStep = 4,
  ReleaseSession = 5,
  Shutdown = 10,
  Stats = 11,        ///< scrape the node's metrics registry snapshot
  RingPrefill = 13,  ///< fold one part of a ring prefill (net/node.hpp)
};

/// Wire form of the error taxonomy. Values are wire format — append
/// only.
enum class RpcStatus : std::uint8_t {
  Ok = 0,
  SessionNotFound = 1,
  SessionEvicted = 2,
  CacheFull = 3,
  InvalidArgument = 4,
  Malformed = 5,  ///< request body failed to decode
  Internal = 6,
};

const char* to_string(RpcStatus s);
const char* to_string(Op op);

struct RpcRequest {
  std::uint64_t id = 0;
  Op op = Op::Ping;
  std::vector<std::uint8_t> body;
};

struct RpcResponse {
  std::uint64_t id = 0;
  RpcStatus status = RpcStatus::Ok;
  std::vector<std::uint8_t> body;
};

// One frame each way. Sends go out as a single gather write of header,
// [id][op|status] prefix, body and trailer; receives read the body
// straight into RpcRequest/RpcResponse::body. A request body is given
// as the concatenation of `body` (any number of parts), never joined
// in memory.
WireStatus send_request(Transport& t, std::uint64_t id, Op op,
                        std::span<const ConstBytes> body);
WireStatus recv_request(Transport& t, RpcRequest& req);
WireStatus send_response(Transport& t, const RpcResponse& rsp);
WireStatus recv_response(Transport& t, RpcResponse& rsp);

/// Helper for error responses: body = [detail][session id].
void make_error_response(RpcResponse& rsp, RpcStatus status, const std::string& detail,
                         std::uint64_t session_id);

/// Client half of one connection: matches response ids to request ids.
/// call() throws TransportError if the peer vanished mid-call, and
/// rethrows error statuses as the library's own typed exceptions
/// (kvcache::SessionNotFound / SessionEvicted / CacheFull,
/// InvalidArgument, RpcError for the rest); on Ok it returns the
/// response body. call() is send() then receive(); a caller sending to
/// several peers before receiving lets them work concurrently. On one
/// connection, responses are received in request order.
class RpcClient {
 public:
  explicit RpcClient(Transport& t) : t_(t) {}

  /// A request on the wire whose response has not been received yet.
  struct Pending {
    Op op = Op::Ping;
    std::uint64_t id = 0;
    std::chrono::steady_clock::time_point t0;
    std::int64_t trace_t0_us = -1;  ///< span start; -1 when tracing was off
  };

  std::vector<std::uint8_t> call(Op op, std::vector<std::uint8_t> body);
  /// Sends a request whose body is the gather parts (see send_request);
  /// they need to stay valid only for this call. Throws TransportError
  /// if the send fails.
  Pending send(Op op, std::span<const ConstBytes> body);
  /// Reads the response to `p`, with call()'s errors.
  std::vector<std::uint8_t> receive(const Pending& p);

 private:
  Transport& t_;
  std::uint64_t next_id_ = 1;
};

/// The connection died or the peer sent unframeable bytes.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A typed remote failure with no more specific local exception.
class RpcError : public std::runtime_error {
 public:
  RpcError(RpcStatus status, const std::string& detail)
      : std::runtime_error(detail), status_(status) {}
  RpcStatus status() const noexcept { return status_; }

 private:
  RpcStatus status_;
};

}  // namespace gpa::net
