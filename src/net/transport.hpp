#pragma once
// Byte transports under the frame layer. Two arms, one contract:
//
//   * TcpTransport / TcpListener — blocking localhost/LAN sockets with
//     connect/accept/receive timeouts (a hung peer turns into a typed
//     Closed status upstream, never a wedged thread).
//   * LoopbackTransport (make_loopback_pair) — an in-process byte pipe
//     with the exact same blocking semantics, so every protocol test
//     runs transport-polymorphic without touching the network stack.
//
// The contract is deliberately minimal: send everything or fail,
// receive exactly n bytes or fail. Framing, checksums and typed errors
// live above (frame.hpp / rpc.hpp); retry policy lives with callers.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>

#include "common/types.hpp"

namespace gpa::net {

using Millis = std::chrono::milliseconds;

/// One part of a gather write: a borrowed byte range.
struct ConstBytes {
  const void* data = nullptr;
  std::size_t size = 0;
};

/// Most parts one send_gather takes. A frame is a handful of parts
/// (header, RPC prefix, a few body ranges, trailer), so callers build
/// the part list on the stack instead of allocating it per frame.
inline constexpr std::size_t kMaxGatherParts = 16;

class Transport {
 public:
  virtual ~Transport() = default;

  /// Sends all n bytes; false on peer close / error / send timeout.
  virtual bool send_all(const void* data, std::size_t n) = 0;
  /// Sends the parts (at most kMaxGatherParts) back to back, as if
  /// concatenated; false as for send_all. The default sends each part
  /// with send_all; TCP overrides it with one sendmsg over all parts.
  virtual bool send_gather(std::span<const ConstBytes> parts);
  /// Receives exactly n bytes; false on EOF / error / receive timeout.
  virtual bool recv_exact(void* data, std::size_t n) = 0;
  /// Idempotent; unblocks any peer blocked in recv_exact.
  virtual void close() = 0;
};

// ---------------------------------------------------------------------
// TCP arm.

class TcpTransport final : public Transport {
 public:
  /// Connect with a hard deadline (non-blocking connect + poll), then
  /// switch to blocking I/O with SO_RCVTIMEO/SO_SNDTIMEO set to
  /// `io_timeout` and TCP_NODELAY on (frames are latency-bound).
  /// Returns nullptr on refusal/timeout.
  static std::unique_ptr<TcpTransport> connect(const std::string& host, std::uint16_t port,
                                               Millis connect_timeout, Millis io_timeout);

  ~TcpTransport() override;
  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  bool send_all(const void* data, std::size_t n) override;
  bool send_gather(std::span<const ConstBytes> parts) override;
  bool recv_exact(void* data, std::size_t n) override;
  void close() override;

 private:
  friend class TcpListener;
  explicit TcpTransport(int fd) : fd_(fd) {}
  int fd_ = -1;
};

class TcpListener {
 public:
  /// Bind + listen on 127.0.0.1:`port`; port 0 picks an ephemeral port
  /// (read it back via port()). Throws InvalidArgument on bind failure.
  explicit TcpListener(std::uint16_t port);
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  std::uint16_t port() const noexcept { return port_; }

  /// Accept one connection within the deadline (poll + accept);
  /// nullptr on timeout. The accepted socket gets `io_timeout` as its
  /// receive/send timeout.
  std::unique_ptr<TcpTransport> accept(Millis accept_timeout, Millis io_timeout);

  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

// ---------------------------------------------------------------------
// Loopback arm.

/// Two connected in-process endpoints. Each endpoint's sends appear at
/// the other's recv_exact in order; close() wakes the peer with EOF
/// semantics once the buffered bytes drain. Thread-safe per endpoint.
std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>> make_loopback_pair();

}  // namespace gpa::net
