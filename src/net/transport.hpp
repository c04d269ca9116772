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
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include <sys/uio.h>

#include "common/types.hpp"

namespace gpa::net {

using Millis = std::chrono::milliseconds;

/// One part of a gather write: a borrowed byte range.
struct ConstBytes {
  const void* data = nullptr;
  std::size_t size = 0;
};

namespace detail {

/// The first byte of a gather list not yet sent. TcpTransport fills
/// each sendmsg from it and advances it by what the call sent, which
/// can end anywhere, mid-part included. Zero-length parts are skipped.
class GatherCursor {
 public:
  explicit GatherCursor(std::span<const ConstBytes> parts) : parts_(parts) { advance(0); }

  bool done() const noexcept { return part_ == parts_.size(); }
  /// Writes the next (at most `max` >= 1) non-empty ranges to `iov`,
  /// the first one starting at the cursor; returns how many.
  std::size_t fill(iovec* iov, std::size_t max) const noexcept;
  /// Moves the cursor past `n` bytes (at most what is left).
  void advance(std::size_t n) noexcept;

 private:
  std::span<const ConstBytes> parts_;
  std::size_t part_ = 0;
  std::size_t off_ = 0;  ///< bytes of parts_[part_] already sent
};

}  // namespace detail

class Transport {
 public:
  virtual ~Transport() = default;

  /// Sends all n bytes; false on peer close / error / send timeout.
  bool send_all(const void* data, std::size_t n) {
    const ConstBytes part{data, n};
    return send_gather({&part, 1});
  }
  /// Sends the parts back to back, as if concatenated; false as for
  /// send_all. Zero-length parts are skipped. TCP sends them with
  /// sendmsg, up to IOV_MAX parts at a time.
  virtual bool send_gather(std::span<const ConstBytes> parts) = 0;
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
