#include "net/transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <vector>

#include "common/error.hpp"

namespace gpa::net {

namespace {

void set_io_timeout(int fd, Millis io_timeout) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(io_timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((io_timeout.count() % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool set_nonblocking(int fd, bool nb) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, nb ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK)) >= 0;
}

}  // namespace

namespace detail {

std::size_t GatherCursor::fill(iovec* iov, std::size_t max) const noexcept {
  std::size_t count = 0;
  std::size_t off = off_;
  for (std::size_t x = part_; x < parts_.size() && count < max; ++x, off = 0) {
    if (parts_[x].size == off) continue;
    iov[count++] = {static_cast<std::uint8_t*>(const_cast<void*>(parts_[x].data)) + off,
                    parts_[x].size - off};
  }
  return count;
}

void GatherCursor::advance(std::size_t n) noexcept {
  for (;;) {
    while (part_ < parts_.size() && off_ == parts_[part_].size) {
      ++part_;
      off_ = 0;
    }
    if (n == 0 || part_ == parts_.size()) return;
    const std::size_t step = std::min(n, parts_[part_].size - off_);
    off_ += step;
    n -= step;
  }
}

}  // namespace detail

// ---------------------------------------------------------------------
// TcpTransport

std::unique_ptr<TcpTransport> TcpTransport::connect(const std::string& host, std::uint16_t port,
                                                    Millis connect_timeout, Millis io_timeout) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return nullptr;
  }

  // Non-blocking connect + poll gives a real deadline; a blocking
  // connect() can take the kernel's SYN-retry minutes to report a dead
  // peer.
  if (!set_nonblocking(fd, true)) {
    ::close(fd);
    return nullptr;
  }
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    return nullptr;
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    rc = ::poll(&pfd, 1, static_cast<int>(connect_timeout.count()));
    if (rc <= 0) {  // timeout or poll error
      ::close(fd);
      return nullptr;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return nullptr;
    }
  }
  if (!set_nonblocking(fd, false)) {
    ::close(fd);
    return nullptr;
  }
  set_io_timeout(fd, io_timeout);
  return std::unique_ptr<TcpTransport>(new TcpTransport(fd));
}

TcpTransport::~TcpTransport() { close(); }

bool TcpTransport::send_gather(std::span<const ConstBytes> parts) {
  detail::GatherCursor cursor(parts);
  iovec iov[IOV_MAX];  // sendmsg takes at most IOV_MAX ranges per call
  while (!cursor.done()) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = cursor.fill(iov, IOV_MAX);
    // MSG_NOSIGNAL: a closed peer must surface as EPIPE, not SIGPIPE.
    const ssize_t sent = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;  // includes EAGAIN from SO_SNDTIMEO expiry
    }
    cursor.advance(static_cast<std::size_t>(sent));
  }
  return true;
}

bool TcpTransport::recv_exact(void* data, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t got = ::recv(fd_, p, n, 0);
    if (got == 0) return false;  // orderly EOF mid-read
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;  // includes EAGAIN from SO_RCVTIMEO expiry
    }
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

void TcpTransport::close() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
}

// ---------------------------------------------------------------------
// TcpListener

TcpListener::TcpListener(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  GPA_CHECK(fd_ >= 0, "net: socket() failed");
  int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd_, 16) != 0) {
    ::close(fd_);
    fd_ = -1;
    GPA_CHECK(false, "net: bind/listen on 127.0.0.1 failed");
  }
  socklen_t len = sizeof(addr);
  GPA_CHECK(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
            "net: getsockname failed");
  port_ = ntohs(addr.sin_port);
}

TcpListener::~TcpListener() { close(); }

std::unique_ptr<TcpTransport> TcpListener::accept(Millis accept_timeout, Millis io_timeout) {
  if (fd_ < 0) return nullptr;
  pollfd pfd{fd_, POLLIN, 0};
  int rc;
  do {
    rc = ::poll(&pfd, 1, static_cast<int>(accept_timeout.count()));
  } while (rc < 0 && errno == EINTR);
  if (rc <= 0) return nullptr;  // timeout, or listener closed under us
  const int cfd = ::accept(fd_, nullptr, nullptr);
  if (cfd < 0) return nullptr;
  set_io_timeout(cfd, io_timeout);
  return std::unique_ptr<TcpTransport>(new TcpTransport(cfd));
}

void TcpListener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

// ---------------------------------------------------------------------
// Loopback

namespace {

/// One direction of the pipe: a byte queue with blocking reads.
struct Channel {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::uint8_t> buf;  ///< unread bytes are buf[head, size)
  std::size_t head = 0;
  bool closed = false;

  /// Appends the parts under one lock and wakes the reader once.
  bool write(std::span<const ConstBytes> parts) {
    std::lock_guard<std::mutex> lk(mu);
    if (closed) return false;
    if (head > 0 && head >= buf.size() / 2) {
      // Drop the read half before growing, so a reader that never fully
      // drains does not keep the buffer growing.
      buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
    }
    const std::size_t end = buf.size();
    std::size_t total = 0;
    for (const ConstBytes& part : parts) total += part.size;
    buf.resize(end + total);
    std::uint8_t* dst = buf.data() + end;
    for (const ConstBytes& part : parts) {
      if (part.size == 0) continue;
      std::memcpy(dst, part.data, part.size);
      dst += part.size;
    }
    cv.notify_all();
    return true;
  }

  bool read_exact(std::uint8_t* p, std::size_t n) {
    std::unique_lock<std::mutex> lk(mu);
    while (n > 0) {
      cv.wait(lk, [&] { return head < buf.size() || closed; });
      if (head == buf.size()) return false;  // closed and drained: EOF
      const std::size_t take = std::min(n, buf.size() - head);
      std::memcpy(p, buf.data() + head, take);
      head += take;
      if (head == buf.size()) {
        buf.clear();
        head = 0;
      }
      p += take;
      n -= take;
    }
    return true;
  }

  void close() {
    std::lock_guard<std::mutex> lk(mu);
    closed = true;
    cv.notify_all();
  }
};

class LoopbackTransport final : public Transport {
 public:
  LoopbackTransport(std::shared_ptr<Channel> out, std::shared_ptr<Channel> in)
      : out_(std::move(out)), in_(std::move(in)) {}
  ~LoopbackTransport() override { close(); }

  bool send_gather(std::span<const ConstBytes> parts) override { return out_->write(parts); }
  bool recv_exact(void* data, std::size_t n) override {
    return in_->read_exact(static_cast<std::uint8_t*>(data), n);
  }
  void close() override {
    // Close both directions: the peer's reads EOF once drained, and
    // the peer's writes fail immediately.
    out_->close();
    in_->close();
  }

 private:
  std::shared_ptr<Channel> out_;
  std::shared_ptr<Channel> in_;
};

}  // namespace

std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>> make_loopback_pair() {
  auto a_to_b = std::make_shared<Channel>();
  auto b_to_a = std::make_shared<Channel>();
  return {std::make_unique<LoopbackTransport>(a_to_b, b_to_a),
          std::make_unique<LoopbackTransport>(b_to_a, a_to_b)};
}

}  // namespace gpa::net
