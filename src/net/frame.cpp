#include "net/frame.hpp"

#include "common/error.hpp"
#include "net/crc32c.hpp"
#include "obs/metrics.hpp"

namespace gpa::net {

namespace {

// Per-process wire totals, counted at the transport boundary (the
// loopback arm goes through the same two functions, so loopback tests
// see the same accounting as TCP). Byte counts include the 20 bytes of
// header + trailer — they answer "what crossed the wire", not "payload
// goodput".
struct WireMetrics {
  obs::Counter& frames_sent;
  obs::Counter& frames_received;
  obs::Counter& bytes_sent;
  obs::Counter& bytes_received;
  obs::Counter& checksum_failures;

  static WireMetrics& get() {
    static WireMetrics m = [] {
      obs::Registry& reg = obs::Registry::global();
      return WireMetrics{reg.counter("net.frames.sent"),
                         reg.counter("net.frames.received"),
                         reg.counter("net.bytes.sent"),
                         reg.counter("net.bytes.received"),
                         reg.counter("net.checksum_failures")};
    }();
    return m;
  }
};

}  // namespace

const char* to_string(WireStatus s) {
  switch (s) {
    case WireStatus::Ok: return "ok";
    case WireStatus::Truncated: return "truncated";
    case WireStatus::BadMagic: return "bad magic";
    case WireStatus::Oversized: return "oversized length prefix";
    case WireStatus::EmptyPayload: return "empty payload";
    case WireStatus::ChecksumMismatch: return "checksum mismatch";
    case WireStatus::Malformed: return "malformed";
    case WireStatus::Closed: return "transport closed";
  }
  return "unknown";
}

std::uint32_t payload_checksum(const std::uint8_t* data, std::size_t n) {
  return crc32c_extend(0, data, n);
}

namespace {

void store_le(std::uint8_t* p, std::uint64_t v, std::size_t bytes) {
  for (std::size_t b = 0; b < bytes; ++b) p[b] = static_cast<std::uint8_t>(v >> (8 * b));
}

std::uint32_t load_le32(const std::uint8_t* p) {
  Reader r(p, 4);
  return r.u32();
}

void put_header(std::uint8_t* out, std::uint16_t type, std::uint16_t flags, std::uint64_t len) {
  store_le(out, kFrameMagic, 4);
  store_le(out + 4, type, 2);
  store_le(out + 6, flags, 2);
  store_le(out + 8, len, 8);
}

struct Header {
  std::uint16_t type = 0;
  std::uint16_t flags = 0;
  std::uint64_t len = 0;
};

/// Validate the 16 header bytes. `n` is how many bytes the caller
/// actually has (streamed reads always pass a full header; buffer
/// decodes may be short).
WireStatus parse_header(const std::uint8_t* data, std::size_t n, Header& h) {
  if (n < kFrameHeaderBytes) return WireStatus::Truncated;
  Reader r(data, kFrameHeaderBytes);
  const std::uint32_t magic = r.u32();
  h.type = r.u16();
  h.flags = r.u16();
  h.len = r.u64();
  if (magic != kFrameMagic) return WireStatus::BadMagic;
  if (h.len == 0) return WireStatus::EmptyPayload;
  if (h.len > kMaxFramePayload) return WireStatus::Oversized;
  return WireStatus::Ok;
}

}  // namespace

void encode_frame(const Frame& frame, std::vector<std::uint8_t>& out) {
  const std::size_t n = frame.payload.size();
  GPA_CHECK(n > 0, "net: cannot encode an empty frame payload");
  GPA_CHECK(n <= kMaxFramePayload, "net: frame payload exceeds cap");
  out.resize(kFrameHeaderBytes + n + kFrameTrailerBytes);
  put_header(out.data(), frame.type, frame.flags, n);
  std::memcpy(out.data() + kFrameHeaderBytes, frame.payload.data(), n);
  store_le(out.data() + kFrameHeaderBytes + n, payload_checksum(frame.payload.data(), n),
           kFrameTrailerBytes);
}

WireStatus decode_frame(const std::uint8_t* data, std::size_t n, Frame& out) {
  Header h;
  const WireStatus hs = parse_header(data, n, h);
  if (hs != WireStatus::Ok) return hs;
  const std::uint64_t want = kFrameHeaderBytes + h.len + kFrameTrailerBytes;
  if (n < want) return WireStatus::Truncated;
  if (n > want) return WireStatus::Malformed;  // trailing junk
  const std::uint8_t* payload = data + kFrameHeaderBytes;
  if (payload_checksum(payload, static_cast<std::size_t>(h.len)) != load_le32(payload + h.len)) {
    return WireStatus::ChecksumMismatch;
  }
  out.type = h.type;
  out.flags = h.flags;
  out.payload.assign(payload, payload + h.len);
  return WireStatus::Ok;
}

WireStatus write_frame(Transport& t, const Frame& frame) {
  const ConstBytes payload{frame.payload.data(), frame.payload.size()};
  return write_frame_parts(t, frame.type, frame.flags, {&payload, 1});
}

WireStatus read_frame(Transport& t, Frame& out) {
  return read_frame_prefixed(t, nullptr, 0, out);
}

WireStatus write_frame_parts(Transport& t, std::uint16_t type, std::uint16_t flags,
                             std::span<const ConstBytes> parts) {
  std::uint64_t len = 0;
  std::uint32_t crc = 0;
  for (const ConstBytes& p : parts) {
    len += p.size;
    crc = crc32c_extend(crc, static_cast<const std::uint8_t*>(p.data), p.size);
  }
  GPA_CHECK(len > 0, "net: cannot encode an empty frame payload");
  GPA_CHECK(len <= kMaxFramePayload, "net: frame payload exceeds cap");
  std::uint8_t header[kFrameHeaderBytes];
  put_header(header, type, flags, len);
  std::uint8_t trailer[kFrameTrailerBytes];
  store_le(trailer, crc, kFrameTrailerBytes);

  std::vector<ConstBytes> wire;
  wire.reserve(parts.size() + 2);
  wire.push_back({header, sizeof(header)});
  wire.insert(wire.end(), parts.begin(), parts.end());
  wire.push_back({trailer, sizeof(trailer)});
  if (!t.send_gather(wire)) return WireStatus::Closed;
  WireMetrics& wm = WireMetrics::get();
  wm.frames_sent.inc();
  wm.bytes_sent.inc(kFrameHeaderBytes + len + kFrameTrailerBytes);
  return WireStatus::Ok;
}

WireStatus read_frame_prefixed(Transport& t, std::uint8_t* prefix, std::size_t prefix_n,
                               Frame& out) {
  GPA_CHECK(prefix_n <= kMaxFramePrefix, "net: frame prefix exceeds kMaxFramePrefix");
  std::uint8_t head[kFrameHeaderBytes + kMaxFramePrefix];
  if (!t.recv_exact(head, kFrameHeaderBytes + prefix_n)) return WireStatus::Closed;
  Header h;
  const WireStatus hs = parse_header(head, kFrameHeaderBytes, h);
  // On a corrupt header the stream position is unrecoverable (the
  // length prefix cannot be trusted), so the caller must close; we do
  // not attempt to resynchronise.
  if (hs != WireStatus::Ok) return hs;
  if (h.len < prefix_n) return WireStatus::Malformed;
  out.type = h.type;
  out.flags = h.flags;
  // The rest of the payload and the trailer in one read, then the
  // trailer is trimmed off.
  const auto rest = static_cast<std::size_t>(h.len) - prefix_n;
  out.payload.resize(rest + kFrameTrailerBytes);
  if (!t.recv_exact(out.payload.data(), out.payload.size())) return WireStatus::Truncated;
  const std::uint32_t stated = load_le32(out.payload.data() + rest);
  out.payload.resize(rest);
  const std::uint32_t crc = crc32c_extend(crc32c_extend(0, head + kFrameHeaderBytes, prefix_n),
                                          out.payload.data(), rest);
  if (crc != stated) {
    WireMetrics::get().checksum_failures.inc();
    return WireStatus::ChecksumMismatch;
  }
  if (prefix_n > 0) std::memcpy(prefix, head + kFrameHeaderBytes, prefix_n);
  WireMetrics& wm = WireMetrics::get();
  wm.frames_received.inc();
  wm.bytes_received.inc(kFrameHeaderBytes + h.len + kFrameTrailerBytes);
  return WireStatus::Ok;
}

// ---------------------------------------------------------------------
// Typed payload codecs.

namespace {
/// Ceiling on decoded vector/matrix element counts: anything a peer
/// sends arrives inside one frame, so no field can legitimately promise
/// more elements than the frame cap could carry.
constexpr std::uint64_t kMaxElems = kMaxFramePayload / sizeof(float);
}  // namespace

void put_string(Writer& w, const std::string& s) {
  w.u32(static_cast<std::uint32_t>(s.size()));
  w.bytes(s.data(), s.size());
}

bool get_string(Reader& r, std::string& s) {
  const std::uint32_t n = r.u32();
  if (!r.take(n)) return false;
  s.assign(reinterpret_cast<const char*>(r.p), n);
  r.p += n;
  return true;
}

void put_matrix_dims(Writer& w, Index rows, Index cols) {
  w.i64(rows);
  w.i64(cols);
}

void put_matrix(Writer& w, const Matrix<float>& m) {
  put_matrix_dims(w, m.rows(), m.cols());
  // Rows are contiguous; ship the buffer, field order is the element
  // order. f32 bit patterns are endian-normalised like every other
  // field (memcpy'd to u32, emitted LE) — bulk copy is safe because
  // the build targets little-endian hosts only; a big-endian port
  // would swap here.
  w.bytes(m.data(), static_cast<std::size_t>(m.rows()) * static_cast<std::size_t>(m.cols()) *
                        sizeof(float));
}

bool get_matrix(Reader& r, Matrix<float>& m) {
  const std::int64_t rows = r.i64();
  const std::int64_t cols = r.i64();
  if (!r.ok || rows < 0 || cols < 0) return false;
  const std::uint64_t elems = static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols);
  if (cols > 0 && static_cast<std::uint64_t>(rows) > kMaxElems / static_cast<std::uint64_t>(cols)) {
    r.ok = false;
    return false;
  }
  if (r.remaining() < elems * sizeof(float)) {
    r.ok = false;
    return false;
  }
  m = Matrix<float>(static_cast<Index>(rows), static_cast<Index>(cols));
  return r.bytes(m.data(), static_cast<std::size_t>(elems) * sizeof(float));
}

void put_csr(Writer& w, const Csr<float>& m) {
  w.i64(m.rows);
  w.i64(m.cols);
  w.u64(m.nnz());
  // Index arrays go in bulk, like put_matrix's rows: i64 in host order
  // is the LE wire order on the little-endian hosts the build targets.
  static_assert(sizeof(Index) == 8);
  w.bytes(m.row_offsets.data(), m.row_offsets.size() * sizeof(Index));
  w.bytes(m.col_idx.data(), m.col_idx.size() * sizeof(Index));
  w.bytes(m.values.data(), m.values.size() * sizeof(float));
}

bool get_csr(Reader& r, Csr<float>& m) {
  const std::int64_t rows = r.i64();
  const std::int64_t cols = r.i64();
  const std::uint64_t nnz = r.u64();
  if (!r.ok || rows < 0 || cols < 0 || static_cast<std::uint64_t>(rows) > kMaxElems ||
      nnz > kMaxElems) {
    return false;
  }
  // All three arrays must fit in what remains before any allocation.
  const std::uint64_t need = (static_cast<std::uint64_t>(rows) + 1) * 8 + nnz * (8 + 4);
  if (r.remaining() < need) {
    r.ok = false;
    return false;
  }
  m.rows = static_cast<Index>(rows);
  m.cols = static_cast<Index>(cols);
  m.row_offsets.resize(static_cast<std::size_t>(rows) + 1);
  m.col_idx.resize(static_cast<std::size_t>(nnz));
  m.values.resize(static_cast<std::size_t>(nnz));
  if (!r.bytes(m.row_offsets.data(), m.row_offsets.size() * sizeof(Index)) ||
      !r.bytes(m.col_idx.data(), m.col_idx.size() * sizeof(Index)) ||
      !r.bytes(m.values.data(), m.values.size() * sizeof(float))) {
    return false;
  }
  // Structural sanity — a peer's CSR must be canonical before any
  // kernel walks it (kernels index unchecked in release builds).
  return m.is_canonical();
}

void put_partition(Writer& w, const seqpar::Partition& p) {
  w.u32(static_cast<std::uint32_t>(p.boundaries.size()));
  for (const Index b : p.boundaries) w.i64(b);
  w.u32(static_cast<std::uint32_t>(p.work.size()));
  for (const Size s : p.work) w.u64(s);
}

bool get_partition(Reader& r, seqpar::Partition& p) {
  const std::uint32_t nb = r.u32();
  if (!r.ok || nb > kMaxElems || r.remaining() < static_cast<std::uint64_t>(nb) * 8) {
    r.ok = false;
    return false;
  }
  p.boundaries.resize(nb);
  for (Index& b : p.boundaries) b = static_cast<Index>(r.i64());
  const std::uint32_t nw = r.u32();
  if (!r.ok || nw > kMaxElems || r.remaining() < static_cast<std::uint64_t>(nw) * 8) {
    r.ok = false;
    return false;
  }
  p.work.resize(nw);
  for (Size& s : p.work) s = r.u64();
  if (!r.ok) return false;
  // parts+1 boundaries, monotone, starting at 0.
  if (p.boundaries.size() != p.work.size() + 1 || p.boundaries.empty()) return false;
  if (p.boundaries.front() != 0) return false;
  for (std::size_t i = 1; i < p.boundaries.size(); ++i) {
    if (p.boundaries[i] < p.boundaries[i - 1]) return false;
  }
  return true;
}

}  // namespace gpa::net
