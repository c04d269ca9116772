// src/net unit tests, transport-polymorphic via the loopback arm:
// CRC32C known answers and arm-vs-arm parity, frame codec fuzz (every
// malformed input is a typed WireStatus, never UB or a hang), loopback
// + TCP transports (including the streamed checksum, old-format magic
// and large gather-write paths), the RPC error taxonomy
// across a served connection, consistent-hash ring movement, the
// cluster differential gates — loopback ring prefill bit-identical to
// seqpar/sim_cluster, loopback routed decode bit-identical to a local
// SessionManager — and hostile RingPrefill bodies. The real
// multi-process version of the gates lives in test_cluster_e2e (tier2).

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "kvcache/errors.hpp"
#include "kvcache/session_manager.hpp"
#include "net/cluster.hpp"
#include "net/crc32c.hpp"
#include "net/frame.hpp"
#include "net/node.hpp"
#include "net/rpc.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "seqpar/partition.hpp"
#include "seqpar/sim_cluster.hpp"
#include "sparse/build.hpp"
#include "tensor/tensor_ops.hpp"
#include "tile_cases.hpp"

namespace {

using namespace gpa;

std::vector<std::uint8_t> valid_frame_bytes(std::uint16_t type = 7) {
  net::Frame f;
  f.type = type;
  f.flags = 3;
  f.payload = {1, 2, 3, 4, 5};
  std::vector<std::uint8_t> wire;
  net::encode_frame(f, wire);
  return wire;
}

/// A connected TCP pair on an ephemeral localhost port.
std::pair<std::unique_ptr<net::TcpTransport>, std::unique_ptr<net::TcpTransport>> tcp_pair() {
  net::TcpListener listener(0);
  EXPECT_NE(listener.port(), 0);
  std::unique_ptr<net::TcpTransport> server;
  std::thread acceptor(
      [&] { server = listener.accept(net::Millis{5000}, net::Millis{5000}); });
  auto client = net::TcpTransport::connect("127.0.0.1", listener.port(), net::Millis{5000},
                                           net::Millis{5000});
  acceptor.join();
  return {std::move(client), std::move(server)};
}

std::vector<std::uint8_t> bytes_of(const char* s) {
  return std::vector<std::uint8_t>(s, s + std::strlen(s));
}

// ---------------------------------------------------------------------
// CRC32C

TEST(Crc32c, KnownAnswers) {
  const auto check = [](const std::vector<std::uint8_t>& data) {
    const std::uint32_t hw = net::crc32c_extend(0, data.data(), data.size());
    EXPECT_EQ(hw, net::detail::crc32c_portable(0, data.data(), data.size()));
    return hw;
  };
  EXPECT_EQ(check(bytes_of("123456789")), 0xE3069283u);
  // RFC 3720 (iSCSI) appendix B.4.
  EXPECT_EQ(check(std::vector<std::uint8_t>(32, 0x00)), 0x8A9136AAu);
  EXPECT_EQ(check(std::vector<std::uint8_t>(32, 0xFF)), 0x62A8AB43u);
  std::vector<std::uint8_t> ascending(32);
  for (std::size_t i = 0; i < ascending.size(); ++i) ascending[i] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(check(ascending), 0x46DD794Eu);
  EXPECT_EQ(check({}), 0u);
  // payload_checksum is the same function.
  const auto digits = bytes_of("123456789");
  EXPECT_EQ(net::payload_checksum(digits.data(), digits.size()), 0xE3069283u);
}

TEST(Crc32c, DispatchedArmMatchesPortableAtEveryLengthAndAlignment) {
  // crc32c_extend runs the SSE4.2 arm whenever the build and CPU have
  // it; on other hosts this compares the portable arm with itself.
  RecordProperty("crc32c_arm", net::detail::crc32c_hardware() ? "sse4.2" : "portable");
  Rng rng(7);
  std::vector<std::uint8_t> buf((1u << 20) + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t n = 0; n <= 257; ++n) {
      const std::uint8_t* p = buf.data() + align;
      ASSERT_EQ(net::crc32c_extend(0, p, n), net::detail::crc32c_portable(0, p, n))
          << "align=" << align << " n=" << n;
      // A non-zero running CRC goes through the same arms.
      ASSERT_EQ(net::crc32c_extend(0x12345678u, p, n),
                net::detail::crc32c_portable(0x12345678u, p, n))
          << "align=" << align << " n=" << n;
    }
  }
  const std::size_t mib = 1u << 20;
  EXPECT_EQ(net::crc32c_extend(0, buf.data() + 3, mib),
            net::detail::crc32c_portable(0, buf.data() + 3, mib));
}

TEST(Crc32c, ExtendOverPartsEqualsOnePass) {
  Rng rng(8);
  std::vector<std::uint8_t> buf(1000);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
  const std::uint32_t whole = net::crc32c_extend(0, buf.data(), buf.size());
  for (const std::size_t cut : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                std::size_t{9}, std::size_t{500}, buf.size()}) {
    const std::uint32_t a = net::crc32c_extend(0, buf.data(), cut);
    EXPECT_EQ(net::crc32c_extend(a, buf.data() + cut, buf.size() - cut), whole) << cut;
    const std::uint32_t pa = net::detail::crc32c_portable(0, buf.data(), cut);
    EXPECT_EQ(net::detail::crc32c_portable(pa, buf.data() + cut, buf.size() - cut), whole)
        << cut;
  }
}

/// Lengths around the SSE4.2 arm's block edges: three 256-byte chains,
/// three 8192-byte chains, and a buffer that takes two long triples,
/// one short triple and a 7-byte tail.
std::vector<std::size_t> crc_block_edges() {
  std::vector<std::size_t> lengths;
  for (const std::size_t edge : {std::size_t{3 * 256}, std::size_t{3 * 8192}}) {
    for (std::size_t n = edge - 8; n <= edge + 8; ++n) lengths.push_back(n);
  }
  lengths.push_back(2 * 3 * 8192 + 3 * 256 + 7);
  return lengths;
}

TEST(Crc32c, DispatchedArmMatchesPortableAtBlockEdges) {
  Rng rng(9);
  std::vector<std::uint8_t> buf(2 * 3 * 8192 + 3 * 256 + 7 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
  for (const std::size_t n : crc_block_edges()) {
    for (std::size_t align = 0; align < 8; ++align) {
      const std::uint8_t* p = buf.data() + align;
      for (const std::uint32_t seed : {0u, 0x9E3779B9u}) {
        ASSERT_EQ(net::crc32c_extend(seed, p, n), net::detail::crc32c_portable(seed, p, n))
            << "n=" << n << " align=" << align << " seed=" << seed;
      }
    }
  }
}

TEST(Crc32c, ExtendSplitAtBlockEdgesEqualsOnePass) {
  Rng rng(10);
  std::vector<std::uint8_t> buf(2 * 3 * 8192 + 3 * 256 + 7);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
  const std::uint32_t whole = net::detail::crc32c_portable(0, buf.data(), buf.size());
  ASSERT_EQ(net::crc32c_extend(0, buf.data(), buf.size()), whole);
  for (const std::size_t cut : crc_block_edges()) {
    if (cut > buf.size()) continue;
    const std::uint32_t a = net::crc32c_extend(0, buf.data(), cut);
    EXPECT_EQ(net::crc32c_extend(a, buf.data() + cut, buf.size() - cut), whole) << cut;
  }
}

// ---------------------------------------------------------------------
// Frame codec

TEST(Frame, RoundTripPreservesTypeFlagsPayload) {
  net::Frame in;
  in.type = 42;
  in.flags = 0xbeef;
  in.payload = {9, 8, 7, 6};
  std::vector<std::uint8_t> wire;
  net::encode_frame(in, wire);
  ASSERT_EQ(wire.size(), net::kFrameHeaderBytes + 4 + net::kFrameTrailerBytes);

  net::Frame out;
  ASSERT_EQ(net::decode_frame(wire.data(), wire.size(), out), net::WireStatus::Ok);
  EXPECT_EQ(out.type, in.type);
  EXPECT_EQ(out.flags, in.flags);
  EXPECT_EQ(out.payload, in.payload);
}

TEST(Frame, TruncatedHeaderIsTyped) {
  const auto wire = valid_frame_bytes();
  net::Frame out;
  for (std::size_t n = 0; n < net::kFrameHeaderBytes; ++n) {
    EXPECT_EQ(net::decode_frame(wire.data(), n, out), net::WireStatus::Truncated) << n;
  }
}

TEST(Frame, TruncatedPayloadOrTrailerIsTyped) {
  const auto wire = valid_frame_bytes();
  net::Frame out;
  for (std::size_t n = net::kFrameHeaderBytes; n < wire.size(); ++n) {
    EXPECT_EQ(net::decode_frame(wire.data(), n, out), net::WireStatus::Truncated) << n;
  }
}

TEST(Frame, BadMagicIsTyped) {
  auto wire = valid_frame_bytes();
  wire[0] ^= 0xff;
  net::Frame out;
  EXPECT_EQ(net::decode_frame(wire.data(), wire.size(), out), net::WireStatus::BadMagic);
}

TEST(Frame, OversizedLengthPrefixIsTypedAndDoesNotAllocate) {
  auto wire = valid_frame_bytes();
  // Length prefix lives at header bytes [8, 16): write len = cap + 1.
  const std::uint64_t huge = net::kMaxFramePayload + 1;
  for (int b = 0; b < 8; ++b) {
    wire[8 + static_cast<std::size_t>(b)] = static_cast<std::uint8_t>(huge >> (8 * b));
  }
  net::Frame out;
  EXPECT_EQ(net::decode_frame(wire.data(), wire.size(), out), net::WireStatus::Oversized);
}

TEST(Frame, ZeroLengthPayloadIsTyped) {
  auto wire = valid_frame_bytes();
  for (int b = 0; b < 8; ++b) wire[8 + static_cast<std::size_t>(b)] = 0;
  net::Frame out;
  EXPECT_EQ(net::decode_frame(wire.data(), wire.size(), out), net::WireStatus::EmptyPayload);
}

TEST(Frame, ChecksumMismatchIsTyped) {
  auto wire = valid_frame_bytes();
  wire[net::kFrameHeaderBytes + 2] ^= 0x01;  // flip one payload bit
  net::Frame out;
  EXPECT_EQ(net::decode_frame(wire.data(), wire.size(), out),
            net::WireStatus::ChecksumMismatch);
}

TEST(Frame, TrailingJunkIsTyped) {
  auto wire = valid_frame_bytes();
  wire.push_back(0xaa);
  net::Frame out;
  EXPECT_EQ(net::decode_frame(wire.data(), wire.size(), out), net::WireStatus::Malformed);
}

TEST(Frame, ReaderUnderrunIsStickyNotUB) {
  const std::uint8_t bytes[3] = {1, 2, 3};
  net::Reader r(bytes, sizeof(bytes));
  EXPECT_EQ(r.u16(), 0x0201u);
  EXPECT_EQ(r.u64(), 0u);  // underrun: zero, flag trips
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.u8(), 0u);  // sticky: still failing, still no UB
  Matrix<float> m;
  EXPECT_FALSE(net::get_matrix(r, m));
}

TEST(Frame, MatrixCodecRoundTripsBitExactly) {
  Rng rng(11);
  Matrix<float> in(7, 5);
  fill_uniform(in, rng);
  net::Writer w;
  net::put_matrix(w, in);
  net::Reader r(w.buf);
  Matrix<float> out;
  ASSERT_TRUE(net::get_matrix(r, out));
  EXPECT_TRUE(r.done());
  ASSERT_TRUE(out.same_shape(in));
  EXPECT_EQ(std::memcmp(out.data(), in.data(), in.size_bytes()), 0);
}

TEST(Frame, MatrixCodecRejectsHostileDimensions) {
  net::Writer w;
  w.i64(1 << 20);
  w.i64(1 << 20);  // rows*cols overflows the frame cap
  net::Reader r(w.buf);
  Matrix<float> out;
  EXPECT_FALSE(net::get_matrix(r, out));
}

TEST(Frame, CsrCodecRoundTripsAndValidates) {
  const auto mask = build_csr_local(32, make_local(4));
  net::Writer w;
  net::put_csr(w, mask);
  net::Reader r(w.buf);
  Csr<float> out;
  ASSERT_TRUE(net::get_csr(r, out));
  EXPECT_TRUE(r.done());
  EXPECT_EQ(out.rows, mask.rows);
  EXPECT_EQ(out.row_offsets, mask.row_offsets);
  EXPECT_EQ(out.col_idx, mask.col_idx);
  EXPECT_EQ(out.values, mask.values);

  // A row count whose offset array size wraps u64 must be rejected
  // before any allocation.
  net::Writer wh;
  wh.i64(std::int64_t{1} << 61);
  wh.i64(4);
  wh.u64(0);
  net::Reader rh(wh.buf);
  EXPECT_FALSE(net::get_csr(rh, out));

  // A non-canonical CSR (descending columns) must be rejected.
  Csr<float> bad = mask;
  std::swap(bad.col_idx[1], bad.col_idx[2]);
  net::Writer wb;
  net::put_csr(wb, bad);
  net::Reader rb(wb.buf);
  EXPECT_FALSE(net::get_csr(rb, out));
}

TEST(Frame, PartitionCodecRoundTripsAndValidates) {
  const auto mask = build_csr_local(64, make_local(5));
  const auto part = seqpar::partition_balanced_nnz(64, 3, seqpar::degrees_of(mask));
  net::Writer w;
  net::put_partition(w, part);
  net::Reader r(w.buf);
  seqpar::Partition out;
  ASSERT_TRUE(net::get_partition(r, out));
  EXPECT_EQ(out.boundaries, part.boundaries);
  EXPECT_EQ(out.work, part.work);

  seqpar::Partition bad = part;
  bad.boundaries[1] = -3;  // non-monotone
  net::Writer wb;
  net::put_partition(wb, bad);
  net::Reader rb(wb.buf);
  EXPECT_FALSE(net::get_partition(rb, out));
}

// ---------------------------------------------------------------------
// Transports

TEST(Transport, LoopbackCarriesFramesBothWays) {
  auto [a, b] = net::make_loopback_pair();
  net::Frame f;
  f.type = 1;
  f.payload = {1, 2, 3};
  ASSERT_EQ(net::write_frame(*a, f), net::WireStatus::Ok);
  net::Frame got;
  ASSERT_EQ(net::read_frame(*b, got), net::WireStatus::Ok);
  EXPECT_EQ(got.payload, f.payload);

  f.payload = {9};
  ASSERT_EQ(net::write_frame(*b, f), net::WireStatus::Ok);
  ASSERT_EQ(net::read_frame(*a, got), net::WireStatus::Ok);
  EXPECT_EQ(got.payload, f.payload);
}

TEST(Transport, LoopbackCloseYieldsTypedClosedNotHang) {
  auto [a, b] = net::make_loopback_pair();
  a->close();
  net::Frame got;
  EXPECT_EQ(net::read_frame(*b, got), net::WireStatus::Closed);
}

TEST(Transport, LoopbackCorruptBytesYieldTypedDecodeError) {
  auto [a, b] = net::make_loopback_pair();
  auto wire = valid_frame_bytes();
  wire[0] ^= 0xff;  // bad magic straight onto the stream
  ASSERT_TRUE(a->send_all(wire.data(), wire.size()));
  net::Frame got;
  EXPECT_EQ(net::read_frame(*b, got), net::WireStatus::BadMagic);
}

TEST(Transport, TcpRoundTripOnEphemeralPort) {
  auto [client, server] = tcp_pair();
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);

  net::Frame f;
  f.type = 2;
  f.payload = {5, 4, 3, 2, 1};
  ASSERT_EQ(net::write_frame(*client, f), net::WireStatus::Ok);
  net::Frame got;
  ASSERT_EQ(net::read_frame(*server, got), net::WireStatus::Ok);
  EXPECT_EQ(got.payload, f.payload);

  client->close();
  EXPECT_EQ(net::read_frame(*server, got), net::WireStatus::Closed);
}

TEST(Transport, TcpFlippedPayloadBitIsChecksumMismatch) {
  obs::Counter& failures = obs::Registry::global().counter("net.checksum_failures");
  auto [client, server] = tcp_pair();
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);

  // Through read_frame.
  auto wire = valid_frame_bytes();
  wire[net::kFrameHeaderBytes + 3] ^= 0x10;
  std::uint64_t before = failures.value();
  ASSERT_TRUE(client->send_all(wire.data(), wire.size()));
  net::Frame got;
  EXPECT_EQ(net::read_frame(*server, got), net::WireStatus::ChecksumMismatch);
  EXPECT_EQ(failures.value(), before + 1);

  // Through recv_request: the flipped bit sits in the body, past the
  // [id][op] prefix the receiver reads together with the header.
  net::Frame req;
  req.type = net::kFrameRequest;
  req.payload.assign(9 + 64, 0x5a);
  net::encode_frame(req, wire);
  wire[net::kFrameHeaderBytes + 9 + 40] ^= 0x01;
  before = failures.value();
  ASSERT_TRUE(client->send_all(wire.data(), wire.size()));
  net::RpcRequest rr;
  EXPECT_EQ(net::recv_request(*server, rr), net::WireStatus::ChecksumMismatch);
  EXPECT_EQ(failures.value(), before + 1);

  // A flip inside the prefix is caught the same way.
  net::encode_frame(req, wire);
  wire[net::kFrameHeaderBytes + 2] ^= 0x80;
  ASSERT_TRUE(client->send_all(wire.data(), wire.size()));
  EXPECT_EQ(net::recv_request(*server, rr), net::WireStatus::ChecksumMismatch);
}

TEST(Transport, TcpOldFormatMagicIsBadMagic) {
  // A frame from a peer on the previous format: magic "GPAF" written as
  // the LE u32 0x47504146, with its 8-byte trailer.
  auto [client, server] = tcp_pair();
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);
  net::Writer old;
  old.u32(0x47504146u);
  old.u16(net::kFrameRequest);
  old.u16(0);
  old.u64(9 + 4);
  for (int i = 0; i < 9 + 4 + 8; ++i) old.u8(static_cast<std::uint8_t>(i));
  ASSERT_TRUE(client->send_all(old.buf.data(), old.buf.size()));
  net::RpcRequest rr;
  EXPECT_EQ(net::recv_request(*server, rr), net::WireStatus::BadMagic);
}

TEST(Transport, TcpLargeRequestRoundTripsBitExactly) {
  // 9 MiB: far larger than the socket buffers, so the gather write
  // returns partial counts and must resume mid-part.
  auto [client, server] = tcp_pair();
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);
  Rng rng(12);
  std::vector<std::uint8_t> head(13), tail((9u << 20) + 5);
  for (auto& b : head) b = static_cast<std::uint8_t>(rng.next_u64());
  for (auto& b : tail) b = static_cast<std::uint8_t>(rng.next_u64());

  net::WireStatus sent = net::WireStatus::Closed;
  std::thread sender([&, t = client.get()] {
    const net::ConstBytes parts[] = {{head.data(), head.size()}, {tail.data(), tail.size()}};
    sent = net::send_request(*t, 77, net::Op::RingPrefill, parts);
  });
  net::RpcRequest got;
  const net::WireStatus ws = net::recv_request(*server, got);
  sender.join();
  ASSERT_EQ(sent, net::WireStatus::Ok);
  ASSERT_EQ(ws, net::WireStatus::Ok);
  EXPECT_EQ(got.id, 77u);
  EXPECT_EQ(got.op, net::Op::RingPrefill);
  ASSERT_EQ(got.body.size(), head.size() + tail.size());
  EXPECT_EQ(std::memcmp(got.body.data(), head.data(), head.size()), 0);
  EXPECT_EQ(std::memcmp(got.body.data() + head.size(), tail.data(), tail.size()), 0);
}

/// More parts than one sendmsg takes (IOV_MAX), every fifth one empty,
/// and their concatenation.
struct ManyParts {
  std::vector<std::vector<std::uint8_t>> storage;
  std::vector<net::ConstBytes> parts;
  std::vector<std::uint8_t> joined;

  ManyParts() {
    Rng rng(16);
    storage.resize(3 * IOV_MAX + 17);
    for (std::size_t x = 0; x < storage.size(); ++x) {
      storage[x].resize(x % 5 == 0 ? 0 : 1 + rng.next_u64() % 2047);
      for (auto& b : storage[x]) b = static_cast<std::uint8_t>(rng.next_u64());
      parts.push_back({storage[x].data(), storage[x].size()});
      joined.insert(joined.end(), storage[x].begin(), storage[x].end());
    }
  }
};

TEST(Transport, GatherCursorResumesWhereAPartialSendStopped) {
  // Drain the cursor as TcpTransport does, with a send that takes a
  // random prefix of each batch: the bytes come out in order whether a
  // send stops mid-part, on a part edge or at the batch end.
  const ManyParts mp;
  Rng rng(17);
  for (const std::size_t batch : {std::size_t{IOV_MAX}, std::size_t{5}}) {
    net::detail::GatherCursor cursor(mp.parts);
    std::vector<iovec> iov(batch);
    std::vector<std::uint8_t> got;
    int mid_part = 0;
    while (!cursor.done()) {
      const std::size_t count = cursor.fill(iov.data(), batch);
      ASSERT_GE(count, 1u);
      ASSERT_LE(count, batch);
      std::size_t total = 0;
      for (std::size_t x = 0; x < count; ++x) {
        ASSERT_GT(iov[x].iov_len, 0u);  // empty parts never reach sendmsg
        total += iov[x].iov_len;
      }
      std::size_t sent = rng.next_u64() % 2 == 0 ? total : 1 + rng.next_u64() % total;
      for (std::size_t x = 0, left = sent; left > 0; ++x) {
        const std::size_t take = std::min(left, iov[x].iov_len);
        const auto* p = static_cast<const std::uint8_t*>(iov[x].iov_base);
        got.insert(got.end(), p, p + take);
        mid_part += take < iov[x].iov_len ? 1 : 0;
        left -= take;
      }
      cursor.advance(sent);
    }
    EXPECT_GT(mid_part, 0) << batch;
    EXPECT_EQ(got, mp.joined) << batch;
  }
  net::detail::GatherCursor none(std::span<const net::ConstBytes>{mp.parts.data(), 1});
  EXPECT_TRUE(none.done());  // part 0 is empty
}

TEST(Transport, GatherOfMoreThanIovMaxPartsRoundTrips) {
  // Through send_request, so the frame layer prepends and appends its
  // own parts and checksums all of them, over both transport arms.
  const ManyParts mp;
  auto [tcp_client, tcp_server] = tcp_pair();
  ASSERT_NE(tcp_client, nullptr);
  ASSERT_NE(tcp_server, nullptr);
  auto [loop_client, loop_server] = net::make_loopback_pair();
  const std::pair<net::Transport*, net::Transport*> arms[] = {
      {tcp_client.get(), tcp_server.get()}, {loop_client.get(), loop_server.get()}};
  for (const auto& [client, server] : arms) {
    net::WireStatus sent = net::WireStatus::Closed;
    std::thread sender(
        [&, t = client] { sent = net::send_request(*t, 78, net::Op::Ping, mp.parts); });
    net::RpcRequest got;
    const net::WireStatus ws = net::recv_request(*server, got);
    sender.join();
    ASSERT_EQ(sent, net::WireStatus::Ok);
    ASSERT_EQ(ws, net::WireStatus::Ok);
    EXPECT_EQ(got.id, 78u);
    EXPECT_TRUE(got.body == mp.joined);
  }
}

TEST(Transport, TcpAcceptTimesOutCleanly) {
  net::TcpListener listener(0);
  EXPECT_EQ(listener.accept(net::Millis{50}, net::Millis{50}), nullptr);
}

// ---------------------------------------------------------------------
// Loopback cluster harness

struct LoopbackCluster {
  std::vector<std::unique_ptr<net::NodeService>> services;
  std::vector<std::thread> threads;
  net::ClusterClient client;

  explicit LoopbackCluster(Index n, net::NodeConfig cfg = {}) {
    for (Index i = 0; i < n; ++i) {
      auto [client_end, server_end] = net::make_loopback_pair();
      services.push_back(std::make_unique<net::NodeService>(cfg));
      net::NodeService* svc = services.back().get();
      threads.emplace_back(
          [svc, t = std::move(server_end)]() mutable { svc->serve(*t); });
      client.add_peer(static_cast<std::uint64_t>(i), std::move(client_end));
    }
  }
  ~LoopbackCluster() {
    client.shutdown_all();
    for (auto& t : threads) t.join();
  }
};

// ---------------------------------------------------------------------
// RPC error taxonomy over a served connection

TEST(Rpc, TypedErrorsCrossTheWire) {
  net::NodeConfig cfg;
  cfg.sessions.pool.num_pages = 2;
  cfg.sessions.pool.page_size = 16;
  cfg.sessions.pool.head_dim = 8;
  LoopbackCluster cluster(1, cfg);
  auto& cc = cluster.client;

  const Index d = 8;
  std::vector<float> row(static_cast<std::size_t>(d), 0.5f);
  std::vector<float> out(row.size());

  // Unknown session → SessionNotFound (not an assert on the node).
  EXPECT_THROW(cc.decode_step(99, row.data(), row.data(), row.data(), d, out.data()),
               kvcache::SessionNotFound);

  net::WireMask wm;
  wm.kind = net::WireMaskKind::Local;
  wm.a = 4;
  cc.create_session(7, wm);
  // Duplicate create → InvalidArgument.
  EXPECT_THROW(cc.create_session(7, wm), InvalidArgument);

  // Overfill the 2-page pool in one prefill: the only session is
  // mid-operation (unevictable) → CacheFull.
  Rng rng(5);
  Matrix<float> q(48, d), k(48, d), v(48, d), o;
  fill_uniform(q, rng);
  fill_uniform(k, rng);
  fill_uniform(v, rng);
  EXPECT_THROW(cc.prefill(7, q, k, v, o), kvcache::CacheFull);

  // Evict-then-touch. Session 7's failed prefill left it empty; fill
  // it small, then let session 8's prefill evict it. Eviction erases
  // the record (only in-flight holders ever observe SessionEvicted),
  // so a later touch is SessionNotFound — the remote path must mirror
  // the local SessionManager's semantics exactly.
  Matrix<float> q1(16, d), k1(16, d), v1(16, d);
  fill_uniform(q1, rng);
  fill_uniform(k1, rng);
  fill_uniform(v1, rng);
  cc.prefill(7, q1, k1, v1, o);
  cc.create_session(8, wm);
  Matrix<float> q2(32, d), k2(32, d), v2(32, d);
  fill_uniform(q2, rng);
  fill_uniform(k2, rng);
  fill_uniform(v2, rng);
  cc.prefill(8, q2, k2, v2, o);
  EXPECT_THROW(cc.decode_step(7, row.data(), row.data(), row.data(), d, out.data()),
               kvcache::SessionNotFound);
}

TEST(Rpc, EveryStatusRethrowsAsItsTypedException) {
  auto [client_end, server_end] = net::make_loopback_pair();
  // Hand-rolled responder: echoes each request id back with a chosen
  // error status, covering the statuses NodeService only emits under
  // rare races (e.g. SessionEvicted needs an in-flight holder).
  const std::vector<net::RpcStatus> statuses = {
      net::RpcStatus::SessionNotFound, net::RpcStatus::SessionEvicted,
      net::RpcStatus::CacheFull, net::RpcStatus::InvalidArgument, net::RpcStatus::Internal};
  std::thread responder([t = std::move(server_end), &statuses]() mutable {
    for (const net::RpcStatus s : statuses) {
      net::RpcRequest req;
      ASSERT_EQ(net::recv_request(*t, req), net::WireStatus::Ok);
      net::RpcResponse rsp;
      rsp.id = req.id;
      net::make_error_response(rsp, s, "remote detail", 55);
      ASSERT_EQ(net::send_response(*t, rsp), net::WireStatus::Ok);
    }
  });

  net::RpcClient rpc(*client_end);
  auto call = [&] { rpc.call(net::Op::Ping, {1}); };
  EXPECT_THROW(call(), kvcache::SessionNotFound);
  EXPECT_THROW(call(), kvcache::SessionEvicted);
  EXPECT_THROW(call(), kvcache::CacheFull);
  EXPECT_THROW(call(), InvalidArgument);
  try {
    call();
    FAIL() << "Internal must throw RpcError";
  } catch (const net::RpcError& e) {
    EXPECT_EQ(e.status(), net::RpcStatus::Internal);
    EXPECT_STREQ(e.what(), "remote detail");
  }
  responder.join();
  client_end->close();
}

// ---------------------------------------------------------------------
// Hash ring

TEST(HashRing, AddingANodeMovesAboutOneNth) {
  constexpr Size kKeys = 20000;
  net::HashRing ring(128);
  for (std::uint64_t n = 0; n < 4; ++n) ring.add_node(n);

  std::vector<std::uint64_t> before(kKeys);
  for (Size k = 0; k < kKeys; ++k) before[k] = ring.owner(k * 7919 + 13);

  ring.add_node(4);
  Size moved = 0;
  for (Size k = 0; k < kKeys; ++k) {
    const std::uint64_t now = ring.owner(k * 7919 + 13);
    if (now != before[k]) {
      // Consistency: a key either keeps its owner or moves to the NEW
      // node — never between old nodes.
      EXPECT_EQ(now, 4u);
      ++moved;
    }
  }
  // Expect ~1/5 of keys to move; allow generous slack for hash noise.
  EXPECT_GT(moved, kKeys / 10);
  EXPECT_LT(moved, kKeys * 2 / 5);
}

TEST(HashRing, SpreadsKeysAcrossNodes) {
  net::HashRing ring(128);
  for (std::uint64_t n = 0; n < 3; ++n) ring.add_node(n);
  std::vector<Size> owned(3, 0);
  for (std::uint64_t k = 0; k < 9000; ++k) ++owned[ring.owner(k)];
  for (const Size c : owned) {
    EXPECT_GT(c, Size{1500}) << "a node owns implausibly few keys";
  }
  EXPECT_THROW(net::HashRing(64).owner(1), InvalidArgument);
}

// ---------------------------------------------------------------------
// Differential gates over loopback

/// (node, foreign shard) pairs where the node's rows reference at least
/// one column of another node's shard, counted by brute force.
Size foreign_shards_referenced(const Csr<float>& mask, const seqpar::Partition& part,
                               bool causal) {
  Size pairs = 0;
  for (Index p = 0; p < part.parts(); ++p) {
    for (Index s = 0; s < part.parts(); ++s) {
      bool hit = false;
      for (Index i = part.boundaries[p]; i < part.boundaries[p + 1] && !hit; ++i) {
        for (Index kk = mask.row_begin(i); kk < mask.row_end(i); ++kk) {
          const Index j = mask.col_idx[static_cast<std::size_t>(kk)];
          if (causal && j > i) break;
          hit = hit || (j >= part.boundaries[s] && j < part.boundaries[s + 1]);
        }
      }
      if (s != p && hit) ++pairs;
    }
  }
  return pairs;
}

TEST(Cluster, RingPrefillBitIdenticalToSimCluster) {
  const Index L = 96, d = 16;
  const auto mask = build_csr_random(L, RandomParams{0.15, 99});
  Rng rng(21);
  Matrix<float> q(L, d), k(L, d), v(L, d);
  fill_uniform(q, rng);
  fill_uniform(k, rng);
  fill_uniform(v, rng);

  for (const Index P : {2, 3}) {
    for (const bool causal : {false, true}) {
      const auto part = seqpar::partition_balanced_nnz(L, P, seqpar::degrees_of(mask));
      LoopbackCluster cluster(P);
      Matrix<float> wire_out;
      const auto rep =
          cluster.client.ring_prefill(q, k, v, mask, part, causal, -1.0f, wire_out);
      EXPECT_EQ(rep.shard_deliveries, foreign_shards_referenced(mask, part, causal));

      Matrix<float> oracle(L, d);
      AttentionOptions opts;
      opts.causal = causal;
      const auto sim = seqpar::distributed_csr_attention(q, k, v, mask, part, oracle, opts);
      ASSERT_EQ(std::memcmp(wire_out.data(), oracle.data(), oracle.size_bytes()), 0)
          << "P=" << P << " causal=" << causal;

      // Edge accounting matches the simulated cluster node for node.
      ASSERT_EQ(rep.nodes.size(), sim.nodes.size());
      for (std::size_t p = 0; p < sim.nodes.size(); ++p) {
        EXPECT_EQ(rep.nodes[p].edges, sim.nodes[p].edges);
      }
    }
  }
}

TEST(Cluster, RingPrefillBitIdenticalToSimClusterWhereShardsCutATile) {
  // Rows of degree 0, 1, 15, 16, 17 and 33 over three 24-column shards:
  // the 16- and 33-edge rows split mid-tile, and each node flushes a
  // tile at every shard end — as sim_cluster does, shard by shard.
  const Index L = 72;
  const auto mask = gpa::test::tile_ladder_mask(L);
  const auto part = seqpar::partition_uniform_rows(L, 3, seqpar::degrees_of(mask));
  ASSERT_EQ(part.boundaries, (std::vector<Index>{0, 24, 48, 72}));
  for (const Index d : {Index{16}, Index{67}}) {
    Rng rng(static_cast<std::uint64_t>(31 + d));
    Matrix<float> q(L, d), k(L, d), v(L, d);
    fill_uniform(q, rng);
    fill_uniform(k, rng);
    fill_uniform(v, rng);
    for (const bool causal : {false, true}) {
      LoopbackCluster cluster(3);
      Matrix<float> wire_out;
      cluster.client.ring_prefill(q, k, v, mask, part, causal, -1.0f, wire_out);
      Matrix<float> oracle(L, d);
      AttentionOptions opts;
      opts.causal = causal;
      seqpar::distributed_csr_attention(q, k, v, mask, part, oracle, opts);
      ASSERT_EQ(std::memcmp(wire_out.data(), oracle.data(), oracle.size_bytes()), 0)
          << "d=" << d << " causal=" << causal;
      for (Index x = 0; x < d; ++x) EXPECT_EQ(wire_out(0, x), 0.0f);  // empty row 0
    }
  }
}

TEST(Cluster, WireKvRowsMatchSimGatheredBytes) {
  // One source of truth for shipped K/V: the rows the router ships each
  // node are the rows sim_cluster's gathered_bytes counts, on random,
  // banded and causal masks.
  const Index L = 120, d = 8;
  Rng rng(8);
  Matrix<float> q(L, d), k(L, d), v(L, d);
  fill_uniform(q, rng);
  fill_uniform(k, rng);
  fill_uniform(v, rng);
  for (const auto& mask : {build_csr_random(L, RandomParams{0.05, 5}),
                           build_csr_local(L, make_local(6))}) {
    for (const bool causal : {false, true}) {
      const auto part = seqpar::partition_balanced_nnz(L, 3, seqpar::degrees_of(mask));
      LoopbackCluster cluster(3);
      Matrix<float> wire_out, oracle(L, d);
      const auto rep = cluster.client.ring_prefill(q, k, v, mask, part, causal, -1.0f, wire_out);
      AttentionOptions opts;
      opts.causal = causal;
      const auto sim = seqpar::distributed_csr_attention(q, k, v, mask, part, oracle, opts);
      ASSERT_EQ(std::memcmp(wire_out.data(), oracle.data(), oracle.size_bytes()), 0);
      for (std::size_t p = 0; p < sim.nodes.size(); ++p) {
        EXPECT_EQ(rep.nodes[p].kv_rows * 2 * d * sizeof(float), sim.nodes[p].gathered_bytes)
            << "node " << p << " causal=" << causal;
      }
    }
  }
}

TEST(Cluster, BandedRingPrefillShipsUnderHalfTheRelayedRotation) {
  // The relayed rotation sent every node the whole mask and its Q/K/V
  // shard, then relayed each foreign shard twice (owner → router →
  // node); its bytes are bounded below by those terms plus the output.
  // On a banded mask a node needs its own shard and a halo, so the
  // one-request protocol must send less than half of that bound.
  const Index L = 384, d = 32, P = 3;
  const auto mask = build_csr_local(L, make_local(8));
  const auto part = seqpar::partition_uniform_rows(L, P, seqpar::degrees_of(mask));
  Rng rng(9);
  Matrix<float> q(L, d), k(L, d), v(L, d), out;
  fill_uniform(q, rng);
  fill_uniform(k, rng);
  fill_uniform(v, rng);
  const double row = static_cast<double>(d) * sizeof(float);
  const double mask_bytes = 8.0 * (L + 1) + 12.0 * static_cast<double>(mask.nnz());
  double relay = P * mask_bytes + 4.0 * L * row;  // masks, Q/K/V rows, output rows
  for (Index p = 0; p < P; ++p) {
    for (Index s = 0; s < P; ++s) {
      if (s != p) relay += 2.0 * 2.0 * row * (part.boundaries[s + 1] - part.boundaries[s]);
    }
  }

  LoopbackCluster cluster(P);
  obs::Counter& sent = obs::Registry::global().counter("net.bytes.sent");
  const std::uint64_t before = sent.value();
  cluster.client.ring_prefill(q, k, v, mask, part, false, -1.0f, out);
  const double bytes = static_cast<double>(sent.value() - before);
  EXPECT_LT(bytes, relay / 2.0) << "sent " << bytes << " bytes; relay bound " << relay;
}

TEST(Cluster, RingPrefillRejectsInvalidPartitionsBeforeSending) {
  const Index L = 48, d = 4;
  const auto mask = build_csr_local(L, make_local(3));
  Matrix<float> q(L, d), k(L, d), v(L, d), out;
  Rng rng(10);
  fill_uniform(q, rng);
  fill_uniform(k, rng);
  fill_uniform(v, rng);
  LoopbackCluster cluster(3);
  obs::Counter& frames = obs::Registry::global().counter("net.frames.sent");
  const std::uint64_t before = frames.value();

  seqpar::Partition short_part;  // 3 parts, but only 2 boundaries
  short_part.boundaries = {0, L};
  short_part.work = {0, 0, 0};
  EXPECT_THROW(cluster.client.ring_prefill(q, k, v, mask, short_part, false, -1.0f, out),
               InvalidArgument);
  seqpar::Partition backwards;  // covers [0, L) but steps back
  backwards.boundaries = {0, 30, 20, L};
  backwards.work = {0, 0, 0};
  EXPECT_THROW(cluster.client.ring_prefill(q, k, v, mask, backwards, false, -1.0f, out),
               InvalidArgument);
  EXPECT_EQ(frames.value(), before);  // nothing went out

  // The connections are untouched: a valid prefill still matches.
  const auto part = seqpar::partition_balanced_nnz(L, 3, seqpar::degrees_of(mask));
  cluster.client.ring_prefill(q, k, v, mask, part, false, -1.0f, out);
  Matrix<float> oracle(L, d);
  seqpar::distributed_csr_attention(q, k, v, mask, part, oracle);
  EXPECT_EQ(std::memcmp(out.data(), oracle.data(), oracle.size_bytes()), 0);
}

TEST(Cluster, RingPrefillRefusesLengthsPastU32BeforeSending) {
  // Column ids travel as u32, so a sequence longer than UINT32_MAX is
  // refused before any frame goes out. Zero-width rows keep the inputs
  // empty.
  const Index L = Index{UINT32_MAX} + 1;
  Matrix<float> q(L, 0), k(L, 0), v(L, 0), out;
  Csr<float> mask;
  seqpar::Partition part;
  part.boundaries = {0, L};
  part.work = {0};
  LoopbackCluster cluster(1);
  obs::Counter& frames = obs::Registry::global().counter("net.frames.sent");
  const std::uint64_t before = frames.value();
  EXPECT_THROW(cluster.client.ring_prefill(q, k, v, mask, part, false, -1.0f, out),
               InvalidArgument);
  EXPECT_EQ(frames.value(), before);
}

TEST(Cluster, BandedRingPrefillBytesArePinned) {
  // Every byte of a ring prefill, from the body layout (net/node.hpp):
  // per node, a request of head + 4·nnz + runs + Q + 2·kv_rows·d·4 and
  // a response of its output rows, each behind the RPC prefix and the
  // frame header and trailer. On a band each node's columns are one run.
  const Index L = 384, d = 32, P = 3;
  const auto mask = build_csr_local(L, make_local(8));
  const auto part = seqpar::partition_uniform_rows(L, P, seqpar::degrees_of(mask));
  Rng rng(18);
  Matrix<float> q(L, d), k(L, d), v(L, d), out;
  fill_uniform(q, rng);
  fill_uniform(k, rng);
  fill_uniform(v, rng);
  obs::Counter& sent = obs::Registry::global().counter("net.bytes.sent");
  std::uint64_t before = 0;
  net::ClusterRingReport rep;
  {
    LoopbackCluster cluster(P);
    before = sent.value();
    rep = cluster.client.ring_prefill(q, k, v, mask, part, false, -1.0f, out);
    // A node counts a response's bytes after handing it to the transport,
    // so the client can read the response first. Joining the node threads
    // (the cluster's destructor, after one Shutdown round trip per node)
    // settles the count.
  }
  const std::uint64_t bytes = sent.value() - before;

  const std::uint64_t framing = net::kFrameHeaderBytes + 9 + net::kFrameTrailerBytes;
  const std::uint64_t row = d * sizeof(float);
  const std::uint64_t partition = (4 + 8 * (P + 1)) + (4 + 8 * P);
  std::uint64_t want = P * 2 * (framing + 1);  // Shutdown: a 1-byte body each way
  for (Index p = 0; p < P; ++p) {
    const Index lo = part.boundaries[p];
    const Index hi = part.boundaries[p + 1];
    const auto rows = static_cast<std::uint64_t>(hi - lo);
    const auto nnz = static_cast<std::uint64_t>(mask.row_begin(hi) - mask.row_begin(lo));
    const std::uint64_t kv_rows = rep.nodes[p].kv_rows;
    EXPECT_EQ(kv_rows, seqpar::referenced_columns(mask, lo, hi, false).size());
    const std::uint64_t head = 16 + partition + 24 + 8 * (rows + 1);
    want += framing + head + 4 * nnz + (4 + 8 * 1) + rows * row + 2 * kv_rows * row;
    want += framing + 16 + rows * row + 8;
  }
  EXPECT_EQ(bytes, want);
}

TEST(Cluster, RingPrefillDrainsEveryResponseBeforeRethrowing) {
  // Peer 0 answers its part with a typed error; peers 1 and 2 are real
  // nodes. The router must read the real nodes' responses before it
  // rethrows, or their connections would hand the next call a stale
  // response.
  const Index L = 60, d = 4;
  const auto mask = build_csr_local(L, make_local(4));
  const auto part = seqpar::partition_uniform_rows(L, 3, seqpar::degrees_of(mask));
  Matrix<float> q(L, d), k(L, d), v(L, d), out;
  Rng rng(11);
  fill_uniform(q, rng);
  fill_uniform(k, rng);
  fill_uniform(v, rng);

  net::ClusterClient client;
  auto [client_end, server_end] = net::make_loopback_pair();
  std::thread refuser([t = std::move(server_end)]() mutable {
    for (int n = 0; n < 2; ++n) {  // the ring-prefill part, then a ping
      net::RpcRequest req;
      ASSERT_EQ(net::recv_request(*t, req), net::WireStatus::Ok);
      net::RpcResponse rsp;
      rsp.id = req.id;
      if (req.op == net::Op::RingPrefill) {
        net::make_error_response(rsp, net::RpcStatus::InvalidArgument, "refused", 0);
      } else {
        net::PingInfo none;
        net::Writer w;
        w.u64(none.sessions);
        w.i64(none.pages_in_use);
        w.i64(none.pages_free);
        rsp.body = std::move(w.buf);
      }
      ASSERT_EQ(net::send_response(*t, rsp), net::WireStatus::Ok);
    }
  });
  client.add_peer(0, std::move(client_end));
  std::vector<std::unique_ptr<net::NodeService>> nodes;
  std::vector<std::thread> threads;
  for (std::uint64_t id = 1; id <= 2; ++id) {
    auto [c, srv] = net::make_loopback_pair();
    nodes.push_back(std::make_unique<net::NodeService>(net::NodeConfig{}));
    threads.emplace_back([svc = nodes.back().get(), t = std::move(srv)]() mutable {
      svc->serve(*t);
    });
    client.add_peer(id, std::move(c));
  }

  EXPECT_THROW(client.ring_prefill(q, k, v, mask, part, false, -1.0f, out), InvalidArgument);
  for (const std::uint64_t id : {0u, 1u, 2u}) {
    EXPECT_EQ(client.ping(id).sessions, 0u) << "peer " << id;  // still in step
  }
  refuser.join();
  client.shutdown_all();
  for (auto& t : threads) t.join();
}

TEST(Cluster, RingPrefillNodeSpanIsTraced) {
  const Index L = 32, d = 4;
  const auto mask = build_csr_local(L, make_local(3));
  const auto part = seqpar::partition_uniform_rows(L, 2, seqpar::degrees_of(mask));
  Matrix<float> q(L, d), k(L, d), v(L, d), out;
  Rng rng(12);
  fill_uniform(q, rng);
  fill_uniform(k, rng);
  fill_uniform(v, rng);
  LoopbackCluster cluster(2);
  obs::trace::reset();
  obs::trace::set_enabled(true);
  cluster.client.ring_prefill(q, k, v, mask, part, false, -1.0f, out);
  obs::trace::set_enabled(false);
  int node_spans = 0, rpc_spans = 0;
  for (const auto& e : obs::trace::drain_snapshot()) {
    if (std::strcmp(e.name, "ring-prefill") != 0) continue;
    node_spans += std::strcmp(e.cat, "net.node") == 0 ? 1 : 0;
    rpc_spans += std::strcmp(e.cat, "net.rpc") == 0 ? 1 : 0;
  }
  obs::trace::reset();
  EXPECT_EQ(node_spans, 2);
  EXPECT_EQ(rpc_spans, 2);
}

// ---------------------------------------------------------------------
// Hostile RingPrefill bodies, handed to a node directly

/// A RingPrefill body (layout: net/node.hpp) for part `p` of a valid
/// ring prefill, with every field open to corruption.
struct RingBody {
  std::uint32_t part = 0;
  std::uint32_t causal = 0;
  float scale = -1.0f;
  std::uint32_t d = 0;
  seqpar::Partition partition;
  std::int64_t slice_rows = 0;
  std::int64_t slice_cols = 0;
  std::uint64_t nnz = 0;  ///< the stated edge count; cols.size() when valid
  std::vector<Index> offsets;
  std::vector<std::uint32_t> cols;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> runs;
  std::vector<float> q, kv;

  RingBody(const Csr<float>& mask, const seqpar::Partition& part_, Index p,
           const Matrix<float>& qm, const Matrix<float>& km, const Matrix<float>& vm)
      : part(static_cast<std::uint32_t>(p)), d(static_cast<std::uint32_t>(qm.cols())),
        partition(part_) {
    const Index lo = partition.boundaries[p];
    const Index hi = partition.boundaries[p + 1];
    slice_rows = hi - lo;
    slice_cols = mask.cols;
    const Index e0 = mask.row_begin(lo);
    for (Index i = lo; i <= hi; ++i) offsets.push_back(mask.row_begin(i) - e0);
    for (Index kk = e0; kk < mask.row_begin(hi); ++kk) {
      cols.push_back(static_cast<std::uint32_t>(mask.col_idx[static_cast<std::size_t>(kk)]));
    }
    nnz = cols.size();
    const auto ref = seqpar::referenced_columns(mask, lo, hi, false);
    for (const Index j : ref) {
      if (!runs.empty() && runs.back().second == j) {
        ++runs.back().second;
      } else {
        runs.emplace_back(static_cast<std::uint32_t>(j), static_cast<std::uint32_t>(j + 1));
      }
    }
    q.assign(qm.row(lo), qm.row(hi));
    for (const auto* m : {&km, &vm}) {
      for (const Index j : ref) kv.insert(kv.end(), m->row(j), m->row(j + 1));
    }
  }

  /// Everything before the columns: the fields the old and new layouts
  /// share.
  net::Writer head() const {
    net::Writer w;
    w.u32(part);
    w.u32(causal);
    w.f32(scale);
    w.u32(d);
    net::put_partition(w, partition);
    w.i64(slice_rows);
    w.i64(slice_cols);
    w.u64(nnz);
    w.bytes(offsets.data(), offsets.size() * sizeof(Index));
    return w;
  }

  std::vector<std::uint8_t> encode() const {
    net::Writer w = head();
    w.bytes(cols.data(), cols.size() * sizeof(std::uint32_t));
    w.u32(static_cast<std::uint32_t>(runs.size()));
    for (const auto& [b, e] : runs) {
      w.u32(b);
      w.u32(e);
    }
    w.bytes(q.data(), q.size() * sizeof(float));
    w.bytes(kv.data(), kv.size() * sizeof(float));
    return std::move(w.buf);
  }

  /// The layout retired op 12 carried: i64 column ids, the mask's
  /// values (all 1 here) and i64 run bounds.
  std::vector<std::uint8_t> encode_retired() const {
    net::Writer w = head();
    for (const std::uint32_t j : cols) w.i64(j);
    for (std::size_t x = 0; x < cols.size(); ++x) w.f32(1.0f);
    w.u32(static_cast<std::uint32_t>(runs.size()));
    for (const auto& [b, e] : runs) {
      w.i64(b);
      w.i64(e);
    }
    w.bytes(q.data(), q.size() * sizeof(float));
    w.bytes(kv.data(), kv.size() * sizeof(float));
    return std::move(w.buf);
  }
};

net::RpcStatus handle_ring(net::NodeService& node, const RingBody& body,
                           net::RpcResponse* rsp_out = nullptr) {
  net::RpcResponse rsp;
  node.handle({1, net::Op::RingPrefill, body.encode()}, rsp);
  const net::RpcStatus st = rsp.status;
  if (rsp_out != nullptr) *rsp_out = std::move(rsp);
  return st;
}

TEST(Cluster, RingPrefillRejectsHostileBodies) {
  const Index L = 40, d = 4;
  const auto mask = build_csr_local(L, make_local(3));
  const auto part = seqpar::partition_uniform_rows(L, 2, seqpar::degrees_of(mask));
  Rng rng(13);
  Matrix<float> q(L, d), k(L, d), v(L, d);
  fill_uniform(q, rng);
  fill_uniform(k, rng);
  fill_uniform(v, rng);
  net::NodeService node(net::NodeConfig{});
  const RingBody good(mask, part, 1, q, k, v);
  ASSERT_EQ(good.runs.size(), 1u);  // a band: [lo - halo, L)

  // The valid body folds node 1's rows exactly as sim_cluster does.
  net::RpcResponse rsp;
  ASSERT_EQ(handle_ring(node, good, &rsp), net::RpcStatus::Ok);
  Matrix<float> oracle(L, d), rows;
  seqpar::distributed_csr_attention(q, k, v, mask, part, oracle);
  net::Reader r(rsp.body);
  ASSERT_TRUE(net::get_matrix(r, rows));
  ASSERT_EQ(rows.rows(), L / 2);
  EXPECT_EQ(std::memcmp(rows.data(), oracle.row(L / 2), rows.size_bytes()), 0);

  {  // A referenced column was not shipped: the run starts one late.
    RingBody b = good;
    ++b.runs[0].first;
    b.kv.erase(b.kv.begin() + (b.kv.size() / 2), b.kv.begin() + (b.kv.size() / 2) + d);
    b.kv.erase(b.kv.begin(), b.kv.begin() + d);
    EXPECT_EQ(handle_ring(node, b), net::RpcStatus::InvalidArgument);
  }
  {  // Unsorted runs: the band split in two, shipped back to front.
    RingBody b = good;
    const Index mid = (b.runs[0].first + b.runs[0].second) / 2;
    b.runs = {{mid, b.runs[0].second}, {b.runs[0].first, mid}};
    EXPECT_EQ(handle_ring(node, b), net::RpcStatus::InvalidArgument);
  }
  {  // Overlapping runs.
    RingBody b = good;
    const Index mid = (b.runs[0].first + b.runs[0].second) / 2;
    b.runs = {{b.runs[0].first, mid + 1}, {mid, b.runs[0].second}};
    EXPECT_EQ(handle_ring(node, b), net::RpcStatus::InvalidArgument);
  }
  {  // A run past the sequence end.
    RingBody b = good;
    b.runs[0].second = L + 1;
    EXPECT_EQ(handle_ring(node, b), net::RpcStatus::InvalidArgument);
  }
  {  // A mask slice of the wrong row count.
    RingBody b = good;
    b.slice_rows = L / 2 + 1;
    EXPECT_EQ(handle_ring(node, b), net::RpcStatus::InvalidArgument);
  }
  {  // Row offsets that overshoot nnz mid-slice and come back down.
    RingBody b = good;
    b.offsets[1] = Index{1} << 40;
    EXPECT_EQ(handle_ring(node, b), net::RpcStatus::InvalidArgument);
  }
  {  // A non-canonical slice: a row's columns out of order.
    RingBody b = good;
    std::swap(b.cols[1], b.cols[2]);
    EXPECT_EQ(handle_ring(node, b), net::RpcStatus::InvalidArgument);
  }
  {  // A column id at or past L, still ascending in its row; and the
     // largest u32.
    for (const std::uint32_t bad : {static_cast<std::uint32_t>(L), UINT32_MAX}) {
      RingBody b = good;
      b.cols.back() = bad;
      EXPECT_EQ(handle_ring(node, b), net::RpcStatus::InvalidArgument) << bad;
    }
  }
  {  // An nnz that promises one id more than the bytes after the
     // offsets hold, and one whose byte count overflows 64 bits.
    const std::uint64_t left_words =
        good.nnz + 1 + 2 * good.runs.size() + good.q.size() + good.kv.size();
    for (const std::uint64_t nnz : {left_words + 1, std::uint64_t{1} << 62}) {
      RingBody b = good;
      b.nnz = nnz;
      EXPECT_EQ(handle_ring(node, b), net::RpcStatus::Malformed) << nnz;
    }
  }
  {  // rows × d overflows: 2^33 rows of 2^20 floats.
    RingBody b = good;
    b.part = 0;
    b.d = 1u << 20;
    b.partition.boundaries = {0, Index{1} << 33};
    b.partition.work = {0};
    EXPECT_EQ(handle_ring(node, b), net::RpcStatus::InvalidArgument);
  }
  {  // Part index past the partition.
    RingBody b = good;
    b.part = 2;
    EXPECT_EQ(handle_ring(node, b), net::RpcStatus::InvalidArgument);
  }
  {  // K/V shorter than the runs promise.
    RingBody b = good;
    b.kv.pop_back();
    EXPECT_EQ(handle_ring(node, b), net::RpcStatus::Malformed);
  }
  {  // Truncated mid-slice.
    net::RpcResponse bad;
    auto bytes = good.encode();
    bytes.resize(60);
    node.handle({1, net::Op::RingPrefill, bytes}, bad);
    EXPECT_EQ(bad.status, net::RpcStatus::Malformed);
  }
}

TEST(Cluster, RingPrefillEmptyPartReturnsZeroRows) {
  const Index L = 16, d = 4;
  const auto mask = build_csr_local(L, make_local(2));
  seqpar::Partition part;
  part.boundaries = {0, L, L};  // part 1 owns no rows
  part.work = {0, 0};
  Rng rng(14);
  Matrix<float> q(L, d), k(L, d), v(L, d);
  fill_uniform(q, rng);
  fill_uniform(k, rng);
  fill_uniform(v, rng);
  net::NodeService node(net::NodeConfig{});
  net::RpcResponse rsp;
  ASSERT_EQ(handle_ring(node, RingBody(mask, part, 1, q, k, v), &rsp), net::RpcStatus::Ok);
  net::Reader r(rsp.body);
  Matrix<float> rows;
  ASSERT_TRUE(net::get_matrix(r, rows));
  EXPECT_EQ(rows.rows(), 0);
  EXPECT_EQ(rows.cols(), d);
  EXPECT_EQ(r.u64(), 0u);  // no edges
  EXPECT_TRUE(r.done());

  // End to end, the empty part is one more request with nothing to fold.
  LoopbackCluster cluster(2);
  Matrix<float> out, oracle(L, d);
  const auto rep = cluster.client.ring_prefill(q, k, v, mask, part, false, -1.0f, out);
  seqpar::distributed_csr_attention(q, k, v, mask, part, oracle);
  EXPECT_EQ(std::memcmp(out.data(), oracle.data(), oracle.size_bytes()), 0);
  EXPECT_EQ(rep.nodes[1].kv_rows, 0u);
  EXPECT_EQ(rep.nodes[1].edges, 0u);
}

TEST(Cluster, RetiredRingOpsAreUnknown) {
  // Ops 6–9 carried the relayed rotation; a node answers them Malformed.
  net::NodeService node(net::NodeConfig{});
  for (const std::uint8_t op : {6, 7, 8, 9}) {
    net::RpcResponse rsp;
    node.handle({1, static_cast<net::Op>(op), {1, 2, 3}}, rsp);
    EXPECT_EQ(rsp.status, net::RpcStatus::Malformed) << "op " << int{op};
  }

  // Op 12 carried the ring prefill body with mask values and i64 ids: a
  // well-formed body in that layout is an unknown op, not a fold.
  const Index L = 40, d = 4;
  const auto mask = build_csr_local(L, make_local(3));
  const auto part = seqpar::partition_uniform_rows(L, 2, seqpar::degrees_of(mask));
  Rng rng(15);
  Matrix<float> q(L, d), k(L, d), v(L, d);
  fill_uniform(q, rng);
  fill_uniform(k, rng);
  fill_uniform(v, rng);
  net::RpcResponse rsp;
  node.handle({1, static_cast<net::Op>(12), RingBody(mask, part, 1, q, k, v).encode_retired()},
              rsp);
  EXPECT_EQ(rsp.status, net::RpcStatus::Malformed);
  net::Reader r(rsp.body);
  std::string detail;
  ASSERT_TRUE(net::get_string(r, detail));
  EXPECT_EQ(detail, "unknown op");
}

TEST(Cluster, RoutedDecodeBitIdenticalToLocalSessionManager) {
  const Index d = 16, prompt = 24, steps = 12;
  net::NodeConfig cfg;
  cfg.sessions.pool.num_pages = 64;
  cfg.sessions.pool.page_size = 16;
  cfg.sessions.pool.head_dim = d;
  LoopbackCluster cluster(2, cfg);
  kvcache::SessionManager local(cfg.sessions);

  net::WireMask wm;
  wm.kind = net::WireMaskKind::Dilated1d;
  wm.a = 6;
  wm.b = 1;

  Rng rng(33);
  for (const std::uint64_t sid : {101u, 202u, 303u}) {
    cluster.client.create_session(sid, wm);
    local.create(sid, wm.to_spec());

    Matrix<float> q(prompt, d), k(prompt, d), v(prompt, d), remote_o, local_o;
    fill_uniform(q, rng);
    fill_uniform(k, rng);
    fill_uniform(v, rng);
    cluster.client.prefill(sid, q, k, v, remote_o);
    local.prefill(sid, q, k, v, local_o);
    ASSERT_TRUE(remote_o.same_shape(local_o));
    ASSERT_EQ(std::memcmp(remote_o.data(), local_o.data(), local_o.size_bytes()), 0);

    std::vector<float> qr(static_cast<std::size_t>(d)), kr(qr.size()), vr(qr.size());
    std::vector<float> remote_row(qr.size()), local_row(qr.size());
    for (Index t = 0; t < steps; ++t) {
      for (auto* vec : {&qr, &kr, &vr}) {
        for (float& x : *vec) x = rng.next_float();
      }
      const Index re = cluster.client.decode_step(sid, qr.data(), kr.data(), vr.data(), d,
                                                  remote_row.data());
      const Index le = local.decode_step(sid, qr.data(), kr.data(), vr.data(),
                                         local_row.data());
      EXPECT_EQ(re, le);
      ASSERT_EQ(std::memcmp(remote_row.data(), local_row.data(),
                            remote_row.size() * sizeof(float)),
                0)
          << "session " << sid << " step " << t;
    }
    cluster.client.release_session(sid);
    EXPECT_THROW(cluster.client.decode_step(sid, qr.data(), kr.data(), vr.data(), d,
                                            remote_row.data()),
                 kvcache::SessionNotFound);
  }

  // The sessions really were spread by the ring: ping both nodes and
  // count what they served.
  const auto i0 = cluster.client.ping(0);
  const auto i1 = cluster.client.ping(1);
  EXPECT_EQ(i0.sessions + i1.sessions, 0u);  // all released
}

// ---------------------------------------------------------------------
// Metrics snapshot wire codec + the Op::Stats scrape path

TEST(MetricsCodec, SnapshotRoundTripsExactly) {
  obs::MetricsSnapshot s;
  s.counters = {{"a.count", 7}, {"z.count", 0xffffffffffffull}};
  s.gauges = {{"g.depth", -12}, {"g.live", 3}};
  obs::HistogramSample h;
  h.name = "h.lat";
  h.edges = obs::histogram_edges();
  h.counts.assign(h.edges.size() + 1, 0);  // edges + overflow
  h.counts[3] = 1;
  h.counts[200] = 5;
  h.counts.back() = 2;
  h.sum = 312.75;
  h.count = 8;
  s.histograms = {h};

  net::Writer w;
  net::put_metrics_snapshot(w, s);
  net::Reader r(w.buf);
  obs::MetricsSnapshot got;
  ASSERT_TRUE(net::get_metrics_snapshot(r, got));
  EXPECT_TRUE(r.done());

  ASSERT_EQ(got.counters.size(), 2u);
  EXPECT_EQ(got.counter("a.count"), 7u);
  EXPECT_EQ(got.counter("z.count"), 0xffffffffffffull);
  EXPECT_EQ(got.gauge("g.depth"), -12);
  const obs::HistogramSample* gh = got.histogram("h.lat");
  ASSERT_NE(gh, nullptr);
  EXPECT_EQ(gh->edges, h.edges);  // f64 codec is bit-exact
  EXPECT_EQ(gh->counts, h.counts);
  EXPECT_EQ(gh->sum, h.sum);
  EXPECT_EQ(gh->count, 8u);
}

TEST(MetricsCodec, LayoutHistogramRoundTrips) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("net.rpc.latency_us");
  for (const double us : {0.01, 35.0, 36.5, 900.0, 2e9}) h.observe(us);
  const obs::MetricsSnapshot s = reg.snapshot();
  ASSERT_EQ(s.histograms.size(), 1u);
  ASSERT_EQ(s.histograms[0].edges.size(), obs::kHistogramEdges);

  net::Writer w;
  net::put_metrics_snapshot(w, s);
  net::Reader r(w.buf);
  obs::MetricsSnapshot got;
  ASSERT_TRUE(net::get_metrics_snapshot(r, got));
  EXPECT_TRUE(r.done());
  const obs::HistogramSample* gh = got.histogram("net.rpc.latency_us");
  ASSERT_NE(gh, nullptr);
  EXPECT_EQ(gh->edges, obs::histogram_edges());
  EXPECT_EQ(gh->counts, h.counts());
  EXPECT_EQ(gh->sum, h.sum());
  EXPECT_EQ(gh->count, 5u);
}

TEST(MetricsCodec, HistogramPastTheEdgeCapIsRefusedBeforeAllocating) {
  // A histogram claiming one edge more than the cap is refused even when
  // every byte it claims is present, and its edges are never allocated.
  for (const std::uint32_t ne : {net::kMaxHistEdges + 1, 0xffffffffu}) {
    net::Writer w;
    w.u32(0);  // counters
    w.u32(0);  // gauges
    w.u32(1);  // histograms
    net::put_string(w, "h.big");
    w.u32(ne);
    if (ne == net::kMaxHistEdges + 1) {
      for (std::uint32_t i = 0; i < ne; ++i) w.f64(static_cast<double>(i));
      for (std::uint32_t i = 0; i <= ne; ++i) w.u64(0);
      w.f64(0.0);
      w.u64(0);
    }
    net::Reader r(w.buf);
    obs::MetricsSnapshot got;
    EXPECT_FALSE(net::get_metrics_snapshot(r, got)) << ne;
    ASSERT_EQ(got.histograms.size(), 1u);
    EXPECT_EQ(got.histograms[0].edges.capacity(), 0u) << ne;
    EXPECT_EQ(got.histograms[0].counts.capacity(), 0u) << ne;
  }
}

TEST(MetricsCodec, HostileInputsAreRejectedNotTrusted) {
  // Truncated mid-stream: flip success off, never read past the end.
  {
    obs::MetricsSnapshot s;
    s.counters = {{"a", 1}, {"b", 2}};
    net::Writer w;
    net::put_metrics_snapshot(w, s);
    for (std::size_t cut = 1; cut < w.buf.size(); cut += 3) {
      std::vector<std::uint8_t> trunc(w.buf.begin(), w.buf.begin() + cut);
      net::Reader r(trunc);
      obs::MetricsSnapshot got;
      EXPECT_FALSE(net::get_metrics_snapshot(r, got)) << "cut=" << cut;
    }
  }
  // A hostile metric count must be bounds-rejected before allocation.
  {
    net::Writer w;
    w.u32(0x40000000u);  // 2^30 "counters"
    net::Reader r(w.buf);
    obs::MetricsSnapshot got;
    EXPECT_FALSE(net::get_metrics_snapshot(r, got));
  }
}

TEST(Stats, LoopbackScrapeServesTheNodeRegistry) {
  net::NodeConfig cfg;
  cfg.sessions.pool.num_pages = 16;
  cfg.sessions.pool.page_size = 4;
  cfg.sessions.pool.head_dim = 8;
  LoopbackCluster cluster(1, cfg);
  auto& cc = cluster.client;

  net::WireMask wm;
  wm.kind = net::WireMaskKind::Local;
  wm.a = 3;
  cc.create_session(1, wm);
  Rng rng(3);
  Matrix<float> q(8, 8), k(8, 8), v(8, 8), o;
  fill_uniform(q, rng);
  fill_uniform(k, rng);
  fill_uniform(v, rng);
  cc.prefill(1, q, k, v, o);
  std::vector<float> row(8, 0.5f), out_row(8);
  cc.decode_step(1, row.data(), row.data(), row.data(), 8, out_row.data());

  // Loopback shares this process's registry, so compare the scraped
  // gauges against the node's own SessionManager (refreshed at scrape
  // time) and check counter deltas between two scrapes, not absolutes.
  const obs::MetricsSnapshot snap = cc.node_stats(0);
  const auto local = cluster.services[0]->sessions().stats();
  EXPECT_EQ(snap.gauge("kvcache.sessions.live"), static_cast<std::int64_t>(local.sessions));
  EXPECT_EQ(snap.gauge("kvcache.pages.in_use"), static_cast<std::int64_t>(local.pages_in_use));
  EXPECT_EQ(snap.gauge("kvcache.pages.free"), static_cast<std::int64_t>(local.pages_free));
  EXPECT_EQ(snap.gauge("kvcache.prefix.entries"),
            static_cast<std::int64_t>(local.prefix_entries));
  EXPECT_GT(snap.counter("net.frames.received"), 0u);
  EXPECT_GT(snap.counter("net.rpc.calls"), 0u);

  // A second scrape is itself traffic: every counter is monotone and
  // the rpc/frame counters strictly advance.
  const obs::MetricsSnapshot again = cc.node_stats(0);
  for (const auto& c : snap.counters) EXPECT_GE(again.counter(c.name), c.value) << c.name;
  EXPECT_GT(again.counter("net.rpc.calls"), snap.counter("net.rpc.calls"));
  EXPECT_GT(again.counter("net.frames.sent"), snap.counter("net.frames.sent"));
}

}  // namespace
