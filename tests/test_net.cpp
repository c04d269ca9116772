// src/net unit tests, transport-polymorphic via the loopback arm:
// CRC32C known answers and arm-vs-arm parity, frame codec fuzz (every
// malformed input is a typed WireStatus, never UB or a hang), loopback
// + TCP transports (including the streamed checksum, old-format magic
// and large gather-write paths), the RPC error taxonomy
// across a served connection, consistent-hash ring movement, and the
// cluster differential gates — loopback ring prefill bit-identical to
// seqpar/sim_cluster, loopback routed decode bit-identical to a local
// SessionManager. The real multi-process version of the gates lives in
// test_cluster_e2e (tier2).

#include <gtest/gtest.h>

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
    sent = net::send_request(*t, 77, net::Op::RingShard, parts);
  });
  net::RpcRequest got;
  const net::WireStatus ws = net::recv_request(*server, got);
  sender.join();
  ASSERT_EQ(sent, net::WireStatus::Ok);
  ASSERT_EQ(ws, net::WireStatus::Ok);
  EXPECT_EQ(got.id, 77u);
  EXPECT_EQ(got.op, net::Op::RingShard);
  ASSERT_EQ(got.body.size(), head.size() + tail.size());
  EXPECT_EQ(std::memcmp(got.body.data(), head.data(), head.size()), 0);
  EXPECT_EQ(std::memcmp(got.body.data() + head.size(), tail.data(), tail.size()), 0);
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
      EXPECT_EQ(rep.shard_deliveries, static_cast<Size>(P) * static_cast<Size>(P - 1));

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

TEST(Cluster, RingShardRejectsTheNodesOwnShard) {
  // A node folds its own shard from RingStart; a RingShard re-delivering
  // that index is a router bug and gets a typed InvalidArgument.
  const Index L = 8, d = 4;
  const auto mask = build_csr_local(L, make_local(2));
  const auto part = seqpar::partition_balanced_nnz(L, 2, seqpar::degrees_of(mask));
  const Index rows = part.boundaries[1];
  Rng rng(4);
  Matrix<float> q(rows, d), k(rows, d), v(rows, d);
  fill_uniform(q, rng);
  fill_uniform(k, rng);
  fill_uniform(v, rng);

  net::NodeService node(net::NodeConfig{});
  net::Writer start;
  start.u64(9);  // ring id
  start.u32(2);  // parts
  start.u32(0);  // this node
  net::put_partition(start, part);
  net::put_csr(start, mask);
  start.u8(0);
  start.f32(-1.0f);
  net::put_matrix(start, q);
  net::put_matrix(start, k);
  net::put_matrix(start, v);
  net::RpcResponse rsp;
  node.handle({1, net::Op::RingStart, start.buf}, rsp);
  ASSERT_EQ(rsp.status, net::RpcStatus::Ok);

  net::Writer own;
  own.u64(9);
  own.u32(0);  // shard 0 is this node's own
  net::put_matrix(own, k);
  net::put_matrix(own, v);
  node.handle({2, net::Op::RingShard, own.buf}, rsp);
  EXPECT_EQ(rsp.status, net::RpcStatus::InvalidArgument);
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
  h.edges = {0.5, 2.0, 100.25};
  h.counts = {1, 0, 5, 2};  // edges + overflow
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
