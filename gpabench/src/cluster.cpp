// cluster_long_context: long-context prefill and routed decode over the
// wire.
//
// Three NodeServices run on threads of this process and are reached over
// TCP on 127.0.0.1 (TcpListener / TcpTransport); the router is this
// thread. Each iteration runs one ClusterClient::ring_prefill at
// L = 4096 under a local(8) ∪ global(4) mask with an NNZ-balanced
// partition, then 8 routed sessions with unique 512-token prompts, each
// decoding 32 tokens round-robin through ClusterClient.

#include <algorithm>
#include <cstring>
#include <memory>
#include <thread>

#include "common/rng.hpp"
#include "core/graph_attention.hpp"
#include "kvcache/session_manager.hpp"
#include "net/cluster.hpp"
#include "net/frame.hpp"
#include "net/node.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "seqpar/partition.hpp"
#include "seqpar/sim_cluster.hpp"
#include "sparse/build.hpp"
#include "sparse/compose.hpp"
#include "tensor/tensor_ops.hpp"
#include "workloads.hpp"

namespace gb {
namespace {

using namespace gpa;

constexpr Index kLen = 4096;
constexpr int kNodes = 3;
constexpr Index kWindow = 8;
constexpr int kSessions = 8;
constexpr Index kPrompt = 512, kDecode = 32;
constexpr Index kPageSize = 16;
constexpr Index kNodePages = 512;
constexpr int kPoolEntries = 8;
constexpr int kChecksPerPass = 24;  // routed sessions replayed per pass, one per time slot

Csr<float> ring_mask(Index len) {
  return mask_union(build_csr_local(len, LocalParams{kWindow}),
                    build_csr_global(len, make_global({0, 1, 2, 3}, len)));
}

net::NodeConfig node_config() {
  net::NodeConfig c;
  c.sessions.pool.page_size = kPageSize;
  c.sessions.pool.head_dim = kD;
  c.sessions.pool.num_pages = kNodePages;
  c.sessions.opts.policy = ExecPolicy::serial();
  return c;
}

struct Entry {
  Matrix<float> q, k, v;     ///< kPrompt rows
  Matrix<float> dq, dk, dv;  ///< kDecode rows
};

struct Inputs {
  Matrix<float> q, k, v;  ///< ring prefill payload
  Csr<float> mask;
  seqpar::Partition part;
  Matrix<float> oracle;  ///< sim_cluster output on the same partition
  net::WireMask session_mask;
  std::vector<Entry> pool;
};

Inputs make_inputs(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 37);
  Inputs in;
  auto fill = [&](Matrix<float>& m, Index rows) {
    m = Matrix<float>(rows, kD);
    fill_uniform(m, rng);
  };
  fill(in.q, kLen);
  fill(in.k, kLen);
  fill(in.v, kLen);
  in.mask = ring_mask(kLen);
  in.part = seqpar::partition_balanced_nnz(kLen, kNodes, seqpar::degrees_of(in.mask));
  in.oracle = Matrix<float>(kLen, kD);
  seqpar::distributed_csr_attention(in.q, in.k, in.v, in.mask, in.part, in.oracle);
  in.session_mask.kind = net::WireMaskKind::Csr;
  in.session_mask.csr = std::make_shared<Csr<float>>(ring_mask(kPrompt + kDecode));
  in.pool.resize(kPoolEntries);
  for (Entry& e : in.pool) {
    fill(e.q, kPrompt);
    fill(e.k, kPrompt);
    fill(e.v, kPrompt);
    fill(e.dq, kDecode);
    fill(e.dk, kDecode);
    fill(e.dv, kDecode);
  }
  return in;
}

/// A routed session's prompt: its pool entry with one K element per page
/// salted by the session id, so no prompt page is shared.
struct Prompt {
  Matrix<float> q, k, v;
  void load(const Entry& e, std::uint64_t sid) {
    q = e.q;
    k = e.k;
    v = e.v;
    for (Index r = 0; r < kPrompt; r += kPageSize) k(r, 0) = static_cast<float>(sid) * 0x1p-20f;
  }
};

/// Three NodeServices served on threads over loopback TCP.
struct TcpCluster {
  std::vector<std::unique_ptr<net::NodeService>> services;
  std::vector<std::thread> threads;
  net::ClusterClient client;

  TcpCluster() {
    try {
      for (int i = 0; i < kNodes; ++i) {
        net::TcpListener listener(0);
        auto conn = net::TcpTransport::connect("127.0.0.1", listener.port(),
                                               net::Millis(5000), net::Millis(30000));
        auto served = listener.accept(net::Millis(5000), net::Millis(30000));
        if (!conn || !served) throw std::runtime_error("cluster: loopback TCP connect failed");
        services.push_back(std::make_unique<net::NodeService>(node_config()));
        net::NodeService* svc = services.back().get();
        threads.emplace_back([svc, t = std::move(served)]() mutable { svc->serve(*t); });
        client.add_peer(static_cast<std::uint64_t>(i), std::move(conn));
      }
    } catch (...) {
      stop();
      throw;
    }
  }
  ~TcpCluster() { stop(); }
  TcpCluster(const TcpCluster&) = delete;
  TcpCluster& operator=(const TcpCluster&) = delete;

  void stop() {
    client.shutdown_all();
    for (auto& t : threads) {
      if (t.joinable()) t.join();
    }
  }
};

struct Kept {
  std::uint64_t sid = 0;
  Matrix<float> prefill_out;
  Matrix<float> decode_out{kDecode, kD};
};

struct Pass {
  std::vector<double> prefill_ms;        ///< ring_prefill wall time
  std::vector<double> tpot_ms;           ///< routed decode token gaps
  std::vector<double> session_prefill_ms;
  std::uint64_t tokens = 0;
  double routed_s = 0.0;
  double ring_cpu_s = 0.0;    ///< process CPU time inside ring_prefill
  double decode_cpu_s = 0.0;  ///< process CPU time of the routed decode rounds
  double seconds = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t iterations = 0;
  double bytes = 0.0, frames = 0.0;  ///< sent during ring prefills
  Size shard_deliveries = 0;
  Index pages_peak = 0;
  std::vector<Kept> kept;
  std::vector<std::string> mismatches;
};

/// One ring prefill plus one round of routed sessions. A routed session
/// is kept for the replay check when it claims a slot of `checks`.
void iteration(TcpCluster& cl, const Inputs& in, std::uint64_t& next_sid, Pass& p,
               Slots* checks) {
  auto& reg = obs::Registry::global();
  obs::Counter& bytes_sent = reg.counter("net.bytes.sent");
  obs::Counter& frames_sent = reg.counter("net.frames.sent");
  const std::uint64_t it = ++p.iterations;
  const TimePoint i0 = Clock::now();
  const std::uint64_t root = span::enabled() ? span::new_id() : 0;

  // Ring prefill, checked against sim_cluster on every call.
  const double b0 = static_cast<double>(bytes_sent.value());
  const double f0 = static_cast<double>(frames_sent.value());
  Matrix<float> out;
  const double c0 = cpu_seconds();
  const TimePoint t0 = Clock::now();
  ++p.attempted;
  bool ok = true;
  try {
    const net::ClusterRingReport rr =
        cl.client.ring_prefill(in.q, in.k, in.v, in.mask, in.part, false, -1.0f, out);
    p.shard_deliveries = rr.shard_deliveries;
  } catch (const std::exception& e) {
    ok = false;
    p.mismatches.push_back(std::string("ring_prefill threw: ") + e.what());
  }
  const TimePoint t1 = Clock::now();
  p.ring_cpu_s += cpu_seconds() - c0;
  span::record("net.ring_prefill", t0, t1, root, it);
  p.bytes += static_cast<double>(bytes_sent.value()) - b0;
  p.frames += static_cast<double>(frames_sent.value()) - f0;
  if (ok && (!out.same_shape(in.oracle) ||
             std::memcmp(out.data(), in.oracle.data(), in.oracle.size_bytes()) != 0)) {
    ok = false;
    p.mismatches.push_back("ring prefill differs from sim_cluster");
  }
  if (ok) {
    p.prefill_ms.push_back(ms_between(t0, t1));
  } else {
    ++p.failed;
    p.prefill_ms.push_back(1e300);
  }

  // Routed sessions: create + prefill each, then decode round-robin.
  const TimePoint r0 = Clock::now();
  std::vector<std::uint64_t> sids(kSessions);
  std::vector<Prompt> prompts(kSessions);
  std::vector<Kept> kept(kSessions);
  std::vector<TimePoint> last(kSessions);
  std::vector<bool> alive(kSessions, true);
  for (int s = 0; s < kSessions; ++s) {
    sids[s] = next_sid++;
    prompts[s].load(in.pool[sids[s] % kPoolEntries], sids[s]);
    kept[s].sid = sids[s];
    ++p.attempted;
    try {
      const TimePoint a = Clock::now();
      cl.client.create_session(sids[s], in.session_mask);
      const TimePoint b = Clock::now();
      cl.client.prefill(sids[s], prompts[s].q, prompts[s].k, prompts[s].v, kept[s].prefill_out);
      last[s] = Clock::now();
      p.session_prefill_ms.push_back(ms_between(b, last[s]));
      span::record("net.create_session", a, b, root, sids[s]);
      span::record("net.prefill", b, last[s], root, sids[s]);
    } catch (const std::exception& e) {
      alive[s] = false;
      ++p.failed;
      p.mismatches.push_back(std::string("routed prefill threw: ") + e.what());
    }
  }
  const double d0 = cpu_seconds();
  for (Index t = 0; t < kDecode; ++t) {
    for (int s = 0; s < kSessions; ++s) {
      if (!alive[s]) continue;
      const Entry& e = in.pool[sids[s] % kPoolEntries];
      ++p.attempted;
      try {
        const TimePoint a = Clock::now();
        cl.client.decode_step(sids[s], e.dq.row(t), e.dk.row(t), e.dv.row(t), kD,
                              kept[s].decode_out.row(t));
        const TimePoint b = Clock::now();
        span::record("net.decode_step", a, b, root, sids[s]);
        if (t > 0) p.tpot_ms.push_back(ms_between(last[s], b));
        last[s] = b;
        ++p.tokens;
      } catch (const std::exception& ex) {
        alive[s] = false;
        ++p.failed;
        p.tpot_ms.push_back(1e300);
        p.mismatches.push_back(std::string("routed decode threw: ") + ex.what());
      }
    }
  }
  p.decode_cpu_s += cpu_seconds() - d0;
  if (span::enabled()) {
    Index in_use = 0;
    for (int n = 0; n < kNodes; ++n) {
      in_use += cl.client.ping(static_cast<std::uint64_t>(n)).pages_in_use;
    }
    p.pages_peak = std::max(p.pages_peak, in_use);
  }
  for (int s = 0; s < kSessions; ++s) {
    const TimePoint a = Clock::now();
    cl.client.release_session(sids[s]);
    const TimePoint b = Clock::now();
    span::record("net.release_session", a, b, root, sids[s]);
    if (alive[s] && checks != nullptr && checks->claim(b)) p.kept.push_back(std::move(kept[s]));
  }
  const TimePoint i1 = Clock::now();
  p.routed_s += std::chrono::duration<double>(i1 - r0).count();
  span::record("client.iteration", i0, i1, 0, it, root);
}

Pass run_pass(TcpCluster& cl, const Inputs& in, double seconds, std::uint64_t& next_sid) {
  Pass p;
  const TimePoint start = Clock::now();
  const TimePoint stop = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(seconds));
  Slots checks(start, stop, kChecksPerPass);
  while (Clock::now() < stop) iteration(cl, in, next_sid, p, &checks);
  p.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return p;
}

/// Routed decode ≡ a local SessionManager fed the same calls.
void check_routed(Report& rep, const Inputs& in, const std::vector<Kept>& kept) {
  kvcache::SessionManager local(node_config().sessions);
  const kvcache::MaskSpec spec = in.session_mask.to_spec();
  Prompt prompt;
  for (const Kept& k : kept) {
    const Entry& e = in.pool[k.sid % kPoolEntries];
    prompt.load(e, k.sid);
    local.create(k.sid, spec);
    Matrix<float> out;
    local.prefill(k.sid, prompt.q, prompt.k, prompt.v, out);
    bool same = out.same_shape(k.prefill_out) &&
                std::memcmp(out.data(), k.prefill_out.data(), out.size_bytes()) == 0;
    std::vector<float> row(kD);
    for (Index t = 0; t < kDecode; ++t) {
      local.decode_step(k.sid, e.dq.row(t), e.dk.row(t), e.dv.row(t), row.data());
      same = same && std::memcmp(row.data(), k.decode_out.row(t), kD * sizeof(float)) == 0;
    }
    local.release(k.sid);
    if (!same) {
      rep.fail_check("routed session " + std::to_string(k.sid) +
                     " differs from a local SessionManager");
    }
  }
}

/// Quantile of the observations a histogram gained between two
/// snapshots, interpolated inside the bucket.
double histogram_quantile(const obs::HistogramSample* before, const obs::HistogramSample* after,
                          double q, std::uint64_t& n) {
  n = 0;
  if (after == nullptr) return 0.0;
  std::vector<double> counts(after->counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = static_cast<double>(after->counts[i]) -
                (before != nullptr ? static_cast<double>(before->counts[i]) : 0.0);
  }
  double total = 0.0;
  for (const double c : counts) total += c;
  n = static_cast<std::uint64_t>(total);
  if (total <= 0.0) return 0.0;
  const double target = q * total;
  double cum = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (cum + counts[i] >= target && counts[i] > 0.0) {
      if (i >= after->edges.size()) return after->edges.back();
      const double lo = i == 0 ? 0.0 : after->edges[i - 1];
      return lo + (after->edges[i] - lo) * (target - cum) / counts[i];
    }
    cum += counts[i];
  }
  return after->edges.back();
}

struct Setup {
  Inputs in;
  std::unique_ptr<TcpCluster> cluster;
};

Setup set_up(std::uint64_t seed, std::uint64_t& next_sid) {
  Setup s;
  s.in = make_inputs(seed);
  s.cluster = std::make_unique<TcpCluster>();
  Pass warm;
  iteration(*s.cluster, s.in, next_sid, warm, nullptr);
  if (warm.failed != 0) {
    throw std::runtime_error("cluster warm-up failed: " + warm.mismatches.front());
  }
  return s;
}

}  // namespace

Report run_cluster(const RunConfig& cfg) {
  Report rep;
  const double pass_s = cfg.trace ? cfg.seconds / 2.0 : cfg.seconds;
  std::uint64_t next_sid = 1;

  Setup s = timed_setup<Setup>(rep, cfg, [&] { return set_up(cfg.seed, next_sid); });
  const auto passes =
      run_passes<Pass>(cfg, [&] { return run_pass(*s.cluster, s.in, pass_s, next_sid); });
  const Pass& pass = passes.measured;

  rep.attempted = pass.attempted;
  rep.failed = pass.failed;
  // About a hundred prefills per run: plain quantiles over the run.
  rep.set_q("prefill_p50_ms", pass.prefill_ms, 0.50, "ms");
  rep.set_q("prefill_p90_ms", pass.prefill_ms, 0.90, "ms");
  rep.set_q("tpot_p50_ms", pass.tpot_ms, 0.50, "ms");
  rep.set_q("tpot_p90_ms", pass.tpot_ms, 0.90, "ms");
  rep.set_q("tpot_p99_ms", pass.tpot_ms, 0.99, "ms");
  rep.set("tokens_per_s", static_cast<double>(pass.tokens) / pass.routed_s, "1/s", pass.tokens);
  rep.set("prefill_cpu_ms", pass.ring_cpu_s * 1e3 / static_cast<double>(pass.iterations), "ms",
          pass.iterations);
  rep.set("token_cpu_us", pass.decode_cpu_s * 1e6 / static_cast<double>(pass.tokens), "us",
          pass.tokens);

  if (cfg.trace) {
    const double iters = static_cast<double>(pass.iterations);
    std::vector<double> ms;
    for (int i = 0; i < 5; ++i) {
      Matrix<float> out(kLen, kD);
      ms.push_back(seqpar::distributed_csr_attention(s.in.q, s.in.k, s.in.v, s.in.mask,
                                                     s.in.part, out)
                       .makespan_seconds *
                   1e3);
    }
    const double makespan_ms = quantile(ms, 0.5);
    rep.set("seqpar.sim_makespan_ms", makespan_ms, "ms", ms.size());
    rep.set("seqpar.nnz_imbalance", s.in.part.imbalance(), "ratio", 1);
    rep.set("net.wire_ms", quantile(pass.prefill_ms, 0.5) - makespan_ms, "ms",
            pass.prefill_ms.size());
    rep.set("net.bytes_per_prefill", pass.bytes / iters, "bytes", pass.iterations);
    rep.set("net.frames_per_prefill", pass.frames / iters, "count", pass.iterations);
    rep.set("net.shard_deliveries", static_cast<double>(pass.shard_deliveries), "count", 1);

    // Checksum and codec throughput on one shard-sized payload (K + V
    // rows of the largest part).
    Size rows = 0;
    for (std::size_t i = 0; i + 1 < s.in.part.boundaries.size(); ++i) {
      rows = std::max<Size>(rows, static_cast<Size>(s.in.part.boundaries[i + 1] -
                                                    s.in.part.boundaries[i]));
    }
    net::Frame frame;
    frame.type = 1;
    frame.payload.resize(rows * 2 * kD * sizeof(float));
    std::memcpy(frame.payload.data(), s.in.k.data(),
                std::min(frame.payload.size(), s.in.k.size_bytes()));
    const double nbytes = static_cast<double>(frame.payload.size());
    std::uint64_t sink = 0;
    const double cs = median_seconds(9, [&] {
      sink ^= net::payload_checksum(frame.payload.data(), frame.payload.size());
    });
    std::vector<std::uint8_t> wire;
    net::Frame decoded;
    bool codec_ok = true;
    const double codec = median_seconds(9, [&] {
      net::encode_frame(frame, wire);
      codec_ok = codec_ok && net::decode_frame(wire.data(), wire.size(), decoded) ==
                                 net::WireStatus::Ok;
    });
    if (!codec_ok || decoded.payload != frame.payload || sink == 0x5eed) {
      rep.fail_check("frame codec round trip changed the payload");
    }
    rep.set("net.checksum_gbps", nbytes / cs / 1e9, "GB/s", 9);
    rep.set("net.codec_gbps", nbytes / codec / 1e9, "GB/s", 9);

    std::uint64_t n = 0;
    const auto* hb = passes.before.histogram("net.rpc.latency_us");
    const auto* ha = passes.after.histogram("net.rpc.latency_us");
    const double p50 = histogram_quantile(hb, ha, 0.50, n);
    rep.set("net.rpc_us.p50", p50, "us", n);
    const double p99 = histogram_quantile(hb, ha, 0.99, n);
    rep.set("net.rpc_us.p99", p99, "us", n);
    std::vector<double> ping_us;
    for (int i = 0; i < 30; ++i) {
      for (int node = 0; node < kNodes; ++node) {
        const TimePoint a = Clock::now();
        s.cluster->client.ping(static_cast<std::uint64_t>(node));
        ping_us.push_back(us_between(a, Clock::now()));
      }
    }
    rep.set_q("net.ping_rtt_us.p50", ping_us, 0.50, "us");

    report_kvcache(rep, passes.before, passes.after, pass.session_prefill_ms, pass.pages_peak,
                   pass.iterations, kNodes * kNodePages);
    const Pass& untraced = passes.untraced;
    finish_trace(rep, cfg, static_cast<double>(untraced.iterations) / untraced.seconds,
                 iters / pass.seconds);

    // Direct decode_step on a side session with the routed sessions' mask.
    kvcache::SessionManager side(node_config().sessions);
    Prompt prompt;
    const Entry& e = s.in.pool[0];
    prompt.load(e, 0);
    time_side_decode(rep, side, 1, s.in.session_mask.to_spec(), prompt.q, prompt.k, prompt.v,
                     e.dq, e.dk, e.dv);

    KernelCase kc;
    kc.family = "ring";
    kc.len = kLen;
    kc.edges = s.in.mask.nnz();
    kc.call = [&in = s.in](const ExecPolicy& pol) {
      AttentionOptions o;
      o.policy = pol;
      Matrix<float> o_out(kLen, kD);
      csr_attention(in.q, in.k, in.v, in.mask, o_out, o);
    };
    measure_core(rep, {kc}, cfg.nproc);
  }

  // Both passes' ring prefills were checked as they ran; their kept
  // routed sessions are replayed here.
  std::uint64_t checked = 0;
  for (const Pass* p : {&passes.untraced, &passes.measured}) {
    for (const auto& m : p->mismatches) {
      if (rep.check_failures.size() < 16) rep.check_failures.push_back(m);
    }
    check_routed(rep, s.in, p->kept);
    checked += p->kept.size();
  }
  rep.set("checked_outputs", static_cast<double>(checked), "count", checked);
  return rep;
}

}  // namespace gb
