// oneshot_mixed: small, varied one-shot requests through serve::Server.
//
// Three request kinds in equal shares — Pattern requests under a
// longformer local∘global MaskSpec (reach 32, 4 globals), and Attention
// requests under random CSR masks at Sf 0.001 and 0.01 — at lengths
// stratified log-uniformly over 256–4096. Payloads come from a pool built
// before timing (a serving frontend reuses tokenised payloads too), and
// so do both phases' request schedules.
//
//   Phase A: open loop, one generator thread, fixed rate kOpenLoopRate;
//            latency runs from each request's due time to the moment
//            its future became ready (see ready_at).
//   Phase B: closed loop, one client thread keeping kInFlight requests
//            outstanding, sending the next as each reply arrives.
//
// The server runs every batch on its worker's own thread, so the
// benchmark runs four busy threads at most: three workers and a client.

#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>

#include "common/rng.hpp"
#include "core/composed.hpp"
#include "core/graph_attention.hpp"
#include "serve/server.hpp"
#include "sparse/build.hpp"
#include "sparse/presets.hpp"
#include "tensor/tensor_ops.hpp"
#include "workloads.hpp"

namespace gb {
namespace {

using namespace gpa;
namespace sv = gpa::serve;

// Open-loop rate, fixed so that every commit is offered the same load:
// about a fifth of phase B's throughput at the commit that introduced
// this benchmark, so that phase A measures requests that meet an idle
// server rather than a queue.
constexpr double kOpenLoopRate = 250.0;  // requests per second
constexpr int kPoolPerKind = 24;
constexpr Index kMinLen = 256, kMaxLen = 4096;
constexpr Index kReach = 32, kGlobals = 4;
constexpr int kWorkers = 3;
constexpr std::size_t kInFlight = 32;  // phase B's outstanding requests: 4 full batches
constexpr int kChecksPerPhase = 256;  // sampled outputs checked per phase of a pass

enum class Kind : int { Pattern = 0, Csr1e3 = 1, Csr1e2 = 2 };
const char* family_of(Kind k) {
  return k == Kind::Pattern ? "lf" : (k == Kind::Csr1e3 ? "csr1e3" : "csr1e2");
}

struct Payload {
  Kind kind = Kind::Pattern;
  Index len = 0;
  std::shared_ptr<const sv::RequestData> data;
  std::shared_ptr<const Csr<float>> mask;  ///< Attention kinds only
};

struct Inputs {
  std::vector<Payload> pool;
  std::shared_ptr<const kvcache::MaskSpec> pattern;
  std::vector<std::uint32_t> schedule_a;  ///< payload per phase-A request
  std::vector<std::uint32_t> schedule_b;  ///< payloads of the closed loop, cycled
};

Inputs make_inputs(std::uint64_t seed, double seconds_a) {
  Inputs in;
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 11);
  const double lo = std::log(static_cast<double>(kMinLen));
  const double hi = std::log(static_cast<double>(kMaxLen));
  for (int kind = 0; kind < 3; ++kind) {
    for (int i = 0; i < kPoolPerKind; ++i) {
      Payload p;
      p.kind = static_cast<Kind>(kind);
      // Stratified log-uniform lengths (one per stratum, at its log
      // midpoint): the work mix is the same for every seed, which sets
      // only the payload values, the masks and the request order.
      const double u = (static_cast<double>(i) + 0.5) / kPoolPerKind;
      p.len = static_cast<Index>(std::lround(std::exp(lo + (hi - lo) * u)));
      auto data = std::make_shared<sv::RequestData>();
      data->q = Matrix<float>(p.len, kD);
      data->k = Matrix<float>(p.len, kD);
      data->v = Matrix<float>(p.len, kD);
      fill_uniform(data->q, rng);
      fill_uniform(data->k, rng);
      fill_uniform(data->v, rng);
      p.data = std::move(data);
      if (p.kind != Kind::Pattern) {
        const double sf = p.kind == Kind::Csr1e3 ? 0.001 : 0.01;
        p.mask = std::make_shared<const Csr<float>>(
            build_csr_random(p.len, RandomParams{sf, rng.next_u64()}));
      }
      in.pool.push_back(std::move(p));
    }
  }
  in.pattern = std::make_shared<const kvcache::MaskSpec>(
      kvcache::MaskSpec::compose(make_longformer(kMaxLen, kReach, kGlobals)));
  const auto n = static_cast<std::uint32_t>(in.pool.size());
  const auto count_a = static_cast<std::size_t>(kOpenLoopRate * seconds_a);
  for (std::size_t i = 0; i < count_a; ++i) {
    in.schedule_a.push_back(static_cast<std::uint32_t>(rng.next_below(n)));
  }
  for (int i = 0; i < 8192; ++i) {
    in.schedule_b.push_back(static_cast<std::uint32_t>(rng.next_below(n)));
  }
  return in;
}

sv::Request make_req(const Payload& p, const Inputs& in) {
  sv::Request r;
  r.data = p.data;
  if (p.kind == Kind::Pattern) {
    r.kind = sv::RequestKind::Pattern;
    r.pattern = in.pattern;
  } else {
    r.kind = sv::RequestKind::Attention;
    r.mask = p.mask;
  }
  return r;
}

sv::ServerConfig server_config() {
  sv::ServerConfig c;
  c.workers = kWorkers;
  c.policy.max_batch = 8;
  c.policy.seq_buckets = {256, 512, 1024, 2048, 4096};
  // The default spreads each batch over every core from each of the
  // three workers: up to 3 × nproc threads on nproc cores, which on a
  // shared host measured the scheduler more than the server.
  c.batch_policy = ExecPolicy::serial();
  return c;
}

/// One finished request as the client saw it.
struct Done {
  TimePoint at{};  ///< when the client saw the response
  double latency_ms = 0.0;
  ServeSample s;
};

Done make_done(TimePoint at, double latency_ms, TimePoint s0, TimePoint s1,
               const sv::Response& r) {
  return Done{at, latency_ms,
              ServeSample{r.queue_us, r.service_us, us_between(s0, s1), r.batch_size, r.status}};
}

/// When a request's future became ready: the server stamps the moment it
/// queued the request (inside submit, before `submitted`), then reports
/// the queue wait and the batch's execution, after which it fulfils the
/// promise. Polling the future instead would add the client's own wake-up
/// delay, which on a shared host varies more than the server's work.
TimePoint ready_at(TimePoint submitted, const sv::Response& r) {
  return submitted + std::chrono::nanoseconds(
                         static_cast<std::int64_t>((r.queue_us + r.service_us) * 1e3));
}

/// One direct serial kernel call per pooled payload: the outputs every
/// sampled response must equal bit for bit.
std::vector<Matrix<float>> reference_outputs(const Inputs& in) {
  AttentionOptions o;
  o.policy = ExecPolicy::serial();
  std::vector<Matrix<float>> refs;
  for (const Payload& pl : in.pool) {
    Matrix<float> ref(pl.len, kD);
    if (pl.kind == Kind::Pattern) {
      AttentionOptions oc = o;
      oc.causal = true;
      composed_attention(pl.data->q, pl.data->k, pl.data->v,
                         make_longformer(pl.len, kReach, kGlobals), ref, oc);
    } else {
      csr_attention(pl.data->q, pl.data->k, pl.data->v, *pl.mask, ref, o);
    }
    refs.push_back(std::move(ref));
  }
  return refs;
}

/// Bitwise output check of sampled responses, spread over every phase
/// of every pass: a phase's first OK response in each of its
/// kChecksPerPhase time slots is compared with its payload's reference.
struct Checker {
  const Inputs* in = nullptr;
  std::vector<Matrix<float>> refs;
  std::uint64_t checked = 0;
  std::vector<std::string> mismatches;

  void offer(Slots& slots, TimePoint at, std::uint32_t payload, const sv::Response& r) {
    if (r.status != sv::ResponseStatus::Ok || !slots.claim(at)) return;
    const Matrix<float>& ref = refs[payload];
    const bool same = r.output.same_shape(ref) &&
                      std::memcmp(r.output.data(), ref.data(), ref.size_bytes()) == 0;
    ++checked;
    if (!same) {
      const Payload& pl = in->pool[payload];
      mismatches.push_back(std::string("oneshot output differs from the serial kernel (") +
                           family_of(pl.kind) + ", L=" + std::to_string(pl.len) + ")");
    }
  }
};

/// Spans for one request: the client op from `start` (its due time in
/// the open loop) to `ready`, the submit call, and the queue wait and
/// batch execution the server reports in the Response.
void record_request_spans(TimePoint start, TimePoint s0, TimePoint s1, TimePoint ready,
                          const sv::Response& r) {
  if (!span::enabled()) return;
  const std::uint64_t req = r.id;
  const std::uint64_t root = span::record("client.request", start, ready, 0, req);
  span::record("serve.submit", s0, s1, root, req);
  // The server's intervals are placed after the submit call and clipped
  // to the request, so children never overlap or outlive their parent.
  const auto q_end = std::min(
      ready, s1 + std::chrono::nanoseconds(static_cast<std::int64_t>(r.queue_us * 1e3)));
  const auto b_end = std::min(
      ready, q_end + std::chrono::nanoseconds(static_cast<std::int64_t>(r.service_us * 1e3)));
  span::record("serve.queue", s1, q_end, root, req);
  span::record("core.batch", q_end, b_end, root, req);
}

struct PhaseA {
  std::vector<Done> done;
  std::vector<double> late_ms;
  double cpu_s = 0.0;         ///< process CPU time over the phase
  TimePoint start{}, end{};  ///< the schedule's span
};

/// Open loop: one thread sends on schedule and collects replies between
/// sends (timer slack lowered so the sends run on time).
PhaseA run_phase_a(sv::Server& server, const Inputs& in, Checker& check) {
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  const double period_ns = 1e9 / kOpenLoopRate;
  struct Pending {
    std::uint32_t payload;
    TimePoint due, s0, s1;
    std::future<sv::Response> fut;
  };
  PhaseA out;
  out.done.reserve(in.schedule_a.size());
  out.late_ms.reserve(in.schedule_a.size());
  std::vector<Pending> pending;
  const TimePoint start = Clock::now() + std::chrono::milliseconds(1);
  out.start = start;
  out.end = start + std::chrono::nanoseconds(
                        static_cast<std::int64_t>(period_ns * in.schedule_a.size()));
  Slots slots(out.start, out.end, kChecksPerPhase);
  const double cpu0 = cpu_seconds();
  std::size_t next = 0;
  auto due_of = [&](std::size_t i) {
    return start + std::chrono::nanoseconds(static_cast<std::int64_t>(period_ns * i));
  };
  while (next < in.schedule_a.size() || !pending.empty()) {
    const TimePoint now = Clock::now();
    for (std::size_t i = 0; i < pending.size();) {
      if (pending[i].fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        const sv::Response r = pending[i].fut.get();
        out.done.push_back(make_done(now, ms_between(pending[i].due, ready_at(pending[i].s1, r)),
                                     pending[i].s0, pending[i].s1, r));
        record_request_spans(pending[i].due, pending[i].s0, pending[i].s1, now, r);
        check.offer(slots, now, pending[i].payload, r);
        pending[i] = std::move(pending.back());
        pending.pop_back();
      } else {
        ++i;
      }
    }
    while (next < in.schedule_a.size() && due_of(next) <= Clock::now()) {
      const std::uint32_t p = in.schedule_a[next];
      const TimePoint due = due_of(next);
      const TimePoint s0 = Clock::now();
      auto fut = server.submit(make_req(in.pool[p], in));
      const TimePoint s1 = Clock::now();
      out.late_ms.push_back(ms_between(due, s0));
      pending.push_back(Pending{p, due, s0, s1, std::move(fut)});
      ++next;
    }
    // Sleep until the next send is due or a reply arrives. Latency comes
    // from the server's stamps (ready_at), so a reply seen late costs
    // nothing but the check's time slot.
    if (next < in.schedule_a.size()) {
      if (pending.empty()) {
        std::this_thread::sleep_until(due_of(next));
      } else {
        pending.front().fut.wait_until(due_of(next));
      }
    } else if (!pending.empty()) {
      pending.front().fut.wait();
    }
  }
  out.cpu_s = cpu_seconds() - cpu0;
  return out;
}

struct PhaseB {
  std::vector<Done> done;
  double seconds = 0.0;
  double cpu_s = 0.0;  ///< process CPU time over the phase
  TimePoint start{}, stop{};
};

/// Closed loop from one client thread that keeps kInFlight requests
/// outstanding: each reply it sees is followed by the next request, so
/// the server's queue never runs dry and phase B measures the server's
/// throughput rather than its clients' wake-ups.
PhaseB run_phase_b(sv::Server& server, const Inputs& in, Checker& check, double seconds) {
  struct Pending {
    std::uint32_t payload;
    TimePoint s0, s1;
    std::future<sv::Response> fut;
  };
  PhaseB out;
  out.start = Clock::now();
  out.stop = out.start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds));
  Slots slots(out.start, out.stop, kChecksPerPhase);
  const double cpu0 = cpu_seconds();
  std::deque<Pending> pending;
  std::size_t next = 0;
  auto send = [&] {
    const std::uint32_t p = in.schedule_b[next++ % in.schedule_b.size()];
    const TimePoint s0 = Clock::now();
    auto fut = server.submit(make_req(in.pool[p], in));
    pending.push_back(Pending{p, s0, Clock::now(), std::move(fut)});
  };
  while (pending.size() < kInFlight) send();
  while (!pending.empty()) {
    pending.front().fut.wait();
    const TimePoint now = Clock::now();
    for (auto it = pending.begin(); it != pending.end();) {
      if (it->fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++it;
        continue;
      }
      const sv::Response r = it->fut.get();
      out.done.push_back(make_done(now, ms_between(it->s0, ready_at(it->s1, r)), it->s0,
                                   it->s1, r));
      record_request_spans(it->s0, it->s0, it->s1, now, r);
      check.offer(slots, now, it->payload, r);
      it = pending.erase(it);
    }
    while (now < out.stop && pending.size() < kInFlight) send();
  }
  out.cpu_s = cpu_seconds() - cpu0;
  out.seconds = std::chrono::duration<double>(Clock::now() - out.start).count();
  return out;
}

struct Setup {
  Inputs in;
  std::unique_ptr<sv::Server> server;
};

Setup set_up(const RunConfig& cfg, double seconds_a) {
  Setup s;
  s.in = make_inputs(cfg.seed, seconds_a);
  s.server = std::make_unique<sv::Server>(server_config());
  // Warm-up: every payload once, all in flight together.
  std::vector<std::future<sv::Response>> futs;
  for (const Payload& p : s.in.pool) futs.push_back(s.server->submit(make_req(p, s.in)));
  for (auto& f : futs) f.get();
  return s;
}

struct PassResult {
  PhaseA a;
  PhaseB b;
};

/// Request latencies; a failed or rejected request counts as missing
/// every percentile (+inf).
std::vector<double> latencies(const std::vector<Done>& v) {
  std::vector<double> out;
  out.reserve(v.size());
  for (const Done& d : v) {
    out.push_back(d.s.status == sv::ResponseStatus::Ok ? d.latency_ms : 1e300);
  }
  return out;
}

}  // namespace

Report run_oneshot(const RunConfig& cfg) {
  Report rep;
  const double pass_s = cfg.trace ? cfg.seconds / 2.0 : cfg.seconds;
  const double seconds_a = pass_s / 2.0, seconds_b = pass_s / 2.0;

  Setup s = timed_setup<Setup>(rep, cfg, [&] { return set_up(cfg, seconds_a); });
  Checker check;
  check.in = &s.in;
  check.refs = reference_outputs(s.in);
  const auto passes = run_passes<PassResult>(cfg, [&] {
    PassResult r;
    r.a = run_phase_a(*s.server, s.in, check);
    r.b = run_phase_b(*s.server, s.in, check, seconds_b);
    return r;
  });
  const PassResult& res = passes.measured;
  s.server->shutdown();

  std::vector<Done> all = res.a.done;
  all.insert(all.end(), res.b.done.begin(), res.b.done.end());
  rep.attempted = all.size();
  std::vector<ServeSample> serve;
  for (const Done& d : all) {
    serve.push_back(d.s);
    if (d.s.status != sv::ResponseStatus::Ok) ++rep.failed;
  }

  const std::vector<double> lat_a = latencies(res.a.done);
  const std::vector<double> lat_b = latencies(res.b.done);
  rep.set_q("req_p50_ms", lat_a, 0.50, "ms");
  rep.set_q("req_p99_ms", lat_a, 0.99, "ms");
  std::uint64_t ok_b = 0;
  for (const Done& d : res.b.done) {
    if (d.s.status == sv::ResponseStatus::Ok && d.at < res.b.stop) ++ok_b;
  }
  const double seconds_ok = std::chrono::duration<double>(res.b.stop - res.b.start).count();
  rep.set("req_rps", static_cast<double>(ok_b) / seconds_ok, "1/s", ok_b);
  rep.set_q("closed_p50_ms", lat_b, 0.50, "ms");
  rep.set_q("closed_p99_ms", lat_b, 0.99, "ms");
  rep.set("open_request_cpu_ms", res.a.cpu_s * 1e3 / static_cast<double>(res.a.done.size()),
          "ms", res.a.done.size());
  rep.set("closed_request_cpu_us", res.b.cpu_s * 1e6 / static_cast<double>(res.b.done.size()),
          "us", res.b.done.size());
  rep.set_q("loadgen.late_p99_ms", res.a.late_ms, 0.99, "ms");

  if (cfg.trace) {
    report_serve(rep, serve);
    const PhaseB& ub = passes.untraced.b;
    const double untraced_rate = static_cast<double>(ub.done.size()) / ub.seconds;
    const double traced_rate = static_cast<double>(res.b.done.size()) / res.b.seconds;
    finish_trace(rep, cfg, untraced_rate, traced_rate);

    std::vector<KernelCase> cases;
    for (const Payload& p : s.in.pool) {
      KernelCase c;
      c.family = family_of(p.kind);
      c.len = p.len;
      if (p.kind == Kind::Pattern) {
        auto lf = std::make_shared<ComposedMask>(make_longformer(p.len, kReach, kGlobals));
        for (Index i = 0; i < p.len; ++i) {
          s.in.pattern->for_each_causal(i, [&](Index, float) { ++c.edges; });
        }
        c.call = [lf, d = p.data](const ExecPolicy& pol) {
          AttentionOptions o;
          o.policy = pol;
          o.causal = true;
          Matrix<float> out(d->q.rows(), d->q.cols());
          composed_attention(d->q, d->k, d->v, *lf, out, o);
        };
      } else {
        c.edges = p.mask->nnz();
        c.call = [m = p.mask, d = p.data](const ExecPolicy& pol) {
          AttentionOptions o;
          o.policy = pol;
          Matrix<float> out(d->q.rows(), d->q.cols());
          csr_attention(d->q, d->k, d->v, *m, out, o);
        };
      }
      cases.push_back(std::move(c));
    }
    measure_core(rep, cases, cfg.nproc);
  }

  rep.set("checked_outputs", static_cast<double>(check.checked), "count", check.checked);
  for (const std::string& m : check.mismatches) rep.fail_check(m);
  return rep;
}

}  // namespace gb
