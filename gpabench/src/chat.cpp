// chat_shared_prefix: 32 concurrent conversations in a closed loop.
//
// Each conversation creates a session under a longformer local∘global
// MaskSpec (reach 32, 4 globals), prefills a 2048-token prompt whose
// first 1536 tokens are a system prefix shared by every conversation,
// decodes 128 tokens one at a time as Decode requests through a Server
// that holds the SessionManager, and releases its session; a new
// conversation takes its place. One driver thread runs every
// conversation (see Driver), so the load adds one thread to the
// server's three workers. The pool holds the live sessions plus
// headroom, so released prompts linger as orphan cache pages and are
// reclaimed under pressure while no live session is evicted.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <string_view>

#include "common/rng.hpp"
#include "core/composed.hpp"
#include "kvcache/session_manager.hpp"
#include "serve/server.hpp"
#include "sparse/presets.hpp"
#include "tensor/tensor_ops.hpp"
#include "workloads.hpp"

namespace gb {
namespace {

using namespace gpa;
namespace sv = gpa::serve;

constexpr int kConversations = 32;
constexpr Index kPrefix = 1536, kPrompt = 2048, kDecode = 128;
constexpr Index kTail = kPrompt - kPrefix;
constexpr Index kReach = 32, kGlobals = 4;
constexpr Index kPageSize = 16;
constexpr int kPoolEntries = 16;  // distinct tails; a per-conversation salt keeps each unique
constexpr std::uint64_t kFirstSession = 1000;
constexpr int kChecksPerPass = 24;  // conversations checked per pass, one per time slot

/// Pages: the shared prefix once, each live conversation's own tail and
/// decode pages, plus headroom for orphaned prompt pages.
constexpr Index kPrefixPages = kPrefix / kPageSize;
constexpr Index kOwnPages = (kTail + kDecode) / kPageSize;
constexpr Index kPoolPages = kPrefixPages + kConversations * kOwnPages + 512;

struct Entry {
  Matrix<float> q, k, v;     ///< kTail prompt rows after the prefix
  Matrix<float> dq, dk, dv;  ///< kDecode decode-token rows
};

struct Inputs {
  Matrix<float> pq, pk, pv;  ///< the shared prefix
  std::vector<Entry> pool;
};

Inputs make_inputs(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 23);
  Inputs in;
  auto fill = [&](Matrix<float>& m, Index rows) {
    m = Matrix<float>(rows, kD);
    fill_uniform(m, rng);
  };
  fill(in.pq, kPrefix);
  fill(in.pk, kPrefix);
  fill(in.pv, kPrefix);
  in.pool.resize(kPoolEntries);
  for (Entry& e : in.pool) {
    fill(e.q, kTail);
    fill(e.k, kTail);
    fill(e.v, kTail);
    fill(e.dq, kDecode);
    fill(e.dk, kDecode);
    fill(e.dv, kDecode);
  }
  return in;
}

/// A conversation's 2048-row prompt: shared prefix, then its pool tail
/// with one K element per page salted by the conversation id so no two
/// conversations share a tail page.
struct Prompt {
  Matrix<float> q{kPrompt, kD}, k{kPrompt, kD}, v{kPrompt, kD};
  explicit Prompt(const Inputs& in) {
    std::memcpy(q.data(), in.pq.data(), in.pq.size_bytes());
    std::memcpy(k.data(), in.pk.data(), in.pk.size_bytes());
    std::memcpy(v.data(), in.pv.data(), in.pv.size_bytes());
  }
  void load(const Entry& e, std::uint64_t conv) {
    std::memcpy(q.row(kPrefix), e.q.data(), e.q.size_bytes());
    std::memcpy(k.row(kPrefix), e.k.data(), e.k.size_bytes());
    std::memcpy(v.row(kPrefix), e.v.data(), e.v.size_bytes());
    for (Index r = kPrefix; r < kPrompt; r += kPageSize) {
      k(r, 0) = static_cast<float>(conv) * 0x1p-20f;
    }
  }
};

kvcache::MaskSpec session_mask() {
  return kvcache::MaskSpec::compose(make_longformer(kPrompt + kDecode, kReach, kGlobals));
}

struct Conversation {
  TimePoint start{};
  double prefill_ms = 0.0;
  std::vector<TimePoint> token_at;  ///< when each decoded token arrived
  bool failed = false;
};

/// Digest of a block of output rows: the check compares digests, so a
/// kept conversation holds two words instead of its 544 KB of outputs
/// and peak memory does not grow with the conversations kept.
std::size_t digest(const float* rows, Index n) {
  return std::hash<std::string_view>{}(std::string_view(
      reinterpret_cast<const char*>(rows), static_cast<std::size_t>(n * kD) * sizeof(float)));
}

/// A conversation kept for the bitwise check.
struct Kept {
  std::uint64_t conv = 0;
  std::size_t prefill = 0;  ///< digest of its kPrompt prefill rows
  std::size_t decode = 0;   ///< digest of its kDecode decoded rows
};

/// One conversation slot of the driver's table.
struct Live {
  bool active = false;
  std::uint64_t conv = 0;
  const Entry* entry = nullptr;
  Conversation cv;
  Matrix<float> prefill_out;
  Matrix<float> decode_out{kDecode, kD};
  std::uint64_t root = 0;  ///< conversation span id; 0 when untraced
  Index t = 0;             ///< next token to decode
  TimePoint s0{}, s1{};    ///< around the pending request's submit
  std::future<sv::Response> fut;
};

/// Drives every conversation from one thread, in rounds: conversations
/// that are due start (create + serial prefill on this thread), then
/// each live conversation submits its next Decode request, then the
/// driver waits for every reply. A conversation thus sends its next
/// token only after the previous one arrived (closed loop), the server
/// sees all live sessions' decodes at once, and the benchmark adds one
/// thread to the server's workers.
struct Driver {
  const Inputs* in = nullptr;
  sv::Server* server = nullptr;
  kvcache::MaskSpec spec = session_mask();
  Slots* checks = nullptr;  ///< picks the conversations kept for the check
  std::uint64_t next_conv = kFirstSession;
  Index pages_peak = 0;
  std::uint64_t decode_requests = 0;
  std::uint64_t decode_failures = 0;
  std::uint64_t prefill_failures = 0;
  std::uint64_t starts = 0;
  double start_cpu_s = 0.0;   ///< process CPU time inside start()
  double decode_cpu_s = 0.0;  ///< process CPU time of the decode rounds
  std::vector<Conversation> convs;
  std::vector<ServeSample> decodes;  ///< traced pass only
  std::vector<Kept> kept;
  std::unique_ptr<Prompt> prompt;

  /// Creates and prefills the slot's next conversation; false (and the
  /// conversation recorded as failed) when that throws.
  bool start(Live& l) {
    kvcache::SessionManager& sm = *server->sessions();
    if (!prompt) prompt = std::make_unique<Prompt>(*in);
    l = Live{};
    l.conv = next_conv++;
    l.entry = &in->pool[l.conv % kPoolEntries];
    prompt->load(*l.entry, l.conv);
    l.cv.token_at.reserve(kDecode);
    l.root = span::enabled() && l.conv % 4 == 0 ? span::new_id() : 0;
    const TimePoint t0 = Clock::now();
    l.cv.start = t0;
    TimePoint t1 = t0;
    try {
      sm.create(l.conv, spec);
      t1 = Clock::now();
      sm.prefill(l.conv, prompt->q, prompt->k, prompt->v, l.prefill_out);
    } catch (const std::exception&) {
      ++prefill_failures;
      sm.release(l.conv);
      l.cv.failed = true;
      convs.push_back(std::move(l.cv));
      return false;
    }
    const TimePoint t2 = Clock::now();
    l.cv.prefill_ms = ms_between(t1, t2);
    if (l.root != 0) {
      span::record("kvcache.create", t0, t1, l.root, l.conv);
      span::record("kvcache.prefill", t1, t2, l.root, l.conv);
    }
    if (span::enabled()) pages_peak = std::max(pages_peak, sm.stats().pages_in_use);
    l.active = true;
    return true;
  }

  void submit(Live& l) {
    const Entry& e = *l.entry;
    Matrix<float> qr(1, kD), kr(1, kD), vr(1, kD);
    std::memcpy(qr.data(), e.dq.row(l.t), kD * sizeof(float));
    std::memcpy(kr.data(), e.dk.row(l.t), kD * sizeof(float));
    std::memcpy(vr.data(), e.dv.row(l.t), kD * sizeof(float));
    l.s0 = Clock::now();
    l.fut = server->submit(
        sv::make_decode_request(l.conv, std::move(qr), std::move(kr), std::move(vr)));
    l.s1 = Clock::now();
  }

  /// Waits for the slot's reply; false when the conversation failed.
  bool collect(Live& l) {
    const sv::Response r = l.fut.get();
    const TimePoint s2 = Clock::now();
    ++decode_requests;
    if (span::enabled()) {
      decodes.push_back(
          ServeSample{r.queue_us, r.service_us, us_between(l.s0, l.s1), r.batch_size, r.status});
    }
    if (r.status != sv::ResponseStatus::Ok) {
      ++decode_failures;
      l.cv.failed = true;
      return false;
    }
    if (l.root != 0) {
      const std::uint64_t tok = span::record("serve.decode", l.s0, s2, l.root, l.conv);
      span::record("serve.submit", l.s0, l.s1, tok, l.conv);
      // Server-reported intervals, placed after submit, clipped to the token.
      const auto q_end = std::min(
          s2, l.s1 + std::chrono::nanoseconds(static_cast<std::int64_t>(r.queue_us * 1e3)));
      const auto b_end = std::min(
          s2, q_end + std::chrono::nanoseconds(static_cast<std::int64_t>(r.service_us * 1e3)));
      span::record("serve.queue", l.s1, q_end, tok, l.conv);
      span::record("kvcache.decode_batch", q_end, b_end, tok, l.conv);
    }
    l.cv.token_at.push_back(s2);
    std::memcpy(l.decode_out.row(l.t), r.output.data(), kD * sizeof(float));
    ++l.t;
    return true;
  }

  /// Releases the slot's session and records the conversation.
  void finish(Live& l) {
    const TimePoint r0 = Clock::now();
    server->sessions()->release(l.conv);
    const TimePoint r1 = Clock::now();
    if (l.root != 0) {
      span::record("kvcache.release", r0, r1, l.root, l.conv);
      span::record("client.conversation", l.cv.start, r1, 0, l.conv, l.root);
    }
    const bool complete = !l.cv.failed && l.t == kDecode;
    convs.push_back(std::move(l.cv));
    if (complete && checks != nullptr && checks->claim(r1)) {
      // A prefill of the wrong shape keeps digest 0 and fails the check.
      const bool shaped = l.prefill_out.rows() == kPrompt && l.prefill_out.cols() == kD;
      kept.push_back(Kept{l.conv, shaped ? digest(l.prefill_out.data(), kPrompt) : 0,
                          digest(l.decode_out.data(), kDecode)});
    }
    l.active = false;
  }

  /// Runs `slots` conversation slots in rounds until `stop`, or until
  /// `max_convs` conversations have finished. Slot i opens at round
  /// i * kDecode / slots, so conversations end (and new prompts prefill)
  /// spread over the rounds instead of all at once.
  void drive(int slots, TimePoint stop, std::size_t max_convs) {
    std::vector<Live> live(static_cast<std::size_t>(slots));
    // All replies are in when a round's conversations start, so the
    // server is idle and the process CPU time around start() is the
    // prefill's own.
    for (Index round = 0; Clock::now() < stop && convs.size() < max_convs; ++round) {
      for (int i = 0; i < slots; ++i) {
        Live& l = live[static_cast<std::size_t>(i)];
        if (l.active || round < i * kDecode / slots) continue;
        const double c0 = cpu_seconds();
        start(l);
        start_cpu_s += cpu_seconds() - c0;
        ++starts;
      }
      const double c0 = cpu_seconds();
      for (Live& l : live) {
        if (l.active) submit(l);
      }
      for (Live& l : live) {
        if (!l.active) continue;
        if (!collect(l) || l.t == kDecode) finish(l);
      }
      decode_cpu_s += cpu_seconds() - c0;
    }
    for (Live& l : live) {
      if (l.active) finish(l);
    }
  }
};

struct Setup {
  Inputs in;
  std::unique_ptr<sv::Server> server;
};

Setup set_up(std::uint64_t seed) {
  Setup s;
  s.in = make_inputs(seed);
  kvcache::SessionManager::Config mc;
  mc.pool.page_size = kPageSize;
  mc.pool.head_dim = kD;
  mc.pool.num_pages = kPoolPages;
  // Prefill runs serially on the driver thread, beside the server's
  // workers.
  mc.opts.policy = ExecPolicy::serial();
  sv::ServerConfig sc;
  sc.workers = 3;
  sc.sessions = std::make_shared<kvcache::SessionManager>(mc);
  s.server = std::make_unique<sv::Server>(sc);
  // Warm-up: one full conversation publishes the shared prefix.
  Driver d;
  d.in = &s.in;
  d.server = s.server.get();
  d.next_conv = 1;
  d.drive(1, TimePoint::max(), 1);
  return s;
}

struct Pass {
  std::vector<Conversation> convs;
  std::vector<ServeSample> decodes;
  std::vector<Kept> kept;
  std::uint64_t decode_requests = 0;
  std::uint64_t decode_failures = 0;
  std::uint64_t prefill_failures = 0;
  double seconds = 0.0;
  TimePoint measure_from{}, stop{};  ///< after the ramp-up, until the deadline
  Index pages_peak = 0;
  std::uint64_t first_conv = 0;
  std::uint64_t starts = 0;
  double start_cpu_s = 0.0, decode_cpu_s = 0.0;
};

Pass run_pass(Setup& s, double seconds, std::uint64_t first_conv) {
  Driver d;
  d.in = &s.in;
  d.server = s.server.get();
  d.next_conv = first_conv;
  const TimePoint start = Clock::now();
  const TimePoint stop = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(seconds));
  Slots checks(start, stop, kChecksPerPass);
  d.checks = &checks;
  d.drive(kConversations, stop, SIZE_MAX);
  Pass p;
  p.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  // Conversations open one by one over the first kDecode rounds; the
  // first tenth of the pass is not measured.
  p.measure_from = start + (stop - start) / 10;
  p.stop = stop;
  p.convs = std::move(d.convs);
  p.decodes = std::move(d.decodes);
  p.decode_requests = d.decode_requests;
  p.decode_failures = d.decode_failures;
  p.prefill_failures = d.prefill_failures;
  p.kept = std::move(d.kept);
  p.pages_peak = d.pages_peak;
  p.first_conv = d.next_conv;
  p.starts = d.starts;
  p.start_cpu_s = d.start_cpu_s;
  p.decode_cpu_s = d.decode_cpu_s;
  return p;
}

/// Decode ≡ one-shot: the kept conversations' prefill and decoded rows
/// must equal one causal composed kernel call over prompt + generated
/// tokens, bit for bit.
void check_outputs(Report& rep, const Inputs& in, const std::vector<Kept>& kept) {
  const Index n = kPrompt + kDecode;
  const ComposedMask lf = make_longformer(n, kReach, kGlobals);
  AttentionOptions o;
  o.policy = ExecPolicy::serial();
  o.causal = true;
  Prompt prompt(in);
  for (const Kept& k : kept) {
    const Entry& e = in.pool[k.conv % kPoolEntries];
    prompt.load(e, k.conv);
    Matrix<float> q(n, kD), kk(n, kD), v(n, kD), ref(n, kD);
    auto stack = [&](Matrix<float>& dst, const Matrix<float>& top, const Matrix<float>& bottom) {
      std::memcpy(dst.data(), top.data(), top.size_bytes());
      std::memcpy(dst.row(kPrompt), bottom.data(), bottom.size_bytes());
    };
    stack(q, prompt.q, e.dq);
    stack(kk, prompt.k, e.dk);
    stack(v, prompt.v, e.dv);
    composed_attention(q, kk, v, lf, ref, o);
    if (k.prefill != digest(ref.data(), kPrompt) || k.decode != digest(ref.row(kPrompt), kDecode)) {
      rep.fail_check("conversation " + std::to_string(k.conv) +
                     " differs from the one-shot composed kernel");
    }
  }
}

}  // namespace

Report run_chat(const RunConfig& cfg) {
  Report rep;
  const double pass_s = cfg.trace ? cfg.seconds / 2.0 : cfg.seconds;

  Setup s = timed_setup<Setup>(rep, cfg, [&] { return set_up(cfg.seed); });
  std::uint64_t next_conv = kFirstSession;
  const auto passes = run_passes<Pass>(cfg, [&] {
    Pass p = run_pass(s, pass_s, next_conv);
    next_conv = p.first_conv;
    return p;
  });
  const Pass& pass = passes.measured;

  // Conversations that started after the ramp-up give the latencies;
  // tokens that arrived after it give the rate.
  std::vector<double> ttft, tpot, prefill;
  std::uint64_t tokens = 0;
  for (const Conversation& c : pass.convs) {
    for (const TimePoint at : c.token_at) {
      if (at >= pass.measure_from && at < pass.stop) ++tokens;
    }
    if (c.start < pass.measure_from) continue;
    if (c.failed) {
      // A failed conversation misses every latency percentile.
      ttft.push_back(1e300);
      tpot.push_back(1e300);
    }
    if (c.token_at.empty()) continue;
    ttft.push_back(ms_between(c.start, c.token_at[0]));
    for (std::size_t i = 1; i < c.token_at.size(); ++i) {
      tpot.push_back(ms_between(c.token_at[i - 1], c.token_at[i]));
    }
    prefill.push_back(c.prefill_ms);
  }
  rep.attempted = pass.decode_requests + pass.convs.size();
  rep.failed = pass.decode_failures + pass.prefill_failures;
  rep.set_q("ttft_p50_ms", ttft, 0.50, "ms");
  rep.set_q("ttft_p99_ms", ttft, 0.99, "ms");
  rep.set_q("tpot_p50_ms", tpot, 0.50, "ms");
  rep.set_q("tpot_p90_ms", tpot, 0.90, "ms");
  rep.set_q("tpot_p99_ms", tpot, 0.99, "ms");
  rep.set("prefill_cpu_ms", pass.start_cpu_s * 1e3 / static_cast<double>(pass.starts), "ms",
          pass.starts);
  rep.set("token_cpu_us", pass.decode_cpu_s * 1e6 / static_cast<double>(pass.decode_requests),
          "us", pass.decode_requests);
  rep.set("tokens_per_s",
          static_cast<double>(tokens) /
              std::chrono::duration<double>(pass.stop - pass.measure_from).count(),
          "1/s", tokens);

  if (cfg.trace) {
    report_serve(rep, pass.decodes);
    report_kvcache(rep, passes.before, passes.after, prefill, pass.pages_peak, pass.convs.size(),
                   kPoolPages);
    const Pass& untraced = passes.untraced;
    finish_trace(rep, cfg, static_cast<double>(untraced.decode_requests) / untraced.seconds,
                 static_cast<double>(pass.decode_requests) / pass.seconds);

    // Direct decode_step on a side session, outside the server.
    Prompt prompt(s.in);
    const Entry& e = s.in.pool[0];
    const std::uint64_t side = 1ull << 60;
    prompt.load(e, side);
    time_side_decode(rep, *s.server->sessions(), side, session_mask(), prompt.q, prompt.k,
                     prompt.v, e.dq, e.dk, e.dv);

    // Core: the prefill-shaped composed kernel on a conversation prompt.
    KernelCase kc;
    kc.family = "lf";
    kc.len = kPrompt;
    const kvcache::MaskSpec spec = session_mask();
    for (Index i = 0; i < kPrompt; ++i) spec.for_each_causal(i, [&](Index, float) { ++kc.edges; });
    auto lf = std::make_shared<ComposedMask>(make_longformer(kPrompt, kReach, kGlobals));
    kc.call = [lf, &prompt](const ExecPolicy& pol) {
      AttentionOptions o;
      o.policy = pol;
      o.causal = true;
      Matrix<float> o_out(kPrompt, kD);
      composed_attention(prompt.q, prompt.k, prompt.v, *lf, o_out, o);
    };
    measure_core(rep, {kc}, cfg.nproc);
  }
  s.server->shutdown();

  // Conversations of both passes are checked.
  std::uint64_t checked = 0;
  for (const Pass* p : {&passes.untraced, &passes.measured}) {
    check_outputs(rep, s.in, p->kept);
    checked += p->kept.size();
  }
  rep.set("checked_outputs", static_cast<double>(checked), "count", checked);
  return rep;
}

}  // namespace gb
