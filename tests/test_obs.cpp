// Observability-layer tests: metrics registry semantics (sharded
// counters under contention, the histogram layout and its tail summary,
// snapshot lookups and exposition), trace-ring behavior (wraparound
// accounting, Chrome JSON well-formedness, disabled-mode no-op), the
// span/ServerStats reconciliation over a real served workload, and the
// ServerStats torn-pair hammer the consistency contract in
// server_stats.hpp names (run under the CI TSan leg).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/serve.hpp"
#include "serve/server_stats.hpp"
#include "sparse/build.hpp"
#include "tensor/tensor_ops.hpp"

namespace gpa {
namespace {

namespace trace = obs::trace;
using namespace std::chrono_literals;

// --- registry semantics ---------------------------------------------

TEST(Registry, GetOrRegisterReturnsStableReferences) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("x.a");
  obs::Counter& b = reg.counter("x.a");
  EXPECT_EQ(&a, &b);
  a.inc();
  b.inc(4);
  EXPECT_EQ(a.value(), 5u);

  obs::Gauge& g = reg.gauge("x.g");
  g.set(7);
  g.add(-2);
  EXPECT_EQ(reg.gauge("x.g").value(), 5);

  obs::Histogram& h = reg.histogram("x.h");
  EXPECT_EQ(&h, &reg.histogram("x.h"));
}

TEST(Registry, ConcurrentIncrementsAreNotLost) {
  obs::Registry reg;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    // Get-or-register races with other threads on purpose.
    workers.emplace_back([&reg] {
      obs::Counter& c = reg.counter("contended");
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(reg.counter("contended").value(), kThreads * kPerThread);
}

TEST(Registry, SnapshotLookupsAndReset) {
  obs::Registry reg;
  reg.counter("b.count").inc(3);
  reg.counter("a.count").inc(1);
  reg.gauge("a.gauge").set(-4);
  reg.histogram("a.hist").observe(5.0);

  const obs::MetricsSnapshot s = reg.snapshot();
  // Name-ascending order (scrapers diff snapshots positionally).
  ASSERT_EQ(s.counters.size(), 2u);
  EXPECT_EQ(s.counters[0].name, "a.count");
  EXPECT_EQ(s.counters[1].name, "b.count");
  EXPECT_EQ(s.counter("b.count"), 3u);
  EXPECT_EQ(s.gauge("a.gauge"), -4);
  ASSERT_NE(s.histogram("a.hist"), nullptr);
  EXPECT_EQ(s.histogram("a.hist")->count, 1u);
  // Absent names read as untouched, not as errors.
  EXPECT_EQ(s.counter("nope"), 0u);
  EXPECT_EQ(s.gauge("nope"), 0);
  EXPECT_EQ(s.histogram("nope"), nullptr);

  reg.reset();
  EXPECT_EQ(reg.counter("b.count").value(), 0u);
  EXPECT_EQ(reg.histogram("a.hist").count(), 0u);
  EXPECT_EQ(reg.histogram("a.hist").max(), 0.0);
  // Registrations (and cached references) survive a reset.
  EXPECT_EQ(reg.snapshot().counters.size(), 2u);
}

TEST(Registry, TextAndJsonExposition) {
  obs::Registry reg;
  reg.counter("c.one").inc(2);
  reg.gauge("g.one").set(9);
  reg.histogram("h.one").observe(3.0);

  const obs::MetricsSnapshot s = reg.snapshot();
  const std::string text = s.to_text();
  EXPECT_NE(text.find("c.one 2"), std::string::npos);
  EXPECT_NE(text.find("g.one 9"), std::string::npos);
  // Only the used bucket and the overflow bucket are printed.
  EXPECT_NE(text.find("h.one_bucket{le=\"3.084"), std::string::npos) << text;
  EXPECT_NE(text.find("h.one_bucket{le=\"+Inf\"} 0"), std::string::npos) << text;
  EXPECT_EQ(text.find("h.one_bucket{le=\"4\"}"), std::string::npos) << text;
  EXPECT_NE(text.find("h.one_count 1"), std::string::npos) << text;

  const std::string json = s.to_json();
  EXPECT_NE(json.find("\"counters\":{\"c.one\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"gauges\":{\"g.one\":9"), std::string::npos) << json;
  EXPECT_NE(json.find("\"h.one\":{\"edges\":[0.0625,"), std::string::npos) << json;
}

// --- the histogram layout -------------------------------------------

/// Index of the one bucket whose count `v` raised.
std::size_t bucket_of(double v) {
  obs::Histogram h;
  h.observe(v);
  const std::vector<std::uint64_t> counts = h.counts();
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 1) return b;
  }
  return counts.size();
}

TEST(Histogram, LayoutIsSixteenLogLinearBucketsPerOctave) {
  const std::vector<double>& e = obs::histogram_edges();
  ASSERT_EQ(e.size(), obs::kHistogramEdges);
  EXPECT_EQ(e.front(), std::exp2(-4.0));
  EXPECT_EQ(e.back(), std::exp2(30.0));
  EXPECT_EQ(e[64], 1.0);  // every power of two is an edge
  const double step = std::exp2(1.0 / 16.0);
  for (std::size_t b = 1; b < e.size(); ++b) {
    ASSERT_GT(e[b], e[b - 1]) << b;
    // A bucket's upper edge is at most 2^(1/16) × its lower edge (each
    // edge is exp2 rounded once, so allow that one rounding step).
    ASSERT_LE(e[b], std::nextafter(e[b - 1] * step, HUGE_VAL)) << b;
  }
  obs::Histogram h;
  EXPECT_EQ(h.counts().size(), obs::kHistogramEdges + 1);  // + overflow
}

TEST(Histogram, BucketEdgesAreInclusiveUpperBounds) {
  const std::vector<double>& e = obs::histogram_edges();
  EXPECT_EQ(bucket_of(1.0), 64u);
  EXPECT_EQ(bucket_of(std::nextafter(1.0, 2.0)), 65u);
  EXPECT_EQ(bucket_of(e[65]), 65u);
  EXPECT_EQ(bucket_of(std::nextafter(e[64], 0.0)), 64u);
  // Values at or below 2^-4 land in bucket 0.
  for (const double v : {std::exp2(-4.0), 0.01, 0.0, -3.0}) EXPECT_EQ(bucket_of(v), 0u) << v;
  // 2^30 is the last edge; anything above it is overflow.
  EXPECT_EQ(bucket_of(std::exp2(30.0)), obs::kHistogramEdges - 1);
  for (const double v : {std::nextafter(std::exp2(30.0), 1e300), 1e12}) {
    EXPECT_EQ(bucket_of(v), obs::kHistogramEdges) << v;
  }

  obs::Histogram h;
  for (const double v : {0.5, 1.0, 1.5, 4.1}) h.observe(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 4.1);
  EXPECT_EQ(h.max(), 4.1);
}

TEST(Histogram, TailIsTheBucketUpperEdgeCappedAtTheExactMax) {
  obs::Histogram empty;
  const obs::TailStats none = empty.tail();
  EXPECT_EQ(none.samples, 0u);
  EXPECT_EQ(none.p50, 0.0);
  EXPECT_EQ(none.max, 0.0);

  // 3.0 sits inside a bucket whose upper edge is 2^(26/16) ≈ 3.08: every
  // quantile is capped at the exact max, 3.
  obs::Histogram same;
  for (int i = 0; i < 100; ++i) same.observe(3.0);
  const obs::TailStats t = same.tail();
  EXPECT_EQ(t.samples, 100u);
  EXPECT_EQ(t.p50, 3.0);
  EXPECT_EQ(t.p99, 3.0);
  EXPECT_EQ(t.max, 3.0);

  // 98 fast, 1 slow, 1 slowest: p50 and p95 read the fast bucket's
  // upper edge; p99 (rank 99) reads the slow sample's bucket edge, below
  // the max; a rank in the max's own bucket is capped at the max.
  obs::Histogram mixed;
  for (int i = 0; i < 98; ++i) mixed.observe(3.0);
  mixed.observe(700.0);
  mixed.observe(800.0);
  const obs::TailStats m = mixed.tail();
  const double fast_edge = obs::histogram_edges()[64 + 26];
  EXPECT_EQ(m.p50, fast_edge);
  EXPECT_EQ(m.p95, fast_edge);
  EXPECT_GT(m.p99, 700.0);
  EXPECT_LE(m.p99, 700.0 * std::exp2(1.0 / 16.0));
  EXPECT_EQ(m.max, 800.0);
  mixed.observe(800.0);
  EXPECT_EQ(mixed.tail().p99, 800.0);  // rank 100 of 101: the 800 bucket, capped

  // Past the last edge a rank lands in the overflow bucket: the max.
  obs::Histogram over;
  over.observe(std::exp2(31.0));
  EXPECT_EQ(over.tail().p50, std::exp2(31.0));
}

// --- trace ring ------------------------------------------------------

/// The trace ring is process-global state; every suite that touches it
/// restores "disabled, default capacity, empty" so suites compose in
/// one binary regardless of order.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::set_enabled(false);
    trace::reset();
    trace::configure_capacity(1u << 16);
  }
  void TearDown() override {
    trace::set_enabled(false);
    trace::reset();
    trace::configure_capacity(1u << 16);
  }
};

TEST_F(TraceTest, DisabledModeEmitsNothing) {
  ASSERT_FALSE(trace::enabled());
  {
    trace::Span s("noop", "test");
    trace::emit_complete("noop", "test", 0, 1);
    trace::emit_async("noop", "test", 'b', 1);
    trace::emit_instant("noop", "test");
  }
  EXPECT_EQ(trace::emitted(), 0u);
  EXPECT_EQ(trace::dropped(), 0u);
  EXPECT_TRUE(trace::drain_snapshot().empty());
}

TEST_F(TraceTest, WraparoundKeepsMostRecentAndCountsDrops) {
  trace::configure_capacity(8);
  EXPECT_EQ(trace::capacity(), 8u);
  trace::set_enabled(true);
  // Encode the emission index in ts_us so the survivors identify
  // themselves.
  for (std::int64_t i = 0; i < 20; ++i) trace::emit_complete("e", "test", i, 0);
  trace::set_enabled(false);

  EXPECT_EQ(trace::emitted(), 20u);
  EXPECT_EQ(trace::dropped(), 12u);
  const std::vector<trace::Event> events = trace::drain_snapshot();
  ASSERT_EQ(events.size(), 8u);
  // Oldest-first claim order of the surviving (most recent) window.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts_us, static_cast<std::int64_t>(12 + i));
  }

  // Resizing is only legal while disabled.
  trace::set_enabled(true);
  EXPECT_THROW(trace::configure_capacity(16), InvalidArgument);
  trace::set_enabled(false);
  EXPECT_THROW(trace::configure_capacity(0), InvalidArgument);
}

TEST_F(TraceTest, SpanCapturesDurationAndThread) {
  trace::set_enabled(true);
  {
    trace::Span s("outer", "test");
    std::this_thread::sleep_for(2ms);
  }
  trace::set_enabled(false);
  const auto events = trace::drain_snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_EQ(events[0].ph, 'X');
  EXPECT_GE(events[0].dur_us, 1'000);
  EXPECT_EQ(events[0].tid, trace::this_thread_id());
}

/// Minimal structural JSON check: balanced {} / [] outside string
/// literals, legal escapes, and no trailing garbage. Not a full parser,
/// but it catches the classic emitter bugs (unescaped quote, missing
/// comma-vs-brace confusion, truncated tail).
void expect_balanced_json(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ASSERT_LT(i + 1, s.size()) << "dangling escape";
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        ASSERT_FALSE(stack.empty()) << "unmatched close at " << i;
        ASSERT_EQ(stack.back(), c) << "mismatched close at " << i;
        stack.pop_back();
        break;
      default: break;
    }
  }
  EXPECT_FALSE(in_string) << "unterminated string";
  EXPECT_TRUE(stack.empty()) << "unclosed scopes";
}

TEST_F(TraceTest, ChromeJsonIsWellFormed) {
  trace::set_enabled(true);
  { trace::Span s("scoped", "test"); }
  trace::emit_async("req", "test", 'b', 0xbeef);
  trace::emit_async("req", "test", 'e', 0xbeef);
  trace::emit_instant("mark", "test");
  trace::set_enabled(false);

  const std::string json = trace::chrome_json();
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Async pairs share a hex id; instants carry thread scope.
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"0xbeef\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
}

// --- span/counter reconciliation over a served workload --------------

std::shared_ptr<const serve::RequestData> make_payload(Index L, Index d, std::uint64_t seed) {
  auto data = std::make_shared<serve::RequestData>();
  data->q = Matrix<float>(L, d);
  data->k = Matrix<float>(L, d);
  data->v = Matrix<float>(L, d);
  Rng rng(seed);
  fill_uniform(data->q, rng);
  fill_uniform(data->k, rng);
  fill_uniform(data->v, rng);
  return data;
}

TEST_F(TraceTest, ServedWorkloadSpansReconcileWithServerStats) {
  const Index L = 32, d = 8;
  auto mask = std::make_shared<const Csr<float>>(build_csr_random(L, RandomParams{0.2, 3}));
  auto payload = make_payload(L, d, 17);

  trace::set_enabled(true);
  constexpr Size kRequests = 48;
  serve::StatsSnapshot st;
  {
    serve::ServerConfig cfg;
    cfg.workers = 1;
    cfg.queue_capacity = 256;
    cfg.policy.max_batch = 4;
    cfg.policy.max_wait = 200us;
    serve::Server server(cfg);
    std::vector<std::future<serve::Response>> futures;
    for (Size i = 0; i < kRequests; ++i) {
      serve::Request r;
      r.data = payload;
      r.mask = mask;
      futures.push_back(server.submit(std::move(r)));
    }
    for (auto& f : futures) ASSERT_EQ(f.get().status, serve::ResponseStatus::Ok);
    server.shutdown();
    st = server.stats();
  }
  trace::set_enabled(false);
  ASSERT_EQ(trace::dropped(), 0u) << "ring too small for the workload";

  const std::vector<trace::Event> events = trace::drain_snapshot();
  Size begins = 0, ends = 0, dispatches = 0, items = 0;
  struct Interval {
    std::int64_t lo, hi;
  };
  std::vector<Interval> dispatch_windows;
  for (const trace::Event& e : events) {
    const std::string name = e.name;
    if (name == "serve.request") {
      (e.ph == 'b' ? begins : ends) += 1;
    } else if (name == "serve.dispatch") {
      ++dispatches;
      dispatch_windows.push_back({e.ts_us, e.ts_us + e.dur_us});
    } else if (name == "serve.item") {
      ++items;
    }
  }
  // Every request's async 'b' pairs exactly one 'e'; every request ran
  // as exactly one batch item.
  EXPECT_EQ(begins, kRequests);
  EXPECT_EQ(ends, kRequests);
  EXPECT_EQ(items, kRequests);

  // Spans and the server's stats describe the same run; the batch items
  // are Σ b · occupancy[b].
  EXPECT_EQ(st.submitted, kRequests);
  EXPECT_EQ(st.completed_ok, kRequests);
  EXPECT_EQ(st.batches, dispatches);
  Size batch_items = 0;
  for (std::size_t b = 0; b < st.occupancy.size(); ++b) batch_items += b * st.occupancy[b];
  EXPECT_EQ(batch_items, items);

  // Nesting: every item interval sits inside some dispatch interval
  // (items run on pool threads, so containment is by timestamp, not
  // tid — the dispatch span closes only after its items finish).
  for (const trace::Event& e : events) {
    if (std::string(e.name) != "serve.item") continue;
    bool contained = false;
    for (const Interval& w : dispatch_windows) {
      if (e.ts_us >= w.lo && e.ts_us + e.dur_us <= w.hi) {
        contained = true;
        break;
      }
    }
    EXPECT_TRUE(contained) << "serve.item span outside every serve.dispatch window";
  }
}

// --- ServerStats torn-pair hammer (TSan coverage) --------------------

// The consistency contract under test (server_stats.hpp): a snapshot
// can never observe completed_ok without its latency samples, or
// batches without the matching occupancy slot. Run under TSan this also
// pins the implementation to its single-mutex design — any lock-free
// "optimization" that can tear shows up as a data race or a failed
// invariant here.
TEST(ServerStatsHammer, SnapshotNeverObservesTornPairs) {
  serve::ServerStats stats;
  constexpr int kWriters = 4;
  constexpr int kIters = 4'000;
  std::atomic<bool> done{false};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&stats, w] {
      for (int i = 0; i < kIters; ++i) {
        stats.record_submitted();
        stats.record_queue_depth(static_cast<std::size_t>(i % 7));
        if (i % 13 == 0) {
          stats.record_rejected(serve::ResponseStatus::RejectedQueueFull);
          continue;
        }
        const Index occupancy = 1 + (i + w) % 4;
        stats.record_batch(occupancy);
        stats.record_completion(/*total_us=*/100.0 + i, /*service_us=*/50.0 + i);
      }
    });
  }

  std::thread reader([&stats, &done] {
    while (!done.load(std::memory_order_relaxed)) {
      const serve::StatsSnapshot s = stats.snapshot();
      // Coupled pairs, guarded by the same mutex as the writers.
      ASSERT_EQ(s.completed_ok, s.latency_ms.samples);
      ASSERT_EQ(s.completed_ok, s.service_ms.samples);
      Size occupancy_total = 0;
      for (const Size n : s.occupancy) occupancy_total += n;
      ASSERT_EQ(occupancy_total, s.batches);
      // Funnel ordering: submissions are recorded before their outcome.
      ASSERT_GE(s.submitted, s.completed_ok + s.rejected_queue_full + s.rejected_deadline +
                                 s.rejected_shutdown + s.rejected_session);
    }
  });

  for (auto& w : writers) w.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();

  const serve::StatsSnapshot s = stats.snapshot();
  const Size expected_rejects = kWriters * ((kIters + 12) / 13);
  EXPECT_EQ(s.submitted, static_cast<Size>(kWriters) * kIters);
  EXPECT_EQ(s.rejected_queue_full, expected_rejects);
  EXPECT_EQ(s.completed_ok, static_cast<Size>(kWriters) * kIters - expected_rejects);
  EXPECT_EQ(s.batches, s.completed_ok);
}

}  // namespace
}  // namespace gpa
