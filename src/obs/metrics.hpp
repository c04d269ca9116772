#pragma once
// Metrics registry: named counters, gauges, and log-linear histograms
// with lock-cheap recording, a typed snapshot, and text + JSON
// exposition. This is the process-wide substrate kvcache / net /
// parallel record into; the live scrape path (net's Op::Stats) and the
// bench JSON embeds read it back out. Counters are per process, so
// in-process loopback nodes share one set.
//
// Naming convention: `subsystem.noun[.verb]`, lowercase, dot-separated
//   kvcache.prefix.hits           net.bytes.sent
//   kvcache.decode.steps          parallel.calls.forked
// Names are registered once and live for the registry's lifetime, so
// instrument sites cache the returned reference (one magic-static) and
// the hot path is a single sharded atomic add — no lock, no lookup.
//
// Recording contract:
//   * Counter::inc is wait-free: one relaxed fetch_add on a
//     cache-line-padded shard picked by thread id (writers on different
//     threads do not bounce one cache line).
//   * Gauge is a single atomic (set/add are rare, not hot-path).
//   * Histogram::observe is two relaxed adds (bucket + count) plus CAS
//     loops for the running sum and max.
//   * snapshot() walks the registry under its registration mutex.
//     Individual values are atomically read but the snapshot is NOT a
//     cross-metric atomic cut — counters are monotone, so a scraper
//     sees each counter at some point within the scrape window.
//     Figures that must never tear against each other (ServerStats'
//     completed count vs its latency histograms) are not registry
//     metrics: their owner records them under one lock of its own,
//     into plain obs::Histogram members (see server_stats.hpp).

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace gpa::obs {

/// Monotone event count. Sharded so concurrent writers on different
/// threads land on different cache lines; value() folds the shards.
class Counter {
 public:
  static constexpr std::size_t kShards = 16;

  void inc(std::uint64_t n = 1) noexcept;
  std::uint64_t value() const noexcept;
  void reset() noexcept;  ///< tests only — not linearizable vs writers

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Shard, kShards> shards_{};
};

/// Last-write-wins instantaneous value (pool occupancy, live sessions).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) noexcept { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// The one histogram layout: 16 log-linear buckets per octave, upper
/// edges 2^(k/16) for k = -64 .. 480 (2^-4 to 2^30), plus an overflow
/// bucket past 2^30. Bucket b counts v <= edges[b] (first match), so
/// values at or below 2^-4 land in bucket 0. A bucket's upper edge is
/// 2^(1/16) × its lower edge: a percentile read as its bucket's upper
/// edge is at most 2^(1/16) − 1 ≈ 4.4 % above the exact order
/// statistic, in whatever unit the caller observes (µs latencies reach
/// ~18 minutes before the overflow bucket).
constexpr std::size_t kHistogramEdges = 545;
const std::vector<double>& histogram_edges();

/// Tail summary of a histogram: each percentile is the upper edge of
/// the bucket holding its rank, capped at the exact maximum.
struct TailStats {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  std::size_t samples = 0;
};

/// Histogram over the layout above. Scrapers can difference two
/// snapshots bucket by bucket because the layout never changes.
class Histogram {
 public:
  void observe(double v) noexcept;

  /// kHistogramEdges + 1 counts; counts.back() is the overflow bucket.
  std::vector<std::uint64_t> counts() const;
  double sum() const noexcept;
  std::uint64_t count() const noexcept;
  /// The largest observation (0 when nothing larger was observed).
  double max() const noexcept;
  /// p50/p95/p99/max of the observations, in their own unit.
  TailStats tail() const;
  void reset() noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kHistogramEdges + 1> counts_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

// ---------------------------------------------------------------------
// Snapshot: the typed, point-in-time view the exposition formats and
// the wire codec serialize.

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  std::int64_t value = 0;
};

struct HistogramSample {
  std::string name;
  std::vector<double> edges;
  std::vector<std::uint64_t> counts;  ///< edges.size() + 1 (overflow last)
  double sum = 0.0;
  std::uint64_t count = 0;
};

struct MetricsSnapshot {
  std::vector<CounterSample> counters;  ///< name-ascending
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// Convenience lookups (0 / nullptr when absent — a scraper probing a
  /// counter the peer never touched reads 0, same as an untouched one).
  std::uint64_t counter(std::string_view name) const noexcept;
  std::int64_t gauge(std::string_view name) const noexcept;
  const HistogramSample* histogram(std::string_view name) const noexcept;

  /// Plain-text exposition, one `name value` line per counter/gauge,
  /// `name_bucket{le="edge"} n` per non-empty histogram bucket plus the
  /// `+Inf` overflow bucket (Prometheus-style).
  std::string to_text() const;
  /// {"counters":{...},"gauges":{...},"histograms":{name:{...}}}.
  std::string to_json() const;
};

// ---------------------------------------------------------------------

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Get-or-register. The returned reference is stable for the
  /// registry's lifetime (metrics are never erased), so callers cache
  /// it.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  MetricsSnapshot snapshot() const;

  /// Zeroes every value, keeping registrations (and cached references)
  /// valid. Test isolation only: concurrent writers may re-bump a shard
  /// mid-reset, so quiesce first for exact zeros.
  void reset();

  /// The process-wide registry every instrument site records into.
  static Registry& global();

 private:
  mutable std::mutex mu_;  ///< guards the maps, never the hot path
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Shard index of the calling thread (stable per thread, dense-ish).
std::size_t shard_of_this_thread() noexcept;

}  // namespace gpa::obs
