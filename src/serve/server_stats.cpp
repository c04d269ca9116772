#include "serve/server_stats.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"

namespace gpa::serve {

namespace {

/// Latency bucket edges in µs: 16 per octave from 2^-4 µs to 2^30 µs
/// (about 18 minutes); slower completions land in the overflow bucket.
const std::vector<double>& latency_edges_us() {
  static const std::vector<double> edges = [] {
    std::vector<double> e;
    for (int k = -4 * 16; k <= 30 * 16; ++k) e.push_back(std::exp2(k / 16.0));
    return e;
  }();
  return edges;
}

/// The latency bucket an observation falls in: the first edge >= us,
/// or the overflow slot past the last edge.
std::size_t latency_bucket(double us) {
  const std::vector<double>& e = latency_edges_us();
  return static_cast<std::size_t>(std::lower_bound(e.begin(), e.end(), us) - e.begin());
}

/// Tail summary in ms of a latency histogram: each percentile is the
/// upper edge of the bucket holding its rank, capped at the exact max.
benchutil::TailStats tail_ms(const std::vector<Size>& counts, double max_us) {
  const std::vector<double>& edges = latency_edges_us();
  benchutil::TailStats t;
  for (const Size c : counts) t.samples += c;
  if (t.samples == 0) return t;
  const auto at = [&](double pct) {
    const auto rank = std::max<Size>(
        1, static_cast<Size>(std::ceil(pct / 100.0 * static_cast<double>(t.samples))));
    Size seen = 0;
    for (std::size_t b = 0; b < edges.size(); ++b) {
      seen += counts[b];
      if (seen >= rank) return std::min(edges[b], max_us) / 1000.0;
    }
    return max_us / 1000.0;  // the rank falls in the overflow bucket
  };
  t.p50 = at(50.0);
  t.p95 = at(95.0);
  t.p99 = at(99.0);
  t.max = max_us / 1000.0;
  return t;
}

// Cached references into the global registry so each record_* adds one
// sharded-atomic bump on top of its locked update. The locked fields
// stay the source of truth for StatsSnapshot (the one-lock consistency
// contract in the header); these mirrors are what Op::Stats scrapes.
struct ServeMetrics {
  obs::Counter& submitted;
  obs::Counter& completed;
  obs::Counter& rejected_queue_full;
  obs::Counter& rejected_deadline;
  obs::Counter& rejected_shutdown;
  obs::Counter& rejected_session;
  obs::Counter& internal_errors;
  obs::Counter& batches;
  obs::Counter& batch_items;
  obs::Gauge& queue_depth;
  obs::Histogram& occupancy;
  obs::Histogram& latency_ms;
  obs::Histogram& service_ms;

  static ServeMetrics& get() {
    static ServeMetrics m = [] {
      obs::Registry& reg = obs::Registry::global();
      const std::vector<double> ms_edges = {0.05, 0.1, 0.25, 0.5, 1,   2.5, 5,
                                            10,   25,  50,   100, 250, 500, 1000};
      return ServeMetrics{reg.counter("serve.requests.submitted"),
                          reg.counter("serve.requests.completed"),
                          reg.counter("serve.requests.rejected.queue_full"),
                          reg.counter("serve.requests.rejected.deadline"),
                          reg.counter("serve.requests.rejected.shutdown"),
                          reg.counter("serve.requests.rejected.session"),
                          reg.counter("serve.errors.internal"),
                          reg.counter("serve.batches"),
                          reg.counter("serve.batch.items"),
                          reg.gauge("serve.queue.depth"),
                          reg.histogram("serve.batch.occupancy",
                                        {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}),
                          reg.histogram("serve.latency_ms", ms_edges),
                          reg.histogram("serve.service_ms", ms_edges)};
    }();
    return m;
  }
};

}  // namespace

ServerStats::ServerStats()
    : latency_counts_(latency_edges_us().size() + 1),
      service_counts_(latency_edges_us().size() + 1) {}

void ServerStats::record_submitted() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++submitted_;
  }
  ServeMetrics::get().submitted.inc();
}

void ServerStats::record_rejected(ResponseStatus cause) {
  ServeMetrics& m = ServeMetrics::get();
  std::lock_guard<std::mutex> lk(mu_);
  switch (cause) {
    case ResponseStatus::RejectedQueueFull:
      ++rejected_queue_full_;
      m.rejected_queue_full.inc();
      break;
    case ResponseStatus::RejectedDeadline:
      ++rejected_deadline_;
      m.rejected_deadline.inc();
      break;
    case ResponseStatus::RejectedShutdown:
      ++rejected_shutdown_;
      m.rejected_shutdown.inc();
      break;
    case ResponseStatus::RejectedSession:
      ++rejected_session_;
      m.rejected_session.inc();
      break;
    case ResponseStatus::InternalError:
      ++internal_errors_;
      m.internal_errors.inc();
      break;
    case ResponseStatus::Ok: break;  // not a rejection
  }
}

void ServerStats::record_internal_error() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++internal_errors_;
  }
  ServeMetrics::get().internal_errors.inc();
}

void ServerStats::record_queue_depth(std::size_t depth) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (depth > max_queue_depth_) max_queue_depth_ = depth;
  }
  ServeMetrics::get().queue_depth.set(static_cast<std::int64_t>(depth));
}

void ServerStats::record_batch(Index occupancy) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++batches_;
    const auto slot = static_cast<std::size_t>(occupancy);
    if (occupancy_.size() <= slot) occupancy_.resize(slot + 1, 0);
    ++occupancy_[slot];
  }
  ServeMetrics& m = ServeMetrics::get();
  m.batches.inc();
  m.batch_items.inc(static_cast<std::uint64_t>(occupancy));
  m.occupancy.observe(static_cast<double>(occupancy));
}

void ServerStats::record_completion(double total_us, double service_us) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++completed_ok_;
    ++latency_counts_[latency_bucket(total_us)];
    ++service_counts_[latency_bucket(service_us)];
    latency_max_us_ = std::max(latency_max_us_, total_us);
    service_max_us_ = std::max(service_max_us_, service_us);
  }
  ServeMetrics& m = ServeMetrics::get();
  m.completed.inc();
  m.latency_ms.observe(total_us / 1000.0);
  m.service_ms.observe(service_us / 1000.0);
}

StatsSnapshot ServerStats::snapshot() const {
  StatsSnapshot s;
  std::vector<Size> latency, service;
  double latency_max_us = 0.0, service_max_us = 0.0;
  {
    // One critical section reads every field, and every record_* writes
    // its coupled fields inside the same mutex — a snapshot can never
    // see `completed_ok` advanced without the matching latency samples
    // (pinned by the TSan-covered hammer in test_obs).
    std::lock_guard<std::mutex> lk(mu_);
    s.submitted = submitted_;
    s.completed_ok = completed_ok_;
    s.rejected_queue_full = rejected_queue_full_;
    s.rejected_deadline = rejected_deadline_;
    s.rejected_shutdown = rejected_shutdown_;
    s.rejected_session = rejected_session_;
    s.internal_errors = internal_errors_;
    s.batches = batches_;
    s.occupancy = occupancy_;
    s.max_queue_depth = max_queue_depth_;
    latency = latency_counts_;
    service = service_counts_;
    latency_max_us = latency_max_us_;
    service_max_us = service_max_us_;
  }
  s.latency_ms = tail_ms(latency, latency_max_us);
  s.service_ms = tail_ms(service, service_max_us);
  Size weighted = 0;
  for (std::size_t b = 0; b < s.occupancy.size(); ++b) {
    weighted += s.occupancy[b] * static_cast<Size>(b);
  }
  s.mean_batch_occupancy =
      s.batches > 0 ? static_cast<double>(weighted) / static_cast<double>(s.batches) : 0.0;
  return s;
}

}  // namespace gpa::serve
