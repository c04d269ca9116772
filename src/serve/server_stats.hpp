#pragma once
// Thread-safe serving metrics. Counters cover the full admission
// funnel (submitted → accepted → completed/rejected-by-cause), gauges
// track queue depth, and two latency series (end-to-end and service)
// feed the p50/p95/p99 tail summary. The series are obs::Histogram
// (the one log-linear layout, 16 buckets per octave), so a server's
// stats take the same memory however many requests it completes; a
// percentile is reported as its bucket's upper edge, capped at the
// exact maximum — at most 2^(1/16) − 1 ≈ 4.4 % above the exact order
// statistic. The batch-occupancy histogram is the direct evidence for
// whether the batching policy actually coalesces work.
//
// Consistency contract: every record_* mutates its coupled fields
// under ONE mutex and snapshot() reads every field in one critical
// section of the same mutex, so a snapshot can never observe torn
// pairs — e.g. completed_ok advanced without the matching latency
// sample, or batches without its occupancy slot. These fields are a
// server's only stats: nothing of them is mirrored into the process
// registry, so two servers in one process never mix their figures.

#include <mutex>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/request.hpp"

namespace gpa::serve {

struct StatsSnapshot {
  Size submitted = 0;
  Size completed_ok = 0;
  Size rejected_queue_full = 0;
  Size rejected_deadline = 0;
  Size rejected_shutdown = 0;
  Size rejected_session = 0;
  Size internal_errors = 0;

  Size batches = 0;
  /// occupancy[b] = number of batches dispatched with exactly b
  /// requests (index 0 unused).
  std::vector<Size> occupancy;
  double mean_batch_occupancy = 0.0;

  std::size_t max_queue_depth = 0;

  /// End-to-end (admission → kernel done) and service (dispatch →
  /// kernel done) latency tails, milliseconds.
  obs::TailStats latency_ms;
  obs::TailStats service_ms;
};

class ServerStats {
 public:
  void record_submitted();
  void record_rejected(ResponseStatus cause);
  void record_internal_error();
  void record_queue_depth(std::size_t depth);
  void record_batch(Index occupancy);
  void record_completion(double total_us, double service_us);

  StatsSnapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  Size submitted_ = 0;
  Size completed_ok_ = 0;
  Size rejected_queue_full_ = 0;
  Size rejected_deadline_ = 0;
  Size rejected_shutdown_ = 0;
  Size rejected_session_ = 0;
  Size internal_errors_ = 0;
  Size batches_ = 0;
  std::vector<Size> occupancy_;
  std::size_t max_queue_depth_ = 0;
  obs::Histogram latency_us_;  ///< end-to-end, per completion
  obs::Histogram service_us_;
};

}  // namespace gpa::serve
