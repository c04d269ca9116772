#include "serve/server_stats.hpp"

namespace gpa::serve {

namespace {

/// A µs tail summary in ms.
obs::TailStats in_ms(obs::TailStats t) {
  t.p50 /= 1000.0;
  t.p95 /= 1000.0;
  t.p99 /= 1000.0;
  t.max /= 1000.0;
  return t;
}

}  // namespace

void ServerStats::record_submitted() {
  std::lock_guard<std::mutex> lk(mu_);
  ++submitted_;
}

void ServerStats::record_rejected(ResponseStatus cause) {
  std::lock_guard<std::mutex> lk(mu_);
  switch (cause) {
    case ResponseStatus::RejectedQueueFull: ++rejected_queue_full_; break;
    case ResponseStatus::RejectedDeadline: ++rejected_deadline_; break;
    case ResponseStatus::RejectedShutdown: ++rejected_shutdown_; break;
    case ResponseStatus::RejectedSession: ++rejected_session_; break;
    case ResponseStatus::InternalError: ++internal_errors_; break;
    case ResponseStatus::Ok: break;  // not a rejection
  }
}

void ServerStats::record_internal_error() {
  std::lock_guard<std::mutex> lk(mu_);
  ++internal_errors_;
}

void ServerStats::record_queue_depth(std::size_t depth) {
  std::lock_guard<std::mutex> lk(mu_);
  if (depth > max_queue_depth_) max_queue_depth_ = depth;
}

void ServerStats::record_batch(Index occupancy) {
  std::lock_guard<std::mutex> lk(mu_);
  ++batches_;
  const auto slot = static_cast<std::size_t>(occupancy);
  if (occupancy_.size() <= slot) occupancy_.resize(slot + 1, 0);
  ++occupancy_[slot];
}

void ServerStats::record_completion(double total_us, double service_us) {
  std::lock_guard<std::mutex> lk(mu_);
  ++completed_ok_;
  latency_us_.observe(total_us);
  service_us_.observe(service_us);
}

StatsSnapshot ServerStats::snapshot() const {
  StatsSnapshot s;
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
    s.latency_ms = in_ms(latency_us_.tail());
    s.service_ms = in_ms(service_us_.tail());
  }
  Size weighted = 0;
  for (std::size_t b = 0; b < s.occupancy.size(); ++b) {
    weighted += s.occupancy[b] * static_cast<Size>(b);
  }
  s.mean_batch_occupancy =
      s.batches > 0 ? static_cast<double>(weighted) / static_cast<double>(s.batches) : 0.0;
  return s;
}

}  // namespace gpa::serve
