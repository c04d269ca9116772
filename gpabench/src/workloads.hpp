#pragma once
// The three gpabench workloads and the per-layer helpers they share.
// Every workload reports its detailed metrics into a Report; with
// cfg.trace it also runs the separate traced pass and the direct layer
// calls that yield the per-layer metrics.

#include <functional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "harness.hpp"
#include "kvcache/session_manager.hpp"
#include "obs/metrics.hpp"
#include "parallel/exec_policy.hpp"
#include "serve/request.hpp"
#include "tensor/matrix.hpp"

namespace gb {

inline constexpr gpa::Index kD = 64;  // head width of every workload
/// Set-ups per metric run; setup_s is their median.
inline constexpr int kSetupReps = 5;

Report run_oneshot(const RunConfig& cfg);
Report run_chat(const RunConfig& cfg);
Report run_cluster(const RunConfig& cfg);

/// Sets a workload up kSetupReps times (once in a traced run), records
/// the median process CPU time as setup_s and the median wall time as
/// setup_wall_s, and returns the last set-up. Each set-up is torn down
/// before the next one starts.
template <typename Setup, typename Fn>
Setup timed_setup(Report& rep, const RunConfig& cfg, Fn&& set_up) {
  std::vector<double> secs, cpu;
  Setup s;
  for (int i = 0; i < (cfg.trace ? 1 : kSetupReps); ++i) {
    s = Setup{};
    const TimePoint t0 = Clock::now();
    const double c0 = cpu_seconds();
    s = set_up();
    cpu.push_back(cpu_seconds() - c0);
    secs.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  rep.set("setup_s", quantile(cpu, 0.5), "s", cpu.size());
  rep.set("setup_wall_s", quantile(secs, 0.5), "s", secs.size());
  return s;
}

/// Starts the program's own span ring (obs::trace) and the benchmark's
/// span recorder for a traced pass.
void start_trace();

/// A metric run measures one pass. A traced run measures an untraced
/// pass, then a traced one (the program's registry snapshotted around
/// it); the per-layer figures come from the traced pass.
template <typename Pass>
struct Passes {
  Pass untraced;  ///< traced runs only
  Pass measured;
  gpa::obs::MetricsSnapshot before, after;
};

template <typename Pass, typename Fn>
Passes<Pass> run_passes(const RunConfig& cfg, Fn&& run_pass) {
  Passes<Pass> p;
  if (!cfg.trace) {
    p.measured = run_pass();
    return p;
  }
  p.untraced = run_pass();
  p.before = gpa::obs::Registry::global().snapshot();
  start_trace();
  p.measured = run_pass();
  p.after = gpa::obs::Registry::global().snapshot();
  return p;
}

/// One serve::Server response as its client saw it.
struct ServeSample {
  double queue_us = 0.0;
  double service_us = 0.0;
  double submit_us = 0.0;  ///< time inside Server::submit
  gpa::Index batch = 0;
  gpa::serve::ResponseStatus status = gpa::serve::ResponseStatus::Ok;
};

/// serve.queue_wait_us, serve.service_us, serve.batch_occupancy.mean,
/// serve.submit_us.p99 and serve.rejected.<status>.
void report_serve(Report& rep, const std::vector<ServeSample>& samples);

/// The kvcache layer's figures for a traced pass: prefill p50, the
/// registry deltas between `before` and `after` (prefix hit ratio,
/// reclaimed, evictions, edges per decode step) and the page gauges.
void report_kvcache(Report& rep, const gpa::obs::MetricsSnapshot& before,
                    const gpa::obs::MetricsSnapshot& after,
                    const std::vector<double>& prefill_ms, gpa::Index pages_peak,
                    std::uint64_t peak_samples, gpa::Index pages_total);

/// kvcache.decode_step_us.p50: a side session `sid` on `sm` under `spec`
/// is prefilled with (q, k, v), then every row of (dq, dk, dv) is
/// decoded by a direct, timed decode_step; the session is released.
void time_side_decode(Report& rep, gpa::kvcache::SessionManager& sm, std::uint64_t sid,
                      const gpa::kvcache::MaskSpec& spec, const gpa::Matrix<float>& q,
                      const gpa::Matrix<float>& k, const gpa::Matrix<float>& v,
                      const gpa::Matrix<float>& dq, const gpa::Matrix<float>& dk,
                      const gpa::Matrix<float>& dv);

/// One direct kernel call on a workload's own payload, for the core
/// layer's serial / nproc cells.
struct KernelCase {
  std::string family;  ///< lf | csr1e3 | csr1e2 | ring
  gpa::Index len = 0;
  std::uint64_t edges = 0;  ///< edges the call folds (mask nnz / causal slice count)
  std::function<void(const gpa::ExecPolicy&)> call;
};

/// Times every case at ExecPolicy::serial() and at nproc threads and
/// records core.call_us.{serial,nproc}.<family>.<bucket>,
/// core.ns_per_edge, core.gflops_computed and core.bytes_computed.
void measure_core(Report& rep, const std::vector<KernelCase>& cases, int nproc);

/// Per-layer self time from the recorded spans (trace.self_share.*,
/// trace.accounted_frac), the traced-vs-untraced overhead, and the
/// program ring's dropped count; writes the Chrome trace file.
void finish_trace(Report& rep, const RunConfig& cfg, double untraced_rate, double traced_rate);

}  // namespace gb
