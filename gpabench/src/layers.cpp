// Per-layer helpers shared by the workloads: serve and kvcache figures,
// direct core-kernel cells and the traced pass's span summary.

#include <map>

#include "obs/trace.hpp"
#include "workloads.hpp"

namespace gb {
namespace {

/// Power-of-two length bucket (256 … 4096) a call is reported under.
gpa::Index length_bucket(gpa::Index len) {
  gpa::Index b = 256;
  while (b < len && b < 4096) b *= 2;
  return b;
}

}  // namespace

void report_serve(Report& rep, const std::vector<ServeSample>& samples) {
  namespace sv = gpa::serve;
  std::vector<double> queue, service, submit, occ;
  std::map<sv::ResponseStatus, std::uint64_t> status;
  for (const ServeSample& s : samples) {
    queue.push_back(s.queue_us);
    service.push_back(s.service_us);
    submit.push_back(s.submit_us);
    occ.push_back(static_cast<double>(s.batch));
    ++status[s.status];
  }
  rep.set_q("serve.queue_wait_us.p50", queue, 0.50, "us");
  rep.set_q("serve.queue_wait_us.p99", queue, 0.99, "us");
  rep.set_q("serve.service_us.p50", service, 0.50, "us");
  rep.set_q("serve.service_us.p99", service, 0.99, "us");
  rep.set("serve.batch_occupancy.mean", mean(occ), "count", occ.size());
  rep.set_q("serve.submit_us.p99", submit, 0.99, "us");
  const auto n = samples.size();
  rep.set("serve.rejected.queue_full", status[sv::ResponseStatus::RejectedQueueFull], "count", n);
  rep.set("serve.rejected.deadline", status[sv::ResponseStatus::RejectedDeadline], "count", n);
  rep.set("serve.rejected.shutdown", status[sv::ResponseStatus::RejectedShutdown], "count", n);
  rep.set("serve.rejected.session", status[sv::ResponseStatus::RejectedSession], "count", n);
  rep.set("serve.rejected.internal", status[sv::ResponseStatus::InternalError], "count", n);
}

void report_kvcache(Report& rep, const gpa::obs::MetricsSnapshot& before,
                    const gpa::obs::MetricsSnapshot& after,
                    const std::vector<double>& prefill_ms, gpa::Index pages_peak,
                    std::uint64_t peak_samples, gpa::Index pages_total) {
  auto delta = [&](const char* name) {
    return static_cast<double>(after.counter(name) - before.counter(name));
  };
  rep.set_q("kvcache.prefill_ms.p50", prefill_ms, 0.50, "ms");
  const double lookups = delta("kvcache.prefix.lookups");
  rep.set("kvcache.prefix_hit_ratio", lookups > 0 ? delta("kvcache.prefix.hits") / lookups : 0.0,
          "ratio", static_cast<std::uint64_t>(lookups));
  rep.set("kvcache.pages_in_use.peak", static_cast<double>(pages_peak), "pages", peak_samples);
  rep.set("kvcache.pages_total", static_cast<double>(pages_total), "pages", 1);
  rep.set("kvcache.reclaimed", delta("kvcache.prefix.reclaimed"), "count", 1);
  rep.set("kvcache.evictions", delta("kvcache.evictions"), "count", 1);
  const double steps = delta("kvcache.decode.steps");
  rep.set("kvcache.edges_per_token", steps > 0 ? delta("kvcache.decode.edges") / steps : 0.0,
          "count", static_cast<std::uint64_t>(steps));
}

void time_side_decode(Report& rep, gpa::kvcache::SessionManager& sm, std::uint64_t sid,
                      const gpa::kvcache::MaskSpec& spec, const gpa::Matrix<float>& q,
                      const gpa::Matrix<float>& k, const gpa::Matrix<float>& v,
                      const gpa::Matrix<float>& dq, const gpa::Matrix<float>& dk,
                      const gpa::Matrix<float>& dv) {
  sm.create(sid, spec);
  gpa::Matrix<float> out;
  sm.prefill(sid, q, k, v, out);
  std::vector<double> step_us;
  std::vector<float> row(static_cast<std::size_t>(kD));
  for (gpa::Index t = 0; t < dq.rows(); ++t) {
    const TimePoint a = Clock::now();
    sm.decode_step(sid, dq.row(t), dk.row(t), dv.row(t), row.data());
    step_us.push_back(us_between(a, Clock::now()));
  }
  sm.release(sid);
  rep.set_q("kvcache.decode_step_us.p50", step_us, 0.50, "us");
}

void measure_core(Report& rep, const std::vector<KernelCase>& cases, int nproc) {
  constexpr int kReps = 3;
  gpa::ExecPolicy par;
  par.num_threads = nproc;
  std::map<std::string, std::vector<double>> cells;
  double serial_s = 0.0;
  double edges = 0.0;
  double bytes = 0.0;
  for (const KernelCase& c : cases) {
    const std::string cell = c.family + "." + std::to_string(length_bucket(c.len));
    c.call(gpa::ExecPolicy::serial());  // warm caches and scratch
    const double ts = median_seconds(kReps, [&] { c.call(gpa::ExecPolicy::serial()); });
    const double tp = median_seconds(kReps, [&] { c.call(par); });
    cells["core.call_us.serial." + cell].push_back(ts * 1e6);
    cells["core.call_us.nproc." + cell].push_back(tp * 1e6);
    serial_s += ts;
    edges += static_cast<double>(c.edges);
    // Computed traffic: each edge reads one K and one V row; each row
    // reads its Q row and writes its output row (fp32).
    bytes += 4.0 * static_cast<double>(kD) *
             (2.0 * static_cast<double>(c.edges) + 2.0 * static_cast<double>(c.len));
  }
  for (const auto& [name, v] : cells) rep.set(name, quantile(v, 0.5), "us", v.size() * kReps);
  const auto n = static_cast<std::uint64_t>(cases.size()) * kReps;
  if (serial_s > 0.0 && edges > 0.0) {
    rep.set("core.ns_per_edge", serial_s * 1e9 / edges, "ns", n);
    // Computed flops per edge: the score dot product and the V axpy
    // (2·d each), at ExecPolicy::serial().
    rep.set("core.gflops_computed", 4.0 * static_cast<double>(kD) * edges / serial_s / 1e9,
            "GFLOP/s", n);
    rep.set("core.bytes_computed", bytes / serial_s / 1e9, "GB/s", n);
  }
}

void start_trace() {
  gpa::obs::trace::set_enabled(false);
  gpa::obs::trace::configure_capacity(std::size_t{1} << 21);
  gpa::obs::trace::reset();
  span::clear();
  span::set_enabled(true);
  gpa::obs::trace::set_enabled(true);
}

void finish_trace(Report& rep, const RunConfig& cfg, double untraced_rate, double traced_rate) {
  span::set_enabled(false);
  gpa::obs::trace::set_enabled(false);
  const std::vector<span::Rec> recs = span::collect();
  const span::Summary s = span::summarize(recs);
  double accounted = 0.0;
  for (const char* layer : {"client", "serve", "core", "kvcache", "net"}) {
    const auto it = s.self_ms.find(layer);
    const double share = (it == s.self_ms.end() || s.root_ms <= 0.0) ? 0.0
                                                                     : it->second / s.root_ms;
    rep.set(std::string("trace.self_share.") + layer, share, "ratio", s.spans);
    if (std::string(layer) != "client") accounted += share;
  }
  rep.set("trace.accounted_frac", accounted, "ratio", s.spans);
  if (untraced_rate > 0.0) {
    rep.set("obs.trace_overhead_frac", 1.0 - traced_rate / untraced_rate, "ratio", 2);
  }
  const std::uint64_t dropped = gpa::obs::trace::dropped();
  rep.set("obs.trace_dropped", static_cast<double>(dropped), "count",
          gpa::obs::trace::emitted());
  if (dropped != 0) rep.fail_check("program trace ring dropped events; traced run does not count");
  const std::string path =
      cfg.out_dir + "/trace-" + cfg.workload + "-" + std::to_string(cfg.seed) + ".json";
  span::write_chrome(path, recs, 200000);
}

}  // namespace gb
