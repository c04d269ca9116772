#pragma once
// Shared plumbing for the gpabench workloads: timing, quantiles, the
// metric report, the benchmark's own span recorder, and the host
// fingerprint every result carries.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gb {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

inline double ms_between(TimePoint a, TimePoint b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double us_between(TimePoint a, TimePoint b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Linear-interpolated quantile (Python's statistics "inclusive" rule);
/// 0 for an empty sample. Sorts a copy.
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);

/// Spreads the sampled output checks over a phase: the phase is cut into
/// `n` equal slots and claim() is true for the first call whose time
/// falls in a slot not yet claimed. Thread-safe.
class Slots {
 public:
  Slots(TimePoint start, TimePoint end, int n);
  bool claim(TimePoint at);

 private:
  TimePoint start_;
  double slot_s_;
  std::vector<std::atomic<bool>> taken_;
};

/// Run-wide inputs shared by every workload.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string source_id = "unknown";
  int nproc = 1;
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t n = 0;  ///< samples behind the value
};

/// Everything one workload run measured, under the detailed,
/// workload-native names; run.py projects them onto the BENCHMARK.json
/// vocabulary.
struct Report {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;

  void set(const std::string& name, double value, const std::string& unit, std::uint64_t n) {
    metrics[name] = Metric{value, unit, n};
  }
  /// Percentile metric: value plus the sample count it rests on.
  void set_q(const std::string& name, const std::vector<double>& v, double q,
             const std::string& unit) {
    set(name, quantile(v, q), unit, v.size());
  }
  void fail_check(const std::string& what) {
    ++failed;
    if (check_failures.size() < 16) check_failures.push_back(what);
  }
};

/// Peak resident set of this process (VmHWM), in MB.
double peak_rss_mb();

/// CPU time of this process, all threads, in seconds. The kernel leaves
/// out the time the hypervisor ran something else on these CPUs
/// (steal), so CPU per operation holds where wall time follows the host.
double cpu_seconds();

/// Host-wide CPU time from /proc/stat, in clock ticks: all states, and
/// the time the hypervisor ran something else on these CPUs (steal).
/// A run whose steal share is high measured a contended host.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTicks cpu_ticks();

/// Host fingerprint: CPU model, nproc, SIMD arm and compiled arms,
/// parallel backend, build type, source identity, workload and seed.
std::string fingerprint_json(const RunConfig& cfg);

/// Median wall time of `reps` runs of `fn`, in seconds.
template <typename Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const TimePoint a = Clock::now();
    fn();
    t.push_back(std::chrono::duration<double>(Clock::now() - a).count());
  }
  return quantile(t, 0.5);
}

// ---------------------------------------------------------------------
// Span recorder. Spans are recorded by the benchmark around its calls
// into the program (name, start, end, parent, request id), kept in
// per-thread buffers and summarised at the end. The layer of a span is
// its name up to the first '.'; spans named "client.*" are the
// end-to-end operations, so a span tree's root is always a client span.
namespace span {

struct Rec {
  const char* name = nullptr;  ///< string literal
  std::int64_t t0_ns = 0;      ///< since the recorder epoch
  std::int64_t t1_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t req = 0;     ///< shared by the spans of one request
  std::uint32_t tid = 0;
};

void set_enabled(bool on);
bool enabled();
std::uint64_t new_id();

/// Records a finished span with explicit bounds (for intervals measured
/// elsewhere, e.g. a request's queue wait read from its Response).
/// Returns its id (0 when disabled).
std::uint64_t record(const char* name, TimePoint t0, TimePoint t1, std::uint64_t parent,
                     std::uint64_t req, std::uint64_t id = 0);

/// Every span recorded so far, from all threads.
std::vector<Rec> collect();
void clear();

struct Summary {
  std::map<std::string, double> self_ms;  ///< per layer
  double root_ms = 0.0;                   ///< summed client (root) span time
  std::uint64_t spans = 0;
};
Summary summarize(const std::vector<Rec>& recs);

/// Chrome trace_event JSON ('X' events, args carry id/parent/req); at
/// most `cap` events are written. False on I/O failure.
bool write_chrome(const std::string& path, const std::vector<Rec>& recs, std::size_t cap);

}  // namespace span
}  // namespace gb
