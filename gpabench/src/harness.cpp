#include "harness.hpp"

#include <algorithm>
#include <ctime>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/version.hpp"
#include "parallel/parallel_for.hpp"
#include "simd/simd.hpp"

namespace gb {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

Slots::Slots(TimePoint start, TimePoint end, int n)
    : start_(start),
      slot_s_(std::max(1e-9, std::chrono::duration<double>(end - start).count() / n)),
      taken_(static_cast<std::size_t>(n)) {}

bool Slots::claim(TimePoint at) {
  const double t = std::chrono::duration<double>(at - start_).count();
  const auto last = static_cast<double>(taken_.size() - 1);
  const auto i = static_cast<std::size_t>(std::clamp(t / slot_s_, 0.0, last));
  return !taken_[i].load(std::memory_order_relaxed) && !taken_[i].exchange(true);
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0.0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

CpuTicks cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;  // the aggregate "cpu" line: user nice system idle iowait irq softirq steal
  CpuTicks t;
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    if (!(f >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        return m;
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string fingerprint_json(const RunConfig& cfg) {
  std::ostringstream os;
  os << "{\"cpu\": \"" << json_escape(cpu_model()) << "\", \"nproc\": " << cfg.nproc
     << ", \"simd\": \"" << gpa::simd::simd_backend() << "\", \"simd_compiled\": [";
  bool first = true;
  for (const auto lvl : gpa::simd::compiled_levels()) {
    os << (first ? "" : ", ") << '"' << gpa::simd::level_name(lvl) << '"';
    first = false;
  }
  os << "], \"parallel_backend\": \"" << gpa::parallel_backend() << "\", \"build\": \""
     << gpa::kBuildType << "\", \"source\": \"" << json_escape(cfg.source_id)
     << "\", \"workload\": \"" << json_escape(cfg.workload) << "\", \"seed\": " << cfg.seed
     << "}";
  return os.str();
}

// ---------------------------------------------------------------------
namespace span {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_tid{1};
const TimePoint g_epoch = Clock::now();

struct Buffer {
  std::uint32_t tid = 0;
  std::vector<Rec> recs;
};

std::mutex g_mu;  // guards g_buffers (the list, not the per-thread contents)
std::vector<std::unique_ptr<Buffer>> g_buffers;

Buffer& this_buffer() {
  thread_local Buffer* buf = nullptr;
  if (buf == nullptr) {
    auto owned = std::make_unique<Buffer>();
    owned->tid = g_next_tid.fetch_add(1);
    owned->recs.reserve(1 << 14);
    std::lock_guard<std::mutex> lk(g_mu);
    buf = owned.get();
    g_buffers.push_back(std::move(owned));
  }
  return *buf;
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
std::uint64_t new_id() { return g_next_id.fetch_add(1, std::memory_order_relaxed); }
namespace {
std::int64_t to_ns(TimePoint t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - g_epoch).count();
}
}  // namespace

std::uint64_t record(const char* name, TimePoint t0, TimePoint t1, std::uint64_t parent,
                     std::uint64_t req, std::uint64_t id) {
  if (!enabled()) return 0;
  if (id == 0) id = new_id();
  Buffer& b = this_buffer();
  b.recs.push_back(Rec{name, to_ns(t0), to_ns(t1), id, parent, req, b.tid});
  return id;
}

std::vector<Rec> collect() {
  std::lock_guard<std::mutex> lk(g_mu);
  std::vector<Rec> all;
  for (const auto& b : g_buffers) all.insert(all.end(), b->recs.begin(), b->recs.end());
  return all;
}

void clear() {
  std::lock_guard<std::mutex> lk(g_mu);
  for (const auto& b : g_buffers) b->recs.clear();
}

Summary summarize(const std::vector<Rec>& recs) {
  Summary s;
  s.spans = recs.size();
  std::map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < recs.size(); ++i) index[recs[i].id] = i;
  // Children's time inside each parent, clipped to the parent interval.
  std::vector<std::int64_t> child_ns(recs.size(), 0);
  for (const Rec& r : recs) {
    if (r.parent == 0) continue;
    const auto it = index.find(r.parent);
    if (it == index.end()) continue;
    const Rec& p = recs[it->second];
    const std::int64_t lo = std::max(r.t0_ns, p.t0_ns);
    const std::int64_t hi = std::min(r.t1_ns, p.t1_ns);
    if (hi > lo) child_ns[it->second] += hi - lo;
  }
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Rec& r = recs[i];
    const std::int64_t dur = r.t1_ns - r.t0_ns;
    const double self_ms = static_cast<double>(std::max<std::int64_t>(0, dur - child_ns[i])) / 1e6;
    const std::string name(r.name);
    s.self_ms[name.substr(0, name.find('.'))] += self_ms;
    if (r.parent == 0) s.root_ms += static_cast<double>(dur) / 1e6;
  }
  return s;
}

bool write_chrome(const std::string& path, const std::vector<Rec>& recs, std::size_t cap) {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"traceEvents\": [\n";
  const std::size_t n = std::min(cap, recs.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Rec& r = recs[i];
    const std::string name(r.name);
    f << (i ? ",\n" : "") << "{\"name\": \"" << name << "\", \"cat\": \""
      << name.substr(0, name.find('.')) << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << r.tid
      << ", \"ts\": " << static_cast<double>(r.t0_ns) / 1e3
      << ", \"dur\": " << static_cast<double>(r.t1_ns - r.t0_ns) / 1e3
      << ", \"args\": {\"id\": " << r.id << ", \"parent\": " << r.parent
      << ", \"req\": " << r.req << "}}";
  }
  f << "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {\"spans\": " << recs.size()
    << ", \"written\": " << n << "}}\n";
  return static_cast<bool>(f);
}

}  // namespace span
}  // namespace gb
