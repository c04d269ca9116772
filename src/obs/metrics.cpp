#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iomanip>
#include <sstream>

namespace gpa::obs {

std::size_t shard_of_this_thread() noexcept {
  // Dense per-thread ids beat hashing std::thread::id: consecutive
  // worker threads land on consecutive shards instead of colliding.
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id % Counter::kShards;
}

void Counter::inc(std::uint64_t n) noexcept {
  shards_[shard_of_this_thread()].v.fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t Counter::value() const noexcept {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
  return total;
}

void Counter::reset() noexcept {
  for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
}

const std::vector<double>& histogram_edges() {
  static const std::vector<double> edges = [] {
    std::vector<double> e;
    e.reserve(kHistogramEdges);
    for (int k = -4 * 16; k <= 30 * 16; ++k) e.push_back(std::exp2(k / 16.0));
    return e;
  }();
  return edges;
}

void Histogram::observe(double v) noexcept {
  const std::vector<double>& e = histogram_edges();
  const auto b = static_cast<std::size_t>(std::lower_bound(e.begin(), e.end(), v) - e.begin());
  counts_[b].fetch_add(1, std::memory_order_relaxed);  // b == e.size() → overflow
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
  double top = max_.load(std::memory_order_relaxed);
  while (v > top && !max_.compare_exchange_weak(top, v, std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::counts() const {
  std::vector<std::uint64_t> out(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

std::uint64_t Histogram::count() const noexcept {
  return count_.load(std::memory_order_relaxed);
}

double Histogram::max() const noexcept { return max_.load(std::memory_order_relaxed); }

TailStats Histogram::tail() const {
  TailStats t;
  for (const auto& c : counts_) t.samples += c.load(std::memory_order_relaxed);
  if (t.samples == 0) return t;
  const std::vector<double>& edges = histogram_edges();
  const double top = max();
  const auto at = [&](double pct) {
    const auto rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(pct / 100.0 * static_cast<double>(t.samples))));
    std::size_t seen = 0;
    for (std::size_t b = 0; b < edges.size(); ++b) {
      seen += counts_[b].load(std::memory_order_relaxed);
      if (seen >= rank) return std::min(edges[b], top);
    }
    return top;  // the rank falls in the overflow bucket
  };
  t.p50 = at(50.0);
  t.p95 = at(95.0);
  t.p99 = at(99.0);
  t.max = top;
  return t;
}

void Histogram::reset() noexcept {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  return *counters_.emplace(std::string(name), std::make_unique<Counter>()).first->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  return *gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first->second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  return *histograms_.emplace(std::string(name), std::make_unique<Histogram>()).first->second;
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot s;
  std::lock_guard<std::mutex> lk(mu_);
  s.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) s.counters.push_back({name, c->value()});
  s.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) s.gauges.push_back({name, g->value()});
  s.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    s.histograms.push_back({name, histogram_edges(), h->counts(), h->sum(), h->count()});
  }
  return s;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

Registry& Registry::global() {
  // Leaked on purpose: instrument sites cache references that may be
  // touched by detached threads during process teardown.
  static Registry* g = new Registry();
  return *g;
}

// ---------------------------------------------------------------------
// Snapshot lookups + exposition

namespace {

template <typename Vec>
auto find_sample(const Vec& v, std::string_view name) -> decltype(v.data()) {
  for (const auto& s : v) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string fmt_double(double v) {
  std::ostringstream os;
  os << std::setprecision(12) << v;
  return os.str();
}

}  // namespace

std::uint64_t MetricsSnapshot::counter(std::string_view name) const noexcept {
  const auto* s = find_sample(counters, name);
  return s ? s->value : 0;
}

std::int64_t MetricsSnapshot::gauge(std::string_view name) const noexcept {
  const auto* s = find_sample(gauges, name);
  return s ? s->value : 0;
}

const HistogramSample* MetricsSnapshot::histogram(std::string_view name) const noexcept {
  return find_sample(histograms, name);
}

std::string MetricsSnapshot::to_text() const {
  std::ostringstream os;
  for (const auto& c : counters) os << c.name << " " << c.value << "\n";
  for (const auto& g : gauges) os << g.name << " " << g.value << "\n";
  for (const auto& h : histograms) {
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      if (h.counts[b] == 0 && b < h.edges.size()) continue;  // 545 buckets: print the used ones
      os << h.name << "_bucket{le=\""
         << (b < h.edges.size() ? fmt_double(h.edges[b]) : std::string("+Inf")) << "\"} "
         << h.counts[b] << "\n";
    }
    os << h.name << "_sum " << fmt_double(h.sum) << "\n";
    os << h.name << "_count " << h.count << "\n";
  }
  return os.str();
}

std::string MetricsSnapshot::to_json() const {
  // Metric names are our own dotted identifiers (no quotes/backslashes
  // by construction), so plain quoting is faithful.
  std::ostringstream os;
  os << "{\"counters\":{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    os << (i ? "," : "") << "\"" << counters[i].name << "\":" << counters[i].value;
  }
  os << "},\"gauges\":{";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    os << (i ? "," : "") << "\"" << gauges[i].name << "\":" << gauges[i].value;
  }
  os << "},\"histograms\":{";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const auto& h = histograms[i];
    os << (i ? "," : "") << "\"" << h.name << "\":{\"edges\":[";
    for (std::size_t b = 0; b < h.edges.size(); ++b) {
      os << (b ? "," : "") << fmt_double(h.edges[b]);
    }
    os << "],\"counts\":[";
    for (std::size_t b = 0; b < h.counts.size(); ++b) os << (b ? "," : "") << h.counts[b];
    os << "],\"sum\":" << fmt_double(h.sum) << ",\"count\":" << h.count << "}";
  }
  os << "}}";
  return os.str();
}

}  // namespace gpa::obs
