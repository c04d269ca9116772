#include "parallel/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "parallel/parallel_region.hpp"

namespace gpa {

std::string_view parallel_backend() noexcept {
#if defined(GPA_HAVE_OPENMP)
  return "openmp";
#else
  return "threads";
#endif
}

int resolved_threads(const ExecPolicy& policy) noexcept {
  if (in_parallel_region()) return 1;  // nested call: degrade to serial
  if (policy.num_threads > 0) return policy.num_threads;
  // hardware_concurrency reads the online-CPU list from the OS on every
  // call; one read per process keeps the gate's fast path free of it.
  static const int hw = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return hw;
}

namespace {

// What the work gate chose. Registered at load time, so a scrape lists
// both counters (at 0) before the first parallel call.
obs::Counter& g_calls_inline = obs::Registry::global().counter("parallel.calls.inline");
obs::Counter& g_calls_forked = obs::Registry::global().counter("parallel.calls.forked");

/// First-wins exception capture shared by both backends. The mutex
/// serializes the pointer store (multiple workers can fail at once);
/// the `failed` flag is the cheap cooperative-cancellation signal the
/// hot path polls. Reading the pointer afterwards is synchronized by
/// the join / OpenMP barrier that precedes rethrow_if_failed().
class ErrorCapture {
 public:
  bool failed() const noexcept { return failed_.load(std::memory_order_relaxed); }

  /// Stash the in-flight exception; later failures are dropped.
  void capture() noexcept {
    std::lock_guard<std::mutex> lock(mu_);
    if (!first_) first_ = std::current_exception();
    failed_.store(true, std::memory_order_relaxed);
  }

  /// Call only after every worker has finished (join / implicit barrier).
  void rethrow_if_failed() {
    if (first_) std::rethrow_exception(first_);
  }

 private:
  std::mutex mu_;
  std::atomic<bool> failed_{false};
  std::exception_ptr first_;
};

#if !defined(GPA_HAVE_OPENMP)
/// Shared fork/join driver. Under Static each worker owns one contiguous
/// slice; under Dynamic workers pull `grain`-sized chunks from a shared
/// counter (work stealing by atomic fetch-add).
void run_workers(Index begin, Index end, int threads, Index grain, Schedule sched,
                 const std::function<void(Index, Index)>& chunk_body) {
  const Index n = end - begin;
  ErrorCapture err;

  auto guarded = [&](Index lo, Index hi) {
    if (err.failed()) return;
    try {
      chunk_body(lo, hi);
    } catch (...) {
      err.capture();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));

  if (sched == Schedule::Static) {
    const Index per = divup(n, threads);
    for (int t = 0; t < threads; ++t) {
      const Index lo = begin + static_cast<Index>(t) * per;
      const Index hi = lo + per < end ? lo + per : end;
      if (lo >= hi) break;
      pool.emplace_back([&guarded, lo, hi] {
        detail::ParallelRegionGuard region;
        guarded(lo, hi);
      });
    }
  } else {
    auto next = std::make_shared<std::atomic<Index>>(begin);
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, next] {
        detail::ParallelRegionGuard region;
        for (;;) {
          const Index lo = next->fetch_add(grain, std::memory_order_relaxed);
          if (lo >= end) return;
          const Index hi = lo + grain < end ? lo + grain : end;
          guarded(lo, hi);
          if (err.failed()) return;
        }
      });
    }
  }
  for (auto& th : pool) th.join();
  err.rethrow_if_failed();
}
#endif  // !GPA_HAVE_OPENMP

}  // namespace

namespace detail {

Split split_work(Index n, const ExecPolicy& policy, std::int64_t work) {
  // A serial policy or a nested call has one thread: the estimate is
  // never consulted and nothing is counted.
  const int threads = resolved_threads(policy);
  if (threads <= 1) return {1, n};
  // At most one chunk per kGrainWork of work, and at least policy.grain
  // indices per chunk (grain <= 0: chunks of kGrainWork work each).
  const Index max_chunks = std::min<std::int64_t>(n, work / kGrainWork);
  Split s;
  if (max_chunks >= 2) {
    s.grain = std::max(policy.grain, divup(n, max_chunks));
    s.threads = static_cast<int>(std::min<Index>(threads, divup(n, s.grain)));
  }
  if (s.threads <= 1) {
    g_calls_inline.inc();
    return {1, n};
  }
  g_calls_forked.inc();
  return s;
}

void fork_chunks(Index begin, Index end, const ExecPolicy& policy, Split split,
                 const std::function<void(Index, Index)>& body) {
  const Schedule sched = policy.schedule;
  const int threads = split.threads;
  const Index grain = split.grain;
#if defined(GPA_HAVE_OPENMP)
  const Index chunks = divup(end - begin, grain);
  ErrorCapture err;
  auto run_chunk = [&](Index c) {
    ParallelRegionGuard region;  // belt to omp_in_parallel's braces
    if (err.failed()) return;
    try {
      const Index lo = begin + c * grain;
      const Index hi = lo + grain < end ? lo + grain : end;
      body(lo, hi);
    } catch (...) {
      err.capture();
    }
  };
  if (sched == Schedule::Static) {
#pragma omp parallel for num_threads(threads) schedule(static)
    for (Index c = 0; c < chunks; ++c) run_chunk(c);
  } else {
#pragma omp parallel for num_threads(threads) schedule(dynamic, 1)
    for (Index c = 0; c < chunks; ++c) run_chunk(c);
  }
  err.rethrow_if_failed();
#else
  run_workers(begin, end, threads, grain, sched, body);
#endif
}

}  // namespace detail

void parallel_for_chunks(Index begin, Index end, const ExecPolicy& policy, std::int64_t work,
                         const std::function<void(Index, Index)>& body) {
  const Index n = end - begin;
  if (n <= 0) return;
  const detail::Split split = detail::split_work(n, policy, work);
  if (split.threads <= 1) {
    body(begin, end);
    return;
  }
  detail::fork_chunks(begin, end, policy, split, body);
}

void parallel_for(Index begin, Index end, const ExecPolicy& policy, std::int64_t work,
                  const std::function<void(Index)>& body) {
  parallel_for_chunks(begin, end, policy, work, [&](Index lo, Index hi) {
    for (Index i = lo; i < hi; ++i) body(i);
  });
}

}  // namespace gpa
