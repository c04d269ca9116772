#pragma once
// The serving frontend: N worker threads pulling dynamically-formed
// batches off a bounded queue and dispatching them through the CSR /
// multi-head attention kernels.
//
//   clients ──submit()──▶ RequestQueue ──DynamicBatcher──▶ workers ──▶ kernels
//                 │                                           │
//                 └── admission control                       └── ServerStats
//                     (full / deadline / shutdown)                (latency tails,
//                                                                  occupancy)
//
// Parallelism is two-level, mirroring how a batch fills a device:
//   batch_policy — across batch items (one "SM" per sequence),
//   item_policy  — inside one kernel call (rows of one sequence).
// The two levels cannot multiply threads: the substrate's nesting guard
// (parallel/parallel_region.hpp) makes a kernel called from inside the
// cross-item loop run serial regardless of item_policy, so thread count
// is max(batch_policy, item_policy) threads, never the product. The
// cross-item loop weighs the batch's work (the items' own edges ×
// head_dim; for decode, each step's one-row degree): a batch below the
// substrate's work gate — a batch of one, or a handful of one-row
// decode steps — dispatches inline on the worker (no region opened),
// so item_policy's parallelism survives exactly when there is no
// cross-item parallelism to collide with. The defaults give each
// dispatch the whole machine across items and keep items serial inside,
// so batched and unbatched dispatch are directly comparable at equal
// worker count.
//
// Shutdown drains: close() stops admissions, workers finish everything
// already queued (in-flight requests complete Ok), then join. Requests
// that can no longer run (workers == 0, or raced past close) resolve to
// RejectedShutdown — every future is always satisfied.

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "kvcache/session_manager.hpp"
#include "parallel/exec_policy.hpp"
#include "serve/batcher.hpp"
#include "serve/request_queue.hpp"
#include "serve/server_stats.hpp"

namespace gpa::serve {

struct ServerConfig {
  int workers = 1;
  std::size_t queue_capacity = 1024;
  BatchPolicy policy{};
  /// Deadline-aware priority aging (see RequestQueue): a queued request
  /// whose deadline is within this of now is scheduled one priority
  /// class higher. 0 disables aging.
  std::chrono::microseconds age_threshold{0};
  /// Weighted fairness across priority classes (see RequestQueue):
  /// non-empty maps run smooth weighted round-robin over the classes
  /// present in the queue (class → weight, unlisted classes weigh 1);
  /// empty keeps strict highest-class-first.
  std::map<int, Index> fairness_weights{};
  /// Across-items dispatch (default: all cores, one item per grab).
  ExecPolicy batch_policy{0, 1, Schedule::Dynamic};
  /// Per-item kernel policy (default serial: items don't oversubscribe
  /// each other; raise it for few-large-request deployments).
  ExecPolicy item_policy = ExecPolicy::serial();
  /// Session backend for RequestKind::Decode. Without one, every decode
  /// request resolves to RejectedSession at admission (a server can opt
  /// out of stateful traffic entirely).
  std::shared_ptr<kvcache::SessionManager> sessions;
};

class Server {
 public:
  explicit Server(ServerConfig cfg = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admission: validates the request (throws InvalidArgument on
  /// contract violations — shape mismatch, missing mask), then either
  /// queues it or resolves the future immediately with a rejection.
  /// Never blocks.
  std::future<Response> submit(Request r);

  /// Idempotent: stop admissions, drain the queue, join workers.
  void shutdown();

  StatsSnapshot stats() const { return stats_.snapshot(); }
  std::size_t queue_depth() const { return queue_.size(); }
  const ServerConfig& config() const noexcept { return cfg_; }

  const std::shared_ptr<kvcache::SessionManager>& sessions() const noexcept {
    return cfg_.sessions;
  }

 private:
  void worker_loop();
  void dispatch(std::vector<Request>& batch);
  void dispatch_decode(std::vector<Request>& batch);
  void dispatch_pattern(std::vector<Request>& batch);
  std::uint64_t fingerprint_of(const std::shared_ptr<const Csr<float>>& mask);
  static void resolve(Request& r, ResponseStatus status);

  ServerConfig cfg_;
  RequestQueue queue_;
  DynamicBatcher batcher_;
  ServerStats stats_;
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<bool> stopping_{false};
  std::mutex shutdown_mu_;

  /// Fingerprint cache keyed by mask identity. Entries pin their mask
  /// (masks are architecture, not data — a deployment has a handful),
  /// so a recycled pointer can never alias a different mask. Capped:
  /// past kFpCacheCap distinct masks, submits hash uncached rather than
  /// grow the server without bound.
  static constexpr std::size_t kFpCacheCap = 64;
  std::mutex fp_mu_;
  std::map<const void*, std::pair<std::shared_ptr<const Csr<float>>, std::uint64_t>> fp_cache_;
};

}  // namespace gpa::serve
