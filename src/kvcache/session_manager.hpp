#pragma once
// Sessions: cached K/V plus running online-softmax statistics, keyed by
// a caller-chosen 64-bit id.
//
//   prefill      — one causal pass over the prompt through the shared
//                  fold (same row order as the one-shot kernels), output
//                  normalised, K/V written into pages, per-row (m, l)
//                  retained as the session's running softmax state.
//   decode_step  — appends one token's K/V, folds ONLY the new row's
//                  sparse neighborhood (MaskSpec row slice) against the
//                  paged cache, and returns that row's normalised
//                  output: O(row-nnz · d) per token instead of a full
//                  recompute. A session's mask may be a COMPOSITION
//                  (longformer = local ∘ global): each component's
//                  causal slice folds into the same row state, in
//                  composition order, bit-identical to one full
//                  composed kernel call.
//   fork         — copy-on-write clone sharing the parent's pages
//                  (shared-prefix serving: N continuations of one
//                  prompt cost one prompt's worth of cache).
//
// Concurrency model (what the TSan CI leg checks):
//   * `mu_` guards the session map, the LRU clock, and nothing else.
//   * each session has an op mutex serializing its prefill/decode;
//     different sessions decode concurrently.
//   * the pool is internally synchronized; page payloads are only
//     touched by the session that owns them exclusively.
//   * eviction (triggered by pool exhaustion) picks the
//     least-recently-used session whose op mutex try_lock succeeds —
//     a session mid-operation is never evicted, pinned sessions never
//     evict. If nothing is evictable, CacheFull.
//
// Ordering contract: decode_step calls for ONE session must be issued
// in token order (the autoregressive data dependency makes this natural
// — token t+1's Q does not exist before token t's output). Concurrent
// steps on one session are serialized by the op mutex but their fold
// order would be racy; the serving layer keeps same-session steps of a
// batch in arrival order.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/attention_options.hpp"
#include "kvcache/block_pool.hpp"
#include "kvcache/errors.hpp"
#include "kvcache/mask_spec.hpp"
#include "kvcache/page_table.hpp"
#include "kvcache/prefix_index.hpp"
#include "tensor/matrix.hpp"

namespace gpa::kvcache {

class SessionManager {
 public:
  struct Config {
    BlockPoolConfig pool{};
    /// Default options for sessions created without an explicit set
    /// (scale / SIMD level / parallel policy of the prefill pass).
    AttentionOptions opts{};
    /// Pool-wide content-hash prompt caching: prefill adopts full prompt
    /// pages already published by any other session (same mask family +
    /// byte-identical content) by reference instead of writing copies.
    /// Numerics are unaffected either way — prefill attention reads the
    /// contiguous inputs, and adopted pages are byte-verified.
    bool prefix_dedup = true;
  };

  /// State read at call time. Event counts (evictions, decode steps
  /// and edges, adopted pages, prompt-cache lookups/hits/publishes/
  /// reclaims) live only in the process registry, under `kvcache.*`.
  struct Stats {
    Size sessions = 0;
    Index pages_in_use = 0;
    Index pages_free = 0;
    Index prefix_entries = 0;  ///< live index entries (cached pages)
  };

  explicit SessionManager(Config cfg);

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;
  ~SessionManager();

  /// Registers an empty session. Throws InvalidArgument if `id` exists.
  void create(std::uint64_t id, MaskSpec mask);
  void create(std::uint64_t id, MaskSpec mask, const AttentionOptions& opts);

  bool contains(std::uint64_t id) const;
  Index length(std::uint64_t id);

  /// Drops the session and releases its pages (no-op if unknown).
  void release(std::uint64_t id);

  /// Pinned sessions are exempt from LRU eviction.
  void set_pinned(std::uint64_t id, bool pinned);

  /// Copy-on-write clone of `parent` as `child`: pages shared, running
  /// softmax state copied. Throws if parent is unknown or child exists.
  void fork(std::uint64_t parent, std::uint64_t child);

  /// Causal attention over the prompt (rows fold exactly as the
  /// one-shot kernels' causal branches), K/V cached, `out` resized to
  /// q's shape and normalised. The session must be empty.
  void prefill(std::uint64_t id, const Matrix<float>& q, const Matrix<float>& k,
               const Matrix<float>& v, Matrix<float>& out);

  /// One incremental token: caches (k_new, v_new) at position t =
  /// length(), folds row t's causal neighborhood against the paged
  /// cache, writes the normalised 1×d output row. Returns the number of
  /// edges folded.
  Index decode_step(std::uint64_t id, const float* q_new, const float* k_new,
                    const float* v_new, float* out_row);
  /// Matrix convenience overload (1×d in, 1×d out, shape-checked).
  Index decode_step(std::uint64_t id, const Matrix<float>& q_new, const Matrix<float>& k_new,
                    const Matrix<float>& v_new, Matrix<float>& out_row);

  /// One item of a cross-session decode batch. Payload pointers must
  /// stay valid for the duration of decode_batch; `out` receives the
  /// normalised head_dim output row on Outcome::Ok and is untouched
  /// otherwise.
  struct DecodeBatchItem {
    std::uint64_t session_id = 0;
    const float* q = nullptr;
    const float* k = nullptr;
    const float* v = nullptr;
    float* out = nullptr;
    enum class Outcome : std::uint8_t {
      Ok = 0,
      SessionError,  ///< unknown / evicted / cache full (typed reject)
      Error,         ///< anything else — the item failed, batch continues
    };
    Outcome outcome = Outcome::Ok;
    Index edges = 0;  ///< edges folded (0 unless Ok)
  };

  /// Batched decode across sessions: items are grouped by session id
  /// (steps of ONE session run in item order — the autoregressive
  /// ordering contract above), and the per-session groups fold
  /// concurrently under `policy` through a parallel_reduce that sums
  /// folded edges. The reduce's work estimate is each item's one-row
  /// causal degree × head_dim, so a batch of short rows (below the
  /// substrate's kGrainWork) decodes inline on the caller. Per-item
  /// failures are recorded in the item's `outcome`, never thrown — one
  /// bad session must not poison the batch. Returns the total edges
  /// folded by the Ok items.
  Index decode_batch(std::vector<DecodeBatchItem>& items, const ExecPolicy& policy);

  Stats stats() const;
  const BlockPool& pool() const noexcept { return pool_; }

 private:
  struct Session {
    std::mutex op_mu;  ///< serializes prefill/decode/fork-source/evict
    MaskSpec mask;
    AttentionOptions opts;
    PageTable table;
    /// Running per-row online-softmax stats — the growable decode form
    /// of SoftmaxState. decode_step's output needs only its own row;
    /// retaining (m, l) per token (2 floats vs the 2·d floats of cached
    /// K/V) keeps the door open for retro-folding edge sets into
    /// already-emitted rows (prefix dedup, speculative repair).
    std::vector<float> m, l;
    std::vector<float> acc;   ///< head_dim decode scratch
    std::uint64_t last_touch = 0;
    bool pinned = false;
    bool evicted = false;
  };

  /// Looks up + LRU-touches under mu_; throws SessionNotFound.
  std::shared_ptr<Session> find_and_touch(std::uint64_t id);

  /// Edges × head_dim that the next `steps` decode steps of session
  /// `id` fold — decode_batch's work estimate. Never throws: an unknown,
  /// evicted or full session counts 0 (decode_step reports it typed).
  std::int64_t decode_work(std::uint64_t id, Index steps) const;

  /// Appends with evict-and-retry: reclaims an orphaned prompt-cache
  /// page first (cheapest — no session dies), then evicts LRU sessions.
  /// Caller holds s->op_mu.
  void append_or_evict(Session& s, const float* k_row, const float* v_row);
  /// Evicts the LRU idle unpinned session other than `self`, sweeping
  /// the prompt-cache entries its departure orphaned so the eviction
  /// actually frees the session's un-shared pages. Returns false when
  /// nothing is evictable; `kvcache.evictions` counts only evictions
  /// that released at least one page (a fully fork-shared session frees
  /// nothing and is not counted).
  bool evict_one(const Session* self);
  /// True iff `page`'s slots byte-match rows [start, start+ps) of k/v.
  bool page_matches(Index page, const Matrix<float>& k, const Matrix<float>& v,
                    Index start) const;

  Config cfg_;
  BlockPool pool_;
  PrefixIndex index_;  ///< pool-wide prompt cache (lock order: mu_ → index → pool)
  mutable std::mutex mu_;
  std::map<std::uint64_t, std::shared_ptr<Session>> sessions_;
  std::uint64_t lru_clock_ = 0;
};

}  // namespace gpa::kvcache
