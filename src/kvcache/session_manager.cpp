#include "kvcache/session_manager.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "common/fnv1a.hpp"
#include "core/kernel_common.hpp"
#include "core/state.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_reduce.hpp"
#include "tensor/softmax.hpp"

namespace gpa::kvcache {
namespace {

namespace trace = obs::trace;

/// Folds a float row's raw bits into a running chain hash.
void mix_row(Fnv1a& f, const float* p, Index n) {
  for (Index i = 0; i < n; ++i) {
    std::uint32_t bits;
    std::memcpy(&bits, p + i, sizeof bits);
    f.mix(bits);
  }
}

// SessionManager's event counters. Gauges for pool occupancy are NOT
// set here — they are refreshed at scrape time (NodeService's Op::Stats
// handler) from pool state, since a gauge updated per-allocation would
// just duplicate the pool's own counters.
struct KvMetrics {
  obs::Counter& prefill_calls;
  obs::Counter& pages_adopted;
  obs::Counter& verify_failures;
  obs::Counter& decode_steps;
  obs::Counter& decode_edges;
  obs::Counter& evictions;

  static KvMetrics& get() {
    static KvMetrics m = [] {
      obs::Registry& reg = obs::Registry::global();
      return KvMetrics{reg.counter("kvcache.prefill.calls"),
                       reg.counter("kvcache.prefill.pages_adopted"),
                       reg.counter("kvcache.prefix.verify_failures"),
                       reg.counter("kvcache.decode.steps"),
                       reg.counter("kvcache.decode.edges"),
                       reg.counter("kvcache.evictions")};
    }();
    return m;
  }
};

}  // namespace

SessionManager::SessionManager(Config cfg) : cfg_(cfg), pool_(cfg.pool) {}

SessionManager::~SessionManager() {
  // Drop the prompt cache's own page references so the pool's books
  // balance for anyone inspecting it during teardown; sessions release
  // through their normal lifecycle.
  index_.clear(pool_);
}

void SessionManager::create(std::uint64_t id, MaskSpec mask) { create(id, std::move(mask), cfg_.opts); }

void SessionManager::create(std::uint64_t id, MaskSpec mask, const AttentionOptions& opts) {
  GPA_CHECK(!mask.components.empty(), "session mask needs at least one traversal component");
  auto s = std::make_shared<Session>();
  s->mask = std::move(mask);
  s->opts = opts;
  std::lock_guard<std::mutex> lk(mu_);
  GPA_CHECK(sessions_.find(id) == sessions_.end(), "session id already exists");
  s->last_touch = ++lru_clock_;
  sessions_.emplace(id, std::move(s));
}

bool SessionManager::contains(std::uint64_t id) const {
  std::lock_guard<std::mutex> lk(mu_);
  return sessions_.find(id) != sessions_.end();
}

Index SessionManager::length(std::uint64_t id) {
  std::shared_ptr<Session> s;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) throw SessionNotFound(id);
    s = it->second;
  }
  std::lock_guard<std::mutex> op(s->op_mu);
  if (s->evicted) throw SessionEvicted(id);
  return s->table.length();
}

void SessionManager::release(std::uint64_t id) {
  std::shared_ptr<Session> s;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return;
    s = std::move(it->second);
    sessions_.erase(it);
  }
  // A racing decode may still hold the shared_ptr: take the op mutex so
  // the pages go back to the pool only once the operation drained.
  std::lock_guard<std::mutex> op(s->op_mu);
  if (!s->evicted) {
    s->evicted = true;
    const std::vector<Index> pages = s->table.pages();
    s->table.release_all(pool_);
    // The pages this session shared with the prompt cache may now be
    // orphans (index-only refs): note them so pressure-time reclaim
    // finds them without scanning the index. They stay cached until
    // then — the cache outliving its sessions is the point.
    index_.note_released(pages);
  }
}

void SessionManager::set_pinned(std::uint64_t id, bool pinned) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) throw SessionNotFound(id);
  it->second->pinned = pinned;
}

std::shared_ptr<SessionManager::Session> SessionManager::find_and_touch(std::uint64_t id) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) throw SessionNotFound(id);
  it->second->last_touch = ++lru_clock_;
  return it->second;
}

bool SessionManager::evict_one(const Session* self) {
  std::lock_guard<std::mutex> lk(mu_);
  // Oldest-first candidate order.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> order;  // (touch, id)
  order.reserve(sessions_.size());
  for (const auto& [id, s] : sessions_) {
    if (s.get() != self && !s->pinned) order.emplace_back(s->last_touch, id);
  }
  std::sort(order.begin(), order.end());
  for (const auto& [touch, id] : order) {
    (void)touch;
    const auto it = sessions_.find(id);
    auto& s = it->second;
    // A session mid-prefill/decode holds its op mutex: try_lock fails
    // and the session survives — eviction only ever takes idle sessions.
    std::unique_lock<std::mutex> op(s->op_mu, std::try_to_lock);
    if (!op.owns_lock()) continue;
    s->evicted = true;
    // Count how much this eviction will actually free BEFORE releasing:
    // a page at refcount 1 goes back to the pool on release; a page the
    // prompt-cache index co-holds becomes an orphan the sweep below
    // frees. Anything else (fork-shared) survives the eviction and must
    // not be counted — evicting a fully-shared session frees nothing.
    const std::vector<Index> pages = s->table.pages();
    Size freed = 0;
    for (const Index p : pages) {
      if (pool_.ref_count(p) == 1) ++freed;
    }
    s->table.release_all(pool_);
    freed += index_.reclaim_orphans_among(pages, pool_);
    op.unlock();
    sessions_.erase(it);
    if (freed > 0) KvMetrics::get().evictions.inc();  // productive evictions only
    return true;
  }
  return false;
}

void SessionManager::append_or_evict(Session& s, const float* k_row, const float* v_row) {
  while (!s.table.append(pool_, k_row, v_row)) {
    // Cheapest first: an orphaned prompt-cache page (held only by the
    // index — every session that wrote or adopted it is gone) frees a
    // page without killing anyone. Only then evict live sessions. The
    // loop terminates: each iteration removes an index entry or a
    // session, both finite, else CacheFull.
    if (index_.reclaim_one_orphan(pool_) > 0) continue;
    if (!evict_one(&s)) throw CacheFull();
  }
}

void SessionManager::fork(std::uint64_t parent, std::uint64_t child) {
  std::shared_ptr<Session> p;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = sessions_.find(parent);
    if (it == sessions_.end()) throw SessionNotFound(parent);
    GPA_CHECK(sessions_.find(child) == sessions_.end(), "fork target id already exists");
    p = it->second;
  }
  auto c = std::make_shared<Session>();
  {
    std::lock_guard<std::mutex> op(p->op_mu);
    if (p->evicted) throw SessionEvicted(parent);
    c->mask = p->mask;
    c->opts = p->opts;
    c->table = p->table.fork(pool_);  // pages shared, refcounts bumped
    c->m = p->m;
    c->l = p->l;
  }
  std::lock_guard<std::mutex> lk(mu_);
  if (sessions_.find(child) != sessions_.end()) {
    c->table.release_all(pool_);  // lost the id race
    throw InvalidArgument("fork target id already exists");
  }
  c->last_touch = ++lru_clock_;
  sessions_.emplace(child, std::move(c));
}

void SessionManager::prefill(std::uint64_t id, const Matrix<float>& q, const Matrix<float>& k,
                             const Matrix<float>& v, Matrix<float>& out) {
  trace::Span span("kvcache.prefill", "kvcache");
  KvMetrics::get().prefill_calls.inc();
  const auto s = find_and_touch(id);
  std::lock_guard<std::mutex> op(s->op_mu);
  if (s->evicted) throw SessionEvicted(id);
  GPA_CHECK(s->table.length() == 0, "prefill requires an empty session (decode extends it)");
  const Index L = q.rows();
  const Index d = q.cols();
  GPA_CHECK(d == pool_.head_dim(), "payload width must match the pool's head dimension");
  GPA_CHECK(s->mask.max_len() < 0 || L <= s->mask.max_len(),
            "prompt longer than the session's CSR mask");

  // Cache first: if the pool cannot hold the prompt even after evicting
  // every idle session, fail before any attention work.
  //
  // With prefix dedup on, full prompt chunks go through the pool-wide
  // index: the chain hash folds the session's mask fingerprint, storage
  // dtype/shape, and every page's content in order, so equal chains mean
  // "same mask family, byte-identical prefix up to here". A hit is
  // byte-verified before adoption (an fnv1a collision degrades to a
  // miss, never to wrong bytes); a miss writes the chunk normally and
  // publishes the just-filled page for future sessions. The partial
  // tail is always written privately — it is the page CoW/decode mutate.
  const Index ps = pool_.page_size();
  std::vector<Index> published;
  Size adopted = 0;
  try {
    Index i = 0;
    if (cfg_.prefix_dedup) {
      Fnv1a chain;
      chain.mix(s->mask.fingerprint());
      // Storage dtype tag: an fp16 pool quantises page payloads, so its
      // chains must never collide with fp32 chains of the same prompt.
      chain.mix(pool_.dtype() == DType::F16 ? 0xF16u : 0xF32u);
      chain.mix(static_cast<std::uint64_t>(d));
      chain.mix(static_cast<std::uint64_t>(ps));
      for (; i + ps <= L; i += ps) {
        for (Index t = i; t < i + ps; ++t) {
          mix_row(chain, k.row(t), d);
          mix_row(chain, v.row(t), d);
        }
        const Index page = index_.acquire(chain.h, pool_);
        if (page != BlockPool::kNoPage) {
          if (page_matches(page, k, v, i)) {
            s->table.adopt_shared_page(pool_, page);  // transfers the acquire ref
            ++adopted;
            continue;
          }
          // Collision: the chain hash matched but the bytes did not —
          // fall through to a private copy. This counter reading > 0 is
          // the byte-verify guard earning its keep.
          KvMetrics::get().verify_failures.inc();
          pool_.release(page);
          index_.note_released({page});
        }
        for (Index t = i; t < i + ps; ++t) append_or_evict(*s, k.row(t), v.row(t));
        if (index_.publish(chain.h, s->table.pages().back(), pool_)) {
          published.push_back(s->table.pages().back());
        }
      }
    }
    for (; i < L; ++i) append_or_evict(*s, k.row(i), v.row(i));
  } catch (...) {
    // Leave the session empty and reusable, and withdraw the entries
    // this prefill just published (they are orphans once the table
    // lets go) — a failed prefill leaves no trace in the prompt cache.
    // Pages ADOPTED from the cache are different: they stay cached, but
    // may now be orphans, so note them for pressure-time reclaim.
    const std::vector<Index> pages = s->table.pages();
    s->table.release_all(pool_);
    index_.reclaim_orphans_among(published, pool_);
    index_.note_released(pages);
    throw;
  }

  // The prompt pass reads the contiguous inputs (cheaper than paging)
  // through the same shared fold and causal row order as the one-shot
  // kernels, so prefill output is bit-identical to a full kernel call.
  SoftmaxState state(L, d);
  AttentionOptions opts = s->opts;
  opts.causal = true;  // sessions are autoregressive by construction
  const std::int64_t work = gated_work(opts.policy, [&] {
    return approx_edges(s->mask.components, L, /*causal=*/true) * static_cast<Size>(d);
  });
  detail::run_rows(q, k, v, opts, state, work, [&](Index i, auto&& edge) {
    s->mask.for_each_causal(i, [&](Index j, float gate) { edge(j, gate); });
  });
  if (!(out.rows() == L && out.cols() == d)) out = Matrix<float>(L, d);
  state.finalize_into(out);

  s->m.resize(static_cast<std::size_t>(L));
  s->l.resize(static_cast<std::size_t>(L));
  for (Index i = 0; i < L; ++i) {
    s->m[static_cast<std::size_t>(i)] = state.m(i);
    s->l[static_cast<std::size_t>(i)] = state.l(i);
  }

  if (adopted > 0) KvMetrics::get().pages_adopted.inc(adopted);
}

bool SessionManager::page_matches(Index page, const Matrix<float>& k, const Matrix<float>& v,
                                  Index start) const {
  const Index ps = pool_.page_size();
  const Index d = pool_.head_dim();
  if (pool_.dtype() == DType::F16) {
    // The page holds narrowed rows: narrow the candidate input the same
    // way (f2h is round-to-nearest-even on every arm, so equal floats
    // give equal half bits) and compare in storage precision.
    const simd::VecOps& vo = simd::ops(SimdLevel::Auto);
    std::vector<half_t> row(static_cast<std::size_t>(d));
    const std::size_t bytes = static_cast<std::size_t>(d) * sizeof(half_t);
    for (Index t = 0; t < ps; ++t) {
      vo.f2h(row.data(), k.row(start + t), d);
      if (std::memcmp(pool_.k_row_h(page, t), row.data(), bytes) != 0) return false;
      vo.f2h(row.data(), v.row(start + t), d);
      if (std::memcmp(pool_.v_row_h(page, t), row.data(), bytes) != 0) return false;
    }
    return true;
  }
  const std::size_t bytes = static_cast<std::size_t>(d) * sizeof(float);
  for (Index t = 0; t < ps; ++t) {
    if (std::memcmp(pool_.k_row(page, t), k.row(start + t), bytes) != 0) return false;
    if (std::memcmp(pool_.v_row(page, t), v.row(start + t), bytes) != 0) return false;
  }
  return true;
}

Index SessionManager::decode_step(std::uint64_t id, const float* q_new, const float* k_new,
                                  const float* v_new, float* out_row) {
  trace::Span span("kvcache.decode_step", "kvcache");
  const auto s = find_and_touch(id);
  std::lock_guard<std::mutex> op(s->op_mu);
  if (s->evicted) throw SessionEvicted(id);
  const Index t = s->table.length();
  GPA_CHECK(s->mask.max_len() < 0 || t < s->mask.max_len(),
            "session reached its CSR mask length — cannot decode further");

  append_or_evict(*s, k_new, v_new);

  const Index d = pool_.head_dim();
  const float scale = detail::resolve_scale(s->opts.scale, d);
  const bool use_gate = s->opts.use_mask_values;
  const simd::VecOps& vo = simd::ops(s->opts.policy.simd);

  s->acc.assign(static_cast<std::size_t>(d), 0.0f);
  float* acc = s->acc.data();
  OnlineSoftmaxRow osr;
  Index edges = 0;
  // One enumeration, one RowFold: the same tiles the one-shot kernel
  // folds for row t.
  if (pool_.dtype() == DType::F16) {
    // Half-width pages: K/V widen on load — output differs from an
    // fp32-page session only by the storage quantisation of the rows.
    detail::RowFold<half_t> fold(vo, q_new, d, scale, use_gate, osr.m, osr.l, acc);
    s->mask.for_each_causal(t, [&](Index j, float gate) {
      fold.add(s->table.k_row_h(pool_, j), s->table.v_row_h(pool_, j), gate);
      ++edges;
    });
    fold.finish();
  } else {
    detail::RowFold<float> fold(vo, q_new, d, scale, use_gate, osr.m, osr.l, acc);
    s->mask.for_each_causal(t, [&](Index j, float gate) {
      fold.add(s->table.k_row(pool_, j), s->table.v_row(pool_, j), gate);
      ++edges;
    });
    fold.finish();
  }

  // Same normalisation expression as SoftmaxState::finalize_into, so a
  // decode stream is bit-identical to the full-sequence kernel call.
  const float inv = osr.inv_l();
  for (Index p = 0; p < d; ++p) out_row[p] = acc[p] * inv;

  s->m.push_back(osr.m);
  s->l.push_back(osr.l);
  KvMetrics& km = KvMetrics::get();
  km.decode_steps.inc();
  km.decode_edges.inc(static_cast<std::uint64_t>(edges));
  return edges;
}

Index SessionManager::decode_step(std::uint64_t id, const Matrix<float>& q_new,
                                  const Matrix<float>& k_new, const Matrix<float>& v_new,
                                  Matrix<float>& out_row) {
  GPA_CHECK(q_new.rows() == 1 && k_new.rows() == 1 && v_new.rows() == 1,
            "decode_step takes one token (1×d payloads)");
  GPA_CHECK(q_new.cols() == pool_.head_dim() && q_new.same_shape(k_new) &&
                q_new.same_shape(v_new),
            "decode payload width must match the pool's head dimension");
  if (!out_row.same_shape(q_new)) out_row = Matrix<float>(1, q_new.cols());
  return decode_step(id, q_new.row(0), k_new.row(0), v_new.row(0), out_row.row(0));
}

Index SessionManager::decode_batch(std::vector<DecodeBatchItem>& items,
                                   const ExecPolicy& policy) {
  // Group by session, preserving item order within each group: one
  // session's steps must fold in token order (the ordering contract in
  // the header), while different sessions are independent and form the
  // parallel grain. std::map keys ascend, so the group order — and with
  // it the reduction tree — is deterministic for a given item set.
  std::map<std::uint64_t, std::vector<std::size_t>> by_session;
  for (std::size_t i = 0; i < items.size(); ++i) {
    by_session[items[i].session_id].push_back(i);
  }
  std::vector<const std::vector<std::size_t>*> groups;
  groups.reserve(by_session.size());
  for (const auto& [sid, idx] : by_session) groups.push_back(&idx);

  // The per-group fold count reduces through the substrate: called
  // from inside a parallel region it runs serially (nesting guard);
  // otherwise the work gate spreads the sessions across threads only
  // when their rows carry enough work to pay for the fork.
  const std::int64_t work = gated_work(policy, [&] {
    std::int64_t sum = 0;
    for (const auto& [sid, idx] : by_session) {
      sum += decode_work(sid, static_cast<Index>(idx.size()));
    }
    return sum;
  });
  return parallel_reduce(
      Index{0}, static_cast<Index>(groups.size()), Index{0},
      [&](Index lo, Index hi, Index partial) {
        for (Index g = lo; g < hi; ++g) {
          for (const std::size_t i : *groups[static_cast<std::size_t>(g)]) {
            DecodeBatchItem& it = items[i];
            try {
              it.edges = decode_step(it.session_id, it.q, it.k, it.v, it.out);
              it.outcome = DecodeBatchItem::Outcome::Ok;
              partial += it.edges;
            } catch (const SessionError&) {
              it.outcome = DecodeBatchItem::Outcome::SessionError;
            } catch (const std::exception&) {
              it.outcome = DecodeBatchItem::Outcome::Error;
            }
          }
        }
        return partial;
      },
      [](Index a, Index b) { return a + b; }, policy, work);
}

std::int64_t SessionManager::decode_work(std::uint64_t id, Index steps) const {
  std::shared_ptr<Session> s;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return 0;
    s = it->second;
  }
  std::lock_guard<std::mutex> op(s->op_mu);
  if (s->evicted) return 0;
  const Index first = s->table.length();
  const Index max_len = s->mask.max_len();
  Size edges = 0;
  for (Index t = first; t < first + steps && (max_len < 0 || t < max_len); ++t) {
    for (const MaskTraversal& tr : s->mask.components) edges += tr.row_degree(t, t + 1, true);
  }
  return static_cast<std::int64_t>(edges) * pool_.head_dim();
}

SessionManager::Stats SessionManager::stats() const {
  Stats st;
  {
    std::lock_guard<std::mutex> lk(mu_);
    st.sessions = sessions_.size();
  }
  st.prefix_entries = index_.entries();
  st.pages_in_use = pool_.pages_in_use();
  st.pages_free = pool_.pages_free();
  return st;
}

}  // namespace gpa::kvcache
