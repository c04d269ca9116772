#include "kvcache/prefix_index.hpp"

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace gpa::kvcache {

namespace {

// The prompt cache's counters (hits + misses == lookups).
struct PrefixMetrics {
  obs::Counter& lookups;
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& published;
  obs::Counter& reclaimed;

  static PrefixMetrics& get() {
    static PrefixMetrics m = [] {
      obs::Registry& reg = obs::Registry::global();
      return PrefixMetrics{reg.counter("kvcache.prefix.lookups"),
                           reg.counter("kvcache.prefix.hits"),
                           reg.counter("kvcache.prefix.misses"),
                           reg.counter("kvcache.prefix.published"),
                           reg.counter("kvcache.prefix.reclaimed")};
    }();
    return m;
  }
};

}  // namespace

Index PrefixIndex::acquire(std::uint64_t chain, BlockPool& pool) {
  std::lock_guard<std::mutex> lk(mu_);
  PrefixMetrics::get().lookups.inc();
  const auto it = by_chain_.find(chain);
  if (it == by_chain_.end()) {
    PrefixMetrics::get().misses.inc();
    return BlockPool::kNoPage;
  }
  // Retain while still under mu_: the index's own reference keeps the
  // page live, so this can never race a concurrent free/recycle.
  pool.retain(it->second);
  PrefixMetrics::get().hits.inc();
  ++by_page_.find(it->second)->second.hits;
  return it->second;
}

bool PrefixIndex::publish(std::uint64_t chain, Index page, BlockPool& pool) {
  std::lock_guard<std::mutex> lk(mu_);
  if (by_chain_.find(chain) != by_chain_.end()) return false;
  GPA_CHECK(by_page_.find(page) == by_page_.end(),
            "page already published under a different chain");
  pool.retain(page);
  by_chain_.emplace(chain, page);
  by_page_.emplace(page, Entry{chain, 0});
  PrefixMetrics::get().published.inc();
  return true;
}

void PrefixIndex::drop_entry_locked(Index page, BlockPool& pool) {
  const auto rit = by_page_.find(page);
  by_chain_.erase(rit->second.chain);
  by_page_.erase(rit);
  candidates_.erase(page);
  pool.release(page);
  PrefixMetrics::get().reclaimed.inc();
}

void PrefixIndex::note_released(const std::vector<Index>& pages) {
  std::lock_guard<std::mutex> lk(mu_);
  for (const Index page : pages) {
    if (by_page_.find(page) != by_page_.end()) candidates_.insert(page);
  }
}

Size PrefixIndex::reclaim_one_orphan(BlockPool& pool) {
  std::lock_guard<std::mutex> lk(mu_);
  // Probe noted candidates first: the release paths that can turn an
  // entry into an orphan note the pages they let go of, so sustained
  // pressure stays a candidate-set scan per freed page instead of a
  // full index scan (with a pool-mutex refcount read per entry) per
  // allocation retry. Among the candidates that really are orphans the
  // LEAST-HIT one is freed; the others stay noted for the next call.
  Index best = BlockPool::kNoPage;
  Size best_hits = 0;
  for (auto it = candidates_.begin(); it != candidates_.end();) {
    const Index page = *it;
    const auto eit = by_page_.find(page);
    if (eit == by_page_.end()) {
      it = candidates_.erase(it);  // stale: entry already reclaimed
      continue;
    }
    if (pool.ref_count(page) != 1) {
      // Still shared — the remaining holder's own release re-notes it.
      it = candidates_.erase(it);
      continue;
    }
    if (best == BlockPool::kNoPage || eit->second.hits < best_hits) {
      best = page;
      best_hits = eit->second.hits;
    }
    ++it;
  }
  if (best != BlockPool::kNoPage) {
    drop_entry_locked(best, pool);
    return 1;
  }
  // Fallback sweep: a correctness net for orphans no release path
  // noted, not the fast path. Same min-hit rule over the whole index.
  for (const auto& [page, entry] : by_page_) {
    // refcount 1 == only the index holds it. Nothing can retain it
    // behind our back: acquire() needs mu_ (held), and a session fork
    // only retains pages the parent already references (count >= 2).
    if (pool.ref_count(page) != 1) continue;
    if (best == BlockPool::kNoPage || entry.hits < best_hits) {
      best = page;
      best_hits = entry.hits;
    }
  }
  if (best != BlockPool::kNoPage) {
    drop_entry_locked(best, pool);
    return 1;
  }
  return 0;
}

Size PrefixIndex::reclaim_orphans_among(const std::vector<Index>& pages, BlockPool& pool) {
  std::lock_guard<std::mutex> lk(mu_);
  Size freed = 0;
  for (const Index page : pages) {
    if (by_page_.find(page) == by_page_.end()) continue;
    if (pool.ref_count(page) != 1) continue;
    drop_entry_locked(page, pool);
    ++freed;
  }
  return freed;
}

Size PrefixIndex::reclaim_all_orphans(BlockPool& pool) {
  std::lock_guard<std::mutex> lk(mu_);
  Size freed = 0;
  for (auto it = by_page_.begin(); it != by_page_.end();) {
    const Index page = it->first;
    ++it;  // drop_entry_locked invalidates the entry's iterator
    if (pool.ref_count(page) == 1) {
      drop_entry_locked(page, pool);
      ++freed;
    }
  }
  return freed;
}

void PrefixIndex::clear(BlockPool& pool) {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [page, entry] : by_page_) {
    (void)entry;
    pool.release(page);
  }
  by_chain_.clear();
  by_page_.clear();
  candidates_.clear();
}

Index PrefixIndex::entries() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<Index>(by_chain_.size());
}

}  // namespace gpa::kvcache
