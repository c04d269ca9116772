#pragma once
// Pool-wide prompt cache: a content-hash index over FULL, immutable
// prompt pages, so identical prefixes from *unrelated* sessions share
// pages without an explicit fork (vLLM-style paged prefix caching).
//
// Key structure. An entry's key is a CHAIN hash: fnv1a over
// (mask fingerprint, dtype, head_dim, page_size) seeded once per
// session, then extended page by page with the content hash of each
// full page's K/V rows. Extending by content gives radix/trie
// semantics without storing a trie — "same chain key" means "same mask
// family AND byte-identical token prefix up to and including this
// page" (prefill additionally byte-verifies the candidate page before
// adopting it, so an fnv1a collision degrades to a miss, never to
// wrong numerics).
//
// Ownership. The index holds ONE pool reference per entry — that is
// what keeps a cached page alive after every referencing session is
// gone (the prompt cache outliving its sessions is the whole point)
// and what makes acquire() race-free: while an entry exists its page
// cannot be freed or recycled, so retain-under-the-index-mutex can
// never resurrect a dead page. Published pages are full, and full
// pages are never rewritten by PageTable (CoW only ever copies partial
// tails), so entry payloads are immutable for the life of the entry.
//
// Reclaim policy. Entries are dropped lazily, under memory pressure
// only: an ORPHAN (refcount 1 — the index's own ref is the last) is
// the cheapest page in the pool to free, so SessionManager's
// evict-and-retry loop reclaims orphans before it evicts any live
// session, and a session eviction sweeps the pages it just orphaned.
// A page still referenced by any session is never reclaimable through
// the index — eviction is refcount-aware by construction.
//
// Among orphans, reclaim is ADMISSION-WEIGHTED: each entry carries a
// hit counter (bumped per acquire()), and reclaim_one_orphan frees the
// least-hit orphan it can see. A page that has served prefix hits is
// evidence its prompt recurs; a never-hit orphan was published once
// and never matched, so it is the first to go under pressure.
//
// Counters. Lookups, hits, misses, publishes and reclaims are counted
// only in the process registry (`kvcache.prefix.*`); entries() is the
// one figure read from the index itself.

#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "kvcache/block_pool.hpp"

namespace gpa::kvcache {

class PrefixIndex {
 public:
  /// Hit: retains `chain`'s page FOR THE CALLER (on top of the index's
  /// own reference) and returns it; the caller must byte-verify the
  /// content and release on mismatch. Miss: kNoPage.
  Index acquire(std::uint64_t chain, BlockPool& pool);

  /// Registers `page` (which must be full and owned by the caller)
  /// under `chain`, taking the index's own reference. Returns false —
  /// and takes no reference — when an entry already exists (a
  /// concurrent identical prefill won the publish race; both sessions
  /// keep their own pages, future lookups hit the first).
  bool publish(std::uint64_t chain, Index page, BlockPool& pool);

  /// Records pages some holder just released a reference to, so the
  /// next reclaim probes them first instead of scanning the whole
  /// index. Pages without an entry are ignored; noting a page that
  /// turns out not to be an orphan is harmless (reclaim re-checks the
  /// refcount and the holder's own later release re-notes it).
  void note_released(const std::vector<Index>& pages);

  /// Frees ONE orphan entry (page refcount 1: nothing but the index
  /// holds it) — the LEAST-HIT orphan among the noted candidates, or
  /// among the whole index when no candidate pans out. Returns pages
  /// freed (0 or 1). The memory-pressure valve: cheaper than evicting
  /// any live session, and hit-weighted so never-hit orphans go before
  /// pages that have actually served prefix hits.
  Size reclaim_one_orphan(BlockPool& pool);

  /// Frees every orphan among `pages` — the targeted sweep a session
  /// eviction runs over the pages it just released, so "evict session"
  /// reliably frees its un-shared prompt pages instead of leaving them
  /// stranded behind the index's reference. Returns pages freed.
  Size reclaim_orphans_among(const std::vector<Index>& pages, BlockPool& pool);

  /// Frees every orphan entry (teardown / tests). Returns pages freed.
  Size reclaim_all_orphans(BlockPool& pool);

  /// Drops every entry and releases the index's references regardless
  /// of refcount (manager teardown only — sessions are gone by then).
  void clear(BlockPool& pool);

  /// Live entries (== pages the index holds).
  Index entries() const;

 private:
  /// Erases the entry for `page` and releases the index's reference;
  /// caller holds mu_ and has checked the entry exists.
  void drop_entry_locked(Index page, BlockPool& pool);

  struct Entry {
    std::uint64_t chain = 0;
    Size hits = 0;  ///< acquire() count — reclaim frees min-hit orphans first
  };

  mutable std::mutex mu_;
  std::map<std::uint64_t, Index> by_chain_;  ///< chain key → page
  std::map<Index, Entry> by_page_;           ///< reverse (targeted reclaim + hits)
  std::set<Index> candidates_;               ///< note_released'd likely orphans
};

}  // namespace gpa::kvcache
