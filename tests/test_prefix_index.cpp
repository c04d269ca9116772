// Prompt-cache (prefix dedup) tests: the pool-wide content-hash index
// must make N identical prompts cost ONE session's full pages (+ each
// session's private tail), must never change a single output bit
// relative to a dedup-disabled manager, must keep cached pages alive
// after their sessions die (that is the prompt cache), and must hand
// those orphans back under memory pressure before any live session is
// evicted. Plus the raw PrefixIndex ownership contract and a
// TSan-visible prefill-vs-reclaim race.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "counter_deltas.hpp"
#include "kvcache/kvcache.hpp"
#include "tensor/tensor_ops.hpp"

namespace gpa::kvcache {
namespace {

SessionManager::Config dedup_config(Index d, Index page_size, Index num_pages,
                                    bool dedup = true) {
  SessionManager::Config mc;
  mc.pool.page_size = page_size;
  mc.pool.head_dim = d;
  mc.pool.num_pages = num_pages;
  mc.prefix_dedup = dedup;
  return mc;
}

struct Prompt {
  Matrix<float> q, k, v;
};

Prompt make_prompt(Index n, Index d, std::uint64_t seed) {
  Prompt p{Matrix<float>(n, d), Matrix<float>(n, d), Matrix<float>(n, d)};
  Rng rng(seed);
  fill_uniform(p.q, rng);
  fill_uniform(p.k, rng);
  fill_uniform(p.v, rng);
  return p;
}

// --- PrefixIndex: raw ownership contract -----------------------------

TEST(PrefixIndexTest, PublishAcquireReclaimLifecycle) {
  const CounterDeltas delta;
  BlockPool pool({/*page_size=*/4, /*head_dim=*/8, /*num_pages=*/4});
  PrefixIndex idx;

  EXPECT_EQ(idx.acquire(42, pool), BlockPool::kNoPage);  // cold miss

  const Index p = pool.allocate();
  ASSERT_TRUE(idx.publish(42, p, pool));  // index takes its own ref
  EXPECT_EQ(pool.ref_count(p), 2);

  // A losing publish under the same chain takes no reference.
  const Index q = pool.allocate();
  EXPECT_FALSE(idx.publish(42, q, pool));
  EXPECT_EQ(pool.ref_count(q), 1);
  pool.release(q);

  // acquire retains FOR THE CALLER on top of the index's ref.
  EXPECT_EQ(idx.acquire(42, pool), p);
  EXPECT_EQ(pool.ref_count(p), 3);
  pool.release(p);  // caller changed its mind (content mismatch path)

  // Not an orphan while the allocator's caller still holds it.
  EXPECT_EQ(idx.reclaim_one_orphan(pool), 0u);
  pool.release(p);  // now only the index holds it
  EXPECT_EQ(pool.ref_count(p), 1);
  EXPECT_EQ(idx.reclaim_one_orphan(pool), 1u);
  EXPECT_EQ(pool.pages_in_use(), 0);
  EXPECT_EQ(idx.acquire(42, pool), BlockPool::kNoPage);  // entry is gone

  EXPECT_EQ(delta("kvcache.prefix.lookups"), 3u);
  EXPECT_EQ(delta("kvcache.prefix.hits"), 1u);
  EXPECT_EQ(delta("kvcache.prefix.misses"), 2u);
  EXPECT_EQ(delta("kvcache.prefix.published"), 1u);
  EXPECT_EQ(delta("kvcache.prefix.reclaimed"), 1u);
  EXPECT_EQ(idx.entries(), 0);
}

TEST(PrefixIndexTest, TargetedSweepFreesOnlyOrphansAmongTheGivenPages) {
  BlockPool pool({4, 8, 4});
  PrefixIndex idx;
  const Index a = pool.allocate();  // will become an orphan
  const Index b = pool.allocate();  // stays shared (a live session's page)
  const Index c = pool.allocate();  // orphan, but not in the sweep set
  ASSERT_TRUE(idx.publish(1, a, pool));
  ASSERT_TRUE(idx.publish(2, b, pool));
  ASSERT_TRUE(idx.publish(3, c, pool));
  pool.release(a);
  pool.release(c);

  EXPECT_EQ(idx.reclaim_orphans_among({a, b}, pool), 1u);  // a only
  EXPECT_EQ(pool.ref_count(b), 2);
  EXPECT_EQ(idx.acquire(3, pool), c);  // c survived the targeted sweep
  pool.release(c);

  EXPECT_EQ(idx.reclaim_all_orphans(pool), 1u);  // c
  idx.clear(pool);                               // drops b's entry unconditionally
  pool.release(b);
  EXPECT_EQ(pool.pages_in_use(), 0);
}

TEST(PrefixIndexTest, NotedCandidatesDriveReclaimAndStaleNotesAreHarmless) {
  BlockPool pool({4, 8, 8});
  PrefixIndex idx;
  const Index a = pool.allocate();
  const Index b = pool.allocate();
  const Index stray = pool.allocate();  // never published
  ASSERT_TRUE(idx.publish(1, a, pool));
  ASSERT_TRUE(idx.publish(2, b, pool));

  // Noting a non-entry is ignored; noting a still-held entry is
  // harmless — reclaim re-checks the refcount and frees nothing.
  idx.note_released({stray, a});
  EXPECT_EQ(idx.reclaim_one_orphan(pool), 0u);

  pool.release(a);         // a's last outside ref goes…
  idx.note_released({a});  // …and the releasing holder notes it
  EXPECT_EQ(idx.reclaim_one_orphan(pool), 1u);
  EXPECT_EQ(idx.acquire(1, pool), BlockPool::kNoPage);  // a's entry gone
  EXPECT_EQ(idx.acquire(2, pool), b);                   // b untouched
  pool.release(b);

  // An orphan nobody noted still falls to the fallback sweep.
  pool.release(b);
  EXPECT_EQ(idx.reclaim_one_orphan(pool), 1u);
  pool.release(stray);
  EXPECT_EQ(pool.pages_in_use(), 0);
}

TEST(PrefixIndexTest, ReclaimFreesNeverHitOrphansBeforeHotOnes) {
  // Admission-weighted reclaim: each acquire() bumps the entry's hit
  // counter, and reclaim_one_orphan frees the LEAST-HIT orphan — both
  // on the noted-candidate fast path and on the fallback sweep. A page
  // that has served prefix hits outlives one nobody ever matched.
  BlockPool pool({4, 8, 8});
  PrefixIndex idx;
  const Index cold = pool.allocate();  // published, never acquired
  const Index warm = pool.allocate();  // acquired once
  const Index hot = pool.allocate();   // acquired twice
  ASSERT_TRUE(idx.publish(10, cold, pool));
  ASSERT_TRUE(idx.publish(20, warm, pool));
  ASSERT_TRUE(idx.publish(30, hot, pool));
  EXPECT_EQ(idx.acquire(20, pool), warm);
  EXPECT_EQ(idx.acquire(30, pool), hot);
  EXPECT_EQ(idx.acquire(30, pool), hot);
  pool.release(warm);
  pool.release(hot);
  pool.release(hot);

  // All three are orphans now; every one is a noted candidate.
  for (const Index p : {cold, warm, hot}) pool.release(p);
  idx.note_released({cold, warm, hot});

  // Candidate path: cold (0 hits) goes before warm (1) and hot (2).
  EXPECT_EQ(idx.reclaim_one_orphan(pool), 1u);
  EXPECT_EQ(idx.acquire(10, pool), BlockPool::kNoPage);  // cold went first
  EXPECT_EQ(idx.acquire(20, pool), warm);
  EXPECT_EQ(idx.acquire(30, pool), hot);

  // Both survivors are held again, so this reclaim frees nothing and
  // drops the now-shared candidates — the next round must come out of
  // the fallback sweep.
  EXPECT_EQ(idx.reclaim_one_orphan(pool), 0u);
  pool.release(warm);
  pool.release(hot);

  // Fallback path (nothing noted): same min-hit ordering.
  EXPECT_EQ(idx.reclaim_one_orphan(pool), 1u);
  EXPECT_EQ(idx.acquire(20, pool), BlockPool::kNoPage);  // warm next
  EXPECT_EQ(idx.acquire(30, pool), hot);  // the hot page survives longest
  pool.release(hot);
  EXPECT_EQ(idx.reclaim_one_orphan(pool), 1u);
  EXPECT_EQ(pool.pages_in_use(), 0);
}

// --- the differential page-budget gate -------------------------------

TEST(PrefixDedup, IdenticalPromptsUseOneSessionsFullPages) {
  const Index d = 8, ps = 4, L = 10;  // 2 full pages + a 2-token tail
  constexpr int kSessions = 4;
  SessionManager mgr(dedup_config(d, ps, 32));
  SessionManager undeduped(dedup_config(d, ps, 32, /*dedup=*/false));
  const CounterDeltas delta;

  const Prompt prompt = make_prompt(L, d, 77);
  std::vector<Matrix<float>> outs;
  for (int s = 1; s <= kSessions; ++s) {
    mgr.create(static_cast<std::uint64_t>(s), MaskSpec::make_local(LocalParams{3}));
    undeduped.create(static_cast<std::uint64_t>(s), MaskSpec::make_local(LocalParams{3}));
    outs.emplace_back();
    mgr.prefill(static_cast<std::uint64_t>(s), prompt.q, prompt.k, prompt.v, outs.back());
  }

  // Page budget: one session's 3 pages + one private tail per extra
  // session — not kSessions × 3.
  EXPECT_EQ(mgr.pool().pages_in_use(), 3 + (kSessions - 1));
  EXPECT_EQ(delta("kvcache.prefill.pages_adopted"), static_cast<Size>(kSessions - 1) * 2);
  EXPECT_EQ(delta("kvcache.prefix.lookups"), static_cast<Size>(kSessions) * 2);
  EXPECT_EQ(delta("kvcache.prefix.hits"), static_cast<Size>(kSessions - 1) * 2);
  EXPECT_EQ(delta("kvcache.prefix.published"), 2u);
  EXPECT_EQ(mgr.stats().prefix_entries, 2);

  // Numerics are untouched by sharing: every session's prefill output
  // is bit-identical to the dedup-disabled manager's.
  const std::uint64_t adopted = delta("kvcache.prefill.pages_adopted");
  for (int s = 1; s <= kSessions; ++s) {
    Matrix<float> want;
    undeduped.prefill(static_cast<std::uint64_t>(s), prompt.q, prompt.k, prompt.v, want);
    EXPECT_EQ(max_abs_diff(outs[static_cast<std::size_t>(s - 1)], want), 0.0) << "session " << s;
  }
  EXPECT_EQ(undeduped.pool().pages_in_use(), kSessions * 3);
  EXPECT_EQ(delta("kvcache.prefill.pages_adopted"), adopted);  // undeduped adopted none
}

TEST(PrefixDedup, DecodeOverAdoptedPagesIsBitIdenticalToUndeduped) {
  const Index d = 16, ps = 4, L = 8, kSteps = 6;
  SessionManager mgr(dedup_config(d, ps, 64));
  SessionManager undeduped(dedup_config(d, ps, 64, /*dedup=*/false));
  const CounterDeltas delta;

  const Prompt prompt = make_prompt(L, d, 901);
  for (std::uint64_t s = 1; s <= 2; ++s) {
    Matrix<float> out_a, out_b;
    mgr.create(s, MaskSpec::make_local(LocalParams{4}));
    undeduped.create(s, MaskSpec::make_local(LocalParams{4}));
    mgr.prefill(s, prompt.q, prompt.k, prompt.v, out_a);
    undeduped.prefill(s, prompt.q, prompt.k, prompt.v, out_b);
    ASSERT_EQ(max_abs_diff(out_a, out_b), 0.0);
  }
  ASSERT_EQ(delta("kvcache.prefill.pages_adopted"), 2u);  // session 2 adopted both pages

  // Sessions diverge after the shared prompt: per-session continuations
  // must fold over the shared pages bit-identically to private copies.
  for (std::uint64_t s = 1; s <= 2; ++s) {
    Rng rng(s * 31 + 7);
    Matrix<float> row(1, d), got(1, d), want(1, d);
    for (Index t = 0; t < kSteps; ++t) {
      fill_uniform(row, rng);
      mgr.decode_step(s, row, row, row, got);
      undeduped.decode_step(s, row, row, row, want);
      ASSERT_EQ(max_abs_diff(got, want), 0.0) << "session " << s << " token " << t;
    }
  }
}

TEST(PrefixDedup, DifferentMaskFamiliesNeverShareAChain) {
  // The chain key is seeded with the mask fingerprint: identical bytes
  // under different mask families stay separate entries (a session must
  // only ever adopt pages published under its own family).
  const Index d = 8, ps = 4, L = 8;
  const CounterDeltas delta;
  SessionManager mgr(dedup_config(d, ps, 32));
  const Prompt prompt = make_prompt(L, d, 5);
  Matrix<float> out;
  mgr.create(1, MaskSpec::make_local(LocalParams{2}));
  mgr.prefill(1, prompt.q, prompt.k, prompt.v, out);
  mgr.create(2, MaskSpec::make_local(LocalParams{3}));
  mgr.prefill(2, prompt.q, prompt.k, prompt.v, out);

  EXPECT_EQ(delta("kvcache.prefix.hits"), 0u);
  EXPECT_EQ(delta("kvcache.prefill.pages_adopted"), 0u);
  EXPECT_EQ(mgr.pool().pages_in_use(), 4);  // two private copies
  EXPECT_EQ(mgr.stats().prefix_entries, 4);
}

// --- the cache outliving its sessions --------------------------------

TEST(PrefixDedup, PromptCacheSurvivesSessionReleaseAndServesNewSessions) {
  const Index d = 8, ps = 4, L = 8;  // exactly 2 full pages, no tail
  const CounterDeltas delta;
  SessionManager mgr(dedup_config(d, ps, 32));
  const Prompt prompt = make_prompt(L, d, 404);
  Matrix<float> first_out;
  mgr.create(1, MaskSpec::make_local(LocalParams{3}));
  mgr.prefill(1, prompt.q, prompt.k, prompt.v, first_out);
  mgr.release(1);

  // The session is gone; its published pages are not.
  EXPECT_EQ(mgr.pool().pages_in_use(), 2);
  EXPECT_EQ(mgr.stats().prefix_entries, 2);

  // An unrelated later session with the same prompt adopts them all:
  // zero new pages, same bits out.
  Matrix<float> out;
  mgr.create(2, MaskSpec::make_local(LocalParams{3}));
  mgr.prefill(2, prompt.q, prompt.k, prompt.v, out);
  EXPECT_EQ(mgr.pool().pages_in_use(), 2);
  EXPECT_EQ(mgr.length(2), L);
  EXPECT_EQ(delta("kvcache.prefill.pages_adopted"), 2u);
  EXPECT_EQ(max_abs_diff(out, first_out), 0.0);
}

TEST(PrefixDedup, OrphansAreReclaimedBeforeAnySessionIsEvicted) {
  const Index d = 8, ps = 4;
  const CounterDeltas delta;
  SessionManager mgr(dedup_config(d, ps, 4));  // 16-token pool
  const Prompt a = make_prompt(8, d, 1);
  Matrix<float> out;
  mgr.create(1, MaskSpec::make_local(LocalParams{3}));
  mgr.prefill(1, a.q, a.k, a.v, out);
  mgr.release(1);  // 2 cached orphans remain

  // A 16-token prompt needs the whole pool: the two orphans must be
  // handed back (cheapest pages in the pool) — no eviction, no error.
  const Prompt b = make_prompt(16, d, 2);
  mgr.create(2, MaskSpec::make_local(LocalParams{3}));
  mgr.prefill(2, b.q, b.k, b.v, out);

  EXPECT_EQ(mgr.length(2), 16);
  EXPECT_EQ(delta("kvcache.prefix.reclaimed"), 2u);
  EXPECT_EQ(delta("kvcache.evictions"), 0u);
  EXPECT_EQ(mgr.pool().pages_in_use(), 4);
  EXPECT_EQ(mgr.stats().prefix_entries, 4);  // prompt b's pages are now the cache
}

TEST(PrefixDedup, FailedPrefillLeavesNoNewCacheEntries) {
  const Index d = 8, ps = 4;
  SessionManager mgr(dedup_config(d, ps, 2));
  const Prompt p = make_prompt(12, d, 9);  // needs 3 pages, pool has 2
  Matrix<float> out;
  mgr.create(1, MaskSpec::make_local(LocalParams{3}));
  EXPECT_THROW(mgr.prefill(1, p.q, p.k, p.v, out), CacheFull);

  // The failed prefill unwound everything it created — pages AND the
  // entries it published for them (a cache entry for a prompt nobody
  // completed would be correct but dead weight).
  EXPECT_TRUE(mgr.contains(1));
  EXPECT_EQ(mgr.length(1), 0);
  EXPECT_EQ(mgr.pool().pages_in_use(), 0);
  EXPECT_EQ(mgr.stats().prefix_entries, 0);
}

// --- concurrency: dedup vs eviction/reclaim (TSan leg) ----------------

TEST(PrefixDedupConcurrency, ConcurrentIdenticalPrefillsRaceReclaimCleanly) {
  // Hot threads prefill the SAME prompt into fresh sessions and release
  // them; churn threads push distinct prompts through a pool sized so
  // orphan reclaim and session eviction constantly rip pages out from
  // under the dedup lookups. Every successful prefill must still match
  // the reference bitwise — an acquire racing a reclaim may only ever
  // degrade to a miss.
  const Index d = 8, ps = 4, L = 12;
  SessionManager mgr(dedup_config(d, ps, 12));
  const Prompt shared_prompt = make_prompt(L, d, 1234);

  Matrix<float> want;
  {
    SessionManager ref(dedup_config(d, ps, 12, /*dedup=*/false));
    ref.create(1, MaskSpec::make_local(LocalParams{3}));
    ref.prefill(1, shared_prompt.q, shared_prompt.k, shared_prompt.v, want);
  }

  constexpr int kHot = 3, kChurn = 2, kIters = 24;
  std::atomic<std::uint64_t> next_id{1};
  std::atomic<int> hot_ok{0};
  std::vector<std::thread> threads;
  for (int h = 0; h < kHot; ++h) {
    threads.emplace_back([&] {
      Matrix<float> out;
      for (int i = 0; i < kIters; ++i) {
        const std::uint64_t id = next_id.fetch_add(1);
        mgr.create(id, MaskSpec::make_local(LocalParams{3}));
        try {
          mgr.prefill(id, shared_prompt.q, shared_prompt.k, shared_prompt.v, out);
          EXPECT_EQ(max_abs_diff(out, want), 0.0);
          hot_ok.fetch_add(1, std::memory_order_relaxed);
        } catch (const SessionError&) {
          // CacheFull under churn pressure is acceptable; wrong bits are not.
        }
        mgr.release(id);
      }
    });
  }
  for (int c = 0; c < kChurn; ++c) {
    threads.emplace_back([&, c] {
      Matrix<float> out;
      for (int i = 0; i < kIters; ++i) {
        const std::uint64_t id = next_id.fetch_add(1);
        const Prompt p = make_prompt(8, d, 9000 + static_cast<std::uint64_t>(c * kIters + i));
        mgr.create(id, MaskSpec::make_local(LocalParams{3}));
        try {
          mgr.prefill(id, p.q, p.k, p.v, out);
        } catch (const SessionError&) {
        }
        mgr.release(id);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_GT(hot_ok.load(), 0);
  EXPECT_EQ(mgr.stats().sessions, 0u);
  // Sessions are gone; whatever pages remain are all index-held cache
  // entries, every one reclaimable.
  const auto st = mgr.stats();
  EXPECT_EQ(st.pages_in_use, st.prefix_entries);
}

// --- stats invariants under churn ------------------------------------

// Randomized publish/acquire/release/reclaim churn on the raw index.
// After every operation the registry counters (kvcache.prefix.*) equal
// the events the test itself caused: lookups are acquire calls, hits
// the acquires that returned a page, misses the rest, publishes the
// successful publish calls, reclaims the pages the reclaim calls
// returned. Live entries equal published minus reclaimed.
TEST(PrefixIndexStats, ChurnMovesRegistryCountersByExactlyItsOwnEvents) {
  const CounterDeltas delta;
  BlockPool pool({/*page_size=*/4, /*head_dim=*/8, /*num_pages=*/16});
  PrefixIndex idx;

  Rng rng(7);
  std::uint64_t next_chain = 1;
  std::vector<std::uint64_t> chains;       // ever-published chains (may be gone)
  std::vector<Index> caller_held;          // pages we hold a caller ref on
  Size lookups = 0, hits = 0, published = 0, reclaimed = 0;

  for (int round = 0; round < 300; ++round) {
    switch (rng.next_u64() % 4) {
      case 0: {  // publish a fresh page under a fresh chain
        const Index p = pool.allocate();
        if (p == BlockPool::kNoPage) break;
        const std::uint64_t chain = next_chain++;
        ASSERT_TRUE(idx.publish(chain, p, pool));
        ++published;
        chains.push_back(chain);
        caller_held.push_back(p);  // we still hold the allocator's ref
        break;
      }
      case 1: {  // probe a known chain (hit unless reclaimed) or a cold one
        const bool cold = chains.empty() || rng.next_u64() % 3 == 0;
        const std::uint64_t chain =
            cold ? 0xdead0000u + rng.next_u64() % 64
                 : chains[rng.next_u64() % chains.size()];
        const Index p = idx.acquire(chain, pool);
        ++lookups;
        if (p != BlockPool::kNoPage) {
          ++hits;
          caller_held.push_back(p);
        }
        break;
      }
      case 2: {  // drop one caller ref, telling the index about it
        if (caller_held.empty()) break;
        const Index p = caller_held.back();
        caller_held.pop_back();
        pool.release(p);
        idx.note_released({p});
        break;
      }
      default: {  // reclaim under pressure
        reclaimed += rng.next_u64() % 2 == 0 ? idx.reclaim_one_orphan(pool)
                                             : idx.reclaim_all_orphans(pool);
        break;
      }
    }

    ASSERT_EQ(delta("kvcache.prefix.lookups"), lookups);
    ASSERT_EQ(delta("kvcache.prefix.hits"), hits);
    ASSERT_EQ(delta("kvcache.prefix.misses"), lookups - hits);
    ASSERT_EQ(delta("kvcache.prefix.published"), published);
    ASSERT_EQ(delta("kvcache.prefix.reclaimed"), reclaimed);
    ASSERT_EQ(static_cast<Size>(idx.entries()), published - reclaimed);
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(reclaimed, 0u);

  // Wind down: drop our refs, then reclaim everything the index holds.
  for (const Index p : caller_held) pool.release(p);
  idx.reclaim_all_orphans(pool);
  EXPECT_EQ(idx.entries(), 0);
  EXPECT_EQ(pool.pages_in_use(), 0);
}

}  // namespace
}  // namespace gpa::kvcache
