// Tests for the parallel runtime substrate: parallel_for semantics under
// both schedules, the work gate (inline below kGrainWork, forked chunks
// of at least kGrainWork above it), exception propagation, nesting
// degradation, and parallel_reduce determinism. Every case runs on the
// backend this build compiled (OpenMP or std::thread).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "parallel/device_spec.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/parallel_reduce.hpp"
#include "parallel/parallel_region.hpp"

namespace gpa {
namespace {

/// Work far above the gate: the policy's own grain decides the chunks.
constexpr std::int64_t kBigWork = std::int64_t{1} << 40;

TEST(ParallelBackendTest, ReportsTheCompiledSubstrate) {
#if defined(GPA_HAVE_OPENMP)
  EXPECT_EQ(parallel_backend(), "openmp");
#else
  EXPECT_EQ(parallel_backend(), "threads");
#endif
}

class ParallelForSchedules : public ::testing::TestWithParam<Schedule> {};

TEST_P(ParallelForSchedules, VisitsEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 4}) {
    ExecPolicy policy{threads, 16, GetParam()};
    std::vector<std::atomic<int>> visits(257);
    parallel_for(0, 257, policy, kBigWork, [&](Index i) { visits[static_cast<std::size_t>(i)]++; });
    for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
  }
}

TEST_P(ParallelForSchedules, ChunksPartitionTheRange) {
  ExecPolicy policy{3, 10, GetParam()};
  std::mutex mu;
  std::vector<std::pair<Index, Index>> chunks;
  parallel_for_chunks(5, 105, policy, kBigWork, [&](Index lo, Index hi) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(lo, hi);
  });
  Index covered = 0;
  for (const auto& [lo, hi] : chunks) {
    EXPECT_LT(lo, hi);
    EXPECT_GE(lo, 5);
    EXPECT_LE(hi, 105);
    covered += hi - lo;
  }
  EXPECT_EQ(covered, 100);
}

TEST_P(ParallelForSchedules, EmptyRangeIsNoOp) {
  ExecPolicy policy{4, 8, GetParam()};
  bool called = false;
  parallel_for(10, 10, policy, kBigWork, [&](Index) { called = true; });
  parallel_for(10, 5, policy, kBigWork, [&](Index) { called = true; });
  EXPECT_FALSE(called);
}

TEST_P(ParallelForSchedules, ExceptionsPropagateToCaller) {
  ExecPolicy policy{4, 4, GetParam()};
  EXPECT_THROW(
      parallel_for(0, 100, policy, kBigWork,
                   [&](Index i) {
                     if (i == 37) throw std::runtime_error("kernel row failure");
                   }),
      std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(AllSchedules, ParallelForSchedules,
                         ::testing::Values(Schedule::Static, Schedule::Dynamic));

TEST(ParallelForTest, SerialPolicyRunsInline) {
  std::vector<int> order;
  parallel_for(0, 10, ExecPolicy::serial(), kBigWork, [&](Index i) {
    order.push_back(static_cast<int>(i));  // no mutex needed: single thread
  });
  std::vector<int> expect(10);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(order, expect);
}

TEST(ParallelForTest, ResolvedThreadsHonorsExplicitCount) {
  EXPECT_EQ(resolved_threads(ExecPolicy{3, 1, Schedule::Static}), 3);
  EXPECT_GE(resolved_threads(ExecPolicy{0, 1, Schedule::Static}), 1);
}

TEST(ParallelRegionTest, FlagIsSetInsideAndClearedOutside) {
  EXPECT_FALSE(in_parallel_region());
  std::atomic<int> inside{0};
  parallel_for(0, 8, ExecPolicy{2, 1, Schedule::Static}, kBigWork, [&](Index) {
    if (in_parallel_region()) inside++;
  });
  EXPECT_EQ(inside.load(), 8);
  EXPECT_FALSE(in_parallel_region());  // guard restored on exit
}

TEST(ParallelRegionTest, NestedCallsDegradeToSerial) {
  // The oversubscription regression: an outer parallel_for over batch
  // items with an inner parallel_for per item must use the OUTER level's
  // threads only, never the product. Census every thread id the inner
  // loops run on.
  std::mutex mu;
  std::set<std::thread::id> ids;
  parallel_for(0, 4, ExecPolicy{4, 1, Schedule::Static}, kBigWork, [&](Index) {
    EXPECT_TRUE(in_parallel_region());
    EXPECT_EQ(resolved_threads(ExecPolicy{4, 1, Schedule::Static}), 1);
    parallel_for(0, 16, ExecPolicy{4, 1, Schedule::Dynamic}, kBigWork, [&](Index) {
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    });
  });
  EXPECT_LE(ids.size(), 4u);  // outer width; 16 would mean threads multiplied
}

TEST(ParallelRegionTest, SingleItemRangeRunsInlineKeepingInnerParallelism) {
  // A batch of one must not open a region: the item runs on the caller's
  // thread and an inner kernel keeps its own parallelism.
  const std::thread::id caller = std::this_thread::get_id();
  bool checked = false;
  parallel_for(0, 1, ExecPolicy{4, 1, Schedule::Dynamic}, kBigWork, [&](Index) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_FALSE(in_parallel_region());
    EXPECT_GE(resolved_threads(ExecPolicy{4, 1, Schedule::Static}), 4);
    checked = true;
  });
  EXPECT_TRUE(checked);
}

class ParallelReduceSchedules : public ::testing::TestWithParam<Schedule> {};

TEST_P(ParallelReduceSchedules, SumsTheRange) {
  for (const int threads : {1, 2, 4}) {
    for (const Index grain : {Index{1}, Index{7}, Index{64}}) {
      ExecPolicy policy{threads, grain, GetParam()};
      const std::int64_t got = parallel_reduce(
          Index{0}, Index{257}, std::int64_t{0},
          [](Index lo, Index hi, std::int64_t acc) {
            for (Index i = lo; i < hi; ++i) acc += i;
            return acc;
          },
          [](std::int64_t a, std::int64_t b) { return a + b; }, policy, kBigWork);
      EXPECT_EQ(got, 257 * 256 / 2);
    }
  }
}

TEST_P(ParallelReduceSchedules, EmptyRangeReturnsIdentity) {
  ExecPolicy policy{4, 8, GetParam()};
  const auto body = [](Index, Index, int acc) { return acc + 1; };
  const auto comb = [](int a, int b) { return a + b; };
  EXPECT_EQ(parallel_reduce(Index{5}, Index{5}, 42, body, comb, policy, kBigWork), 42);
  EXPECT_EQ(parallel_reduce(Index{9}, Index{5}, 42, body, comb, policy, kBigWork), 42);
}

TEST_P(ParallelReduceSchedules, ExceptionsPropagateToCaller) {
  ExecPolicy policy{4, 4, GetParam()};
  EXPECT_THROW(parallel_reduce(
                   Index{0}, Index{100}, 0.0f,
                   [](Index lo, Index hi, float acc) {
                     for (Index i = lo; i < hi; ++i) {
                       if (i == 61) throw std::runtime_error("partial failure");
                       acc += static_cast<float>(i);
                     }
                     return acc;
                   },
                   [](float a, float b) { return a + b; }, policy, kBigWork),
               std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(AllSchedules, ParallelReduceSchedules,
                         ::testing::Values(Schedule::Static, Schedule::Dynamic));

TEST(ParallelReduceTest, FloatSumIsBitIdenticalAcrossPoliciesAndTheGate) {
  // The determinism contract: the reduction tree is fixed by (n, grain),
  // so serial and any parallel policy produce bit-identical floats —
  // whether the work gate runs the chunks inline (small work) or forks
  // them (large work).
  std::vector<float> xs(1000);
  std::uint32_t s = 1u;
  for (float& x : xs) {
    s = s * 1664525u + 1013904223u;  // LCG: reproducible awkward floats
    x = static_cast<float>(s >> 8) / 16777216.0f - 0.5f;
  }
  const auto body = [&](Index lo, Index hi, float acc) {
    for (Index i = lo; i < hi; ++i) acc += xs[static_cast<std::size_t>(i)];
    return acc;
  };
  const auto comb = [](float a, float b) { return a + b; };
  const Index n = static_cast<Index>(xs.size());
  for (const std::int64_t work : {kGrainWork - 1, 64 * kGrainWork, kBigWork}) {
    for (const Index grain : {Index{1}, Index{7}, Index{64}}) {
      const float serial = parallel_reduce(Index{0}, n, 0.0f, body, comb,
                                           ExecPolicy{1, grain, Schedule::Static}, work);
      for (const int threads : {2, 3, 4}) {
        for (const Schedule sched : {Schedule::Static, Schedule::Dynamic}) {
          const ExecPolicy policy{threads, grain, sched};
          const float par = parallel_reduce(Index{0}, n, 0.0f, body, comb, policy, work);
          EXPECT_EQ(serial, par) << "work " << work << " grain " << grain << " threads "
                                 << threads << " sched " << static_cast<int>(sched);
        }
      }
    }
  }
}

// ---------------------------------------------------------------- //
// The work gate.                                                    //
// ---------------------------------------------------------------- //

struct GateCounts {
  std::uint64_t inline_calls, forked_calls;
  static GateCounts now() {
    obs::Registry& r = obs::Registry::global();
    return {r.counter("parallel.calls.inline").value(), r.counter("parallel.calls.forked").value()};
  }
};

class WorkGate : public ::testing::TestWithParam<Schedule> {};

TEST_P(WorkGate, BelowGrainWorkRunsOnceInlineOutsideAnyRegion) {
  const std::thread::id caller = std::this_thread::get_id();
  const GateCounts before = GateCounts::now();
  int calls = 0;
  parallel_for_chunks(0, 1000, ExecPolicy{4, 1, GetParam()}, kGrainWork - 1,
                      [&](Index lo, Index hi) {
                        ++calls;  // inline: no other thread touches it
                        EXPECT_EQ(lo, 0);
                        EXPECT_EQ(hi, 1000);
                        EXPECT_EQ(std::this_thread::get_id(), caller);
                        EXPECT_FALSE(in_parallel_region());
                        // The nested level keeps the caller's threads.
                        EXPECT_EQ(resolved_threads(ExecPolicy{4, 1, Schedule::Static}), 4);
                      });
  EXPECT_EQ(calls, 1);
  const GateCounts after = GateCounts::now();
  EXPECT_EQ(after.inline_calls - before.inline_calls, 1u);
  EXPECT_EQ(after.forked_calls, before.forked_calls);
}

TEST_P(WorkGate, AtTwoGrainsAndAboveSplitsIntoChunksVisitingEveryIndexOnce) {
  for (const std::int64_t work : {2 * kGrainWork, 5 * kGrainWork, kBigWork}) {
    std::mutex mu;
    std::vector<std::pair<Index, Index>> chunks;
    std::vector<std::atomic<int>> visits(1000);
    const GateCounts before = GateCounts::now();
    parallel_for_chunks(0, 1000, ExecPolicy{4, 1, GetParam()}, work, [&](Index lo, Index hi) {
      EXPECT_TRUE(in_parallel_region());
      for (Index i = lo; i < hi; ++i) visits[static_cast<std::size_t>(i)]++;
      std::lock_guard<std::mutex> lock(mu);
      chunks.emplace_back(lo, hi);
    });
    EXPECT_GE(chunks.size(), 2u) << "work " << work;
    // Chunks of at least kGrainWork each: never more than work/kGrainWork.
    EXPECT_LE(static_cast<std::int64_t>(chunks.size()), work / kGrainWork) << "work " << work;
    for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
    const GateCounts after = GateCounts::now();
    EXPECT_EQ(after.forked_calls - before.forked_calls, 1u);
    EXPECT_EQ(after.inline_calls, before.inline_calls);
  }
}

TEST_P(WorkGate, OneGrainOfWorkIsOneChunkAndRunsInline) {
  // [kGrainWork, 2·kGrainWork) holds a single chunk of kGrainWork, and
  // the gate never uses more threads than chunks.
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  parallel_for_chunks(0, 1000, ExecPolicy{4, 1, GetParam()}, 2 * kGrainWork - 1,
                      [&](Index lo, Index hi) {
                        ++calls;
                        EXPECT_EQ(hi - lo, 1000);
                        EXPECT_EQ(std::this_thread::get_id(), caller);
                        EXPECT_FALSE(in_parallel_region());
                      });
  EXPECT_EQ(calls, 1);
}

TEST_P(WorkGate, NeverUsesMoreThreadsThanChunks) {
  // Three grains of work over 4 threads: at most three chunks, hence at
  // most three distinct worker threads.
  std::mutex mu;
  std::set<std::thread::id> ids;
  std::size_t chunks = 0;
  parallel_for_chunks(0, 300, ExecPolicy{4, 1, GetParam()}, 3 * kGrainWork,
                      [&](Index, Index) {
                        std::lock_guard<std::mutex> lock(mu);
                        ids.insert(std::this_thread::get_id());
                        ++chunks;
                      });
  EXPECT_LE(chunks, 3u);
  EXPECT_LE(ids.size(), chunks);
}

TEST_P(WorkGate, SerialPolicyNeverConsultsTheGate) {
  const GateCounts before = GateCounts::now();
  int calls = 0;
  parallel_for_chunks(0, 1000, ExecPolicy{1, 1, GetParam()}, kBigWork, [&](Index, Index) {
    ++calls;
  });
  EXPECT_EQ(calls, 1);
  const GateCounts after = GateCounts::now();
  EXPECT_EQ(after.inline_calls, before.inline_calls);
  EXPECT_EQ(after.forked_calls, before.forked_calls);
  // gated_work skips the estimate when only one thread is available.
  bool estimated = false;
  EXPECT_EQ(gated_work(ExecPolicy::serial(), [&] {
              estimated = true;
              return kBigWork;
            }),
            0);
  EXPECT_FALSE(estimated);
  EXPECT_EQ(gated_work(ExecPolicy{2, 1, GetParam()}, [] { return kBigWork; }), kBigWork);
}

INSTANTIATE_TEST_SUITE_P(AllSchedules, WorkGate,
                         ::testing::Values(Schedule::Static, Schedule::Dynamic));

TEST(DeviceSpecTest, PresetsMatchTable1Capacities) {
  EXPECT_EQ(DeviceSpec::a100_80gb().memory_bytes, 80ull << 30);
  EXPECT_EQ(DeviceSpec::l40_48gb().memory_bytes, 48ull << 30);
  EXPECT_EQ(DeviceSpec::v100_32gb().memory_bytes, 32ull << 30);
}

}  // namespace
}  // namespace gpa
