// Schedule invariance: the schedule decides who computes a row, never
// what the row computes, so every kernel must be bitwise identical
// across {Static, Dynamic} × grain × threads, including grain 0 (chunk
// size left to the work gate). The fixture is sized so that every
// kernel call carries enough work for the gate to fork (each grid
// check asserts that it did), so these are checks of the forked path,
// not of an inline fallback.

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "core/composed.hpp"
#include "core/graph_attention.hpp"
#include "core/spmm_attention.hpp"
#include "core/traversal.hpp"
#include "obs/metrics.hpp"
#include "sparse/build.hpp"
#include "sparse/presets.hpp"
#include "tensor/tensor_ops.hpp"

namespace gpa {
namespace {

// ---------------------------------------------------------------- //
// Schedule invariance: bitwise-identical output across schedules,   //
// grains, and the auto-tuned policy, for every kernel family.       //
// ---------------------------------------------------------------- //

struct Fixture {
  static constexpr Index kL = 512;
  static constexpr Index kD = 64;
  Matrix<float> q{kL, kD}, k{kL, kD}, v{kL, kD};

  Fixture() {
    Rng rng(20250808);
    fill_uniform(q, rng);
    fill_uniform(k, rng);
    fill_uniform(v, rng);
  }
};

/// The schedule grid: serial is the baseline; every Static/Dynamic ×
/// grain {0, 1, 7, 64} combination at 3 threads must match it bitwise.
std::vector<ExecPolicy> schedule_grid() {
  std::vector<ExecPolicy> grid;
  for (const Schedule sched : {Schedule::Static, Schedule::Dynamic}) {
    for (const Index grain : {Index{0}, Index{1}, Index{7}, Index{64}}) {
      grid.push_back(ExecPolicy{3, grain, sched});
    }
  }
  return grid;
}

std::uint64_t forked_calls() {
  return obs::Registry::global().counter("parallel.calls.forked").value();
}

template <typename CallFn>
void expect_schedule_invariant(const CallFn& call) {
  for (const bool causal : {false, true}) {
    Matrix<float> baseline(Fixture::kL, Fixture::kD);
    call(ExecPolicy::serial(), causal, baseline);
    for (const ExecPolicy& policy : schedule_grid()) {
      Matrix<float> out(Fixture::kL, Fixture::kD);
      const std::uint64_t forked = forked_calls();
      call(policy, causal, out);
      EXPECT_GT(forked_calls(), forked) << "causal=" << causal << ": the call ran inline";
      EXPECT_EQ(max_abs_diff(out, baseline), 0.0)
          << "causal=" << causal << " grain=" << policy.grain
          << " sched=" << static_cast<int>(policy.schedule);
    }
  }
}

TEST(ScheduleInvariance, CsrKernel) {
  Fixture f;
  const Csr<float> mask = build_csr_random(Fixture::kL, RandomParams{0.15, 77});
  expect_schedule_invariant([&](const ExecPolicy& p, bool causal, Matrix<float>& out) {
    AttentionOptions opts;
    opts.policy = p;
    opts.causal = causal;
    csr_attention(f.q, f.k, f.v, mask, out, opts);
  });
}

TEST(ScheduleInvariance, CooKernel) {
  Fixture f;
  const Coo<float> mask = csr_to_coo(build_csr_random(Fixture::kL, RandomParams{0.15, 77}));
  expect_schedule_invariant([&](const ExecPolicy& p, bool causal, Matrix<float>& out) {
    AttentionOptions opts;
    opts.policy = p;
    opts.causal = causal;
    coo_attention(f.q, f.k, f.v, mask, out, opts);
  });
}

TEST(ScheduleInvariance, LocalKernel) {
  Fixture f;
  expect_schedule_invariant([&](const ExecPolicy& p, bool causal, Matrix<float>& out) {
    AttentionOptions opts;
    opts.policy = p;
    opts.causal = causal;
    local_attention(f.q, f.k, f.v, LocalParams{7}, out, opts);
  });
}

TEST(ScheduleInvariance, Dilated1DKernel) {
  Fixture f;
  expect_schedule_invariant([&](const ExecPolicy& p, bool causal, Matrix<float>& out) {
    AttentionOptions opts;
    opts.policy = p;
    opts.causal = causal;
    dilated1d_attention(f.q, f.k, f.v, Dilated1DParams{9, 2}, out, opts);
  });
}

TEST(ScheduleInvariance, Dilated2DKernel) {
  Fixture f;
  const auto params = make_dilated2d(Fixture::kL, 8, 1);
  expect_schedule_invariant([&](const ExecPolicy& p, bool causal, Matrix<float>& out) {
    AttentionOptions opts;
    opts.policy = p;
    opts.causal = causal;
    dilated2d_attention(f.q, f.k, f.v, params, out, opts);
  });
}

TEST(ScheduleInvariance, GlobalKernel) {
  Fixture f;
  GlobalMinusLocalParams gp;
  gp.global = make_global({0, 31, 64}, Fixture::kL);
  gp.local = make_local(4);
  expect_schedule_invariant([&](const ExecPolicy& p, bool causal, Matrix<float>& out) {
    AttentionOptions opts;
    opts.policy = p;
    opts.causal = causal;
    global_attention(f.q, f.k, f.v, gp, out, opts);
  });
}

TEST(ScheduleInvariance, ComposedKernel) {
  Fixture f;
  const ComposedMask mask = make_longformer(Fixture::kL, 6, 3);
  expect_schedule_invariant([&](const ExecPolicy& p, bool causal, Matrix<float>& out) {
    AttentionOptions opts;
    opts.policy = p;
    opts.causal = causal;
    composed_attention(f.q, f.k, f.v, mask, out, opts);
  });
}

TEST(ScheduleInvariance, SpmmPipeline) {
  Fixture f;
  const Csr<float> mask = build_csr_random(Fixture::kL, RandomParams{0.15, 77});
  // spmm_attention has no causal switch — its mask carries the
  // structure; exercise the non-causal arm only.
  Matrix<float> baseline(Fixture::kL, Fixture::kD);
  AttentionOptions base_opts;
  base_opts.policy = ExecPolicy::serial();
  spmm_attention(f.q, f.k, f.v, mask, baseline, base_opts);
  for (const ExecPolicy& policy : schedule_grid()) {
    Matrix<float> out(Fixture::kL, Fixture::kD);
    AttentionOptions opts;
    opts.policy = policy;
    const std::uint64_t forked = forked_calls();
    spmm_attention(f.q, f.k, f.v, mask, out, opts);
    EXPECT_GT(forked_calls(), forked) << "the pipeline ran inline";
    EXPECT_EQ(max_abs_diff(out, baseline), 0.0)
        << "grain=" << policy.grain << " sched=" << static_cast<int>(policy.schedule);
  }
}

}  // namespace
}  // namespace gpa
