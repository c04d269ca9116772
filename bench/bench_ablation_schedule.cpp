// Ablation: row scheduling under work imbalance. §V-C explains the
// global kernel's slower scaling by per-row work skew: global rows are
// (nearly) dense while ordinary rows touch only the global columns, and
// "the algorithm can only be as fast as its slowest block". With static
// scheduling one worker inherits all the heavy rows; dynamic scheduling
// redistributes them. The csr cells are the control: a random mask has
// near-uniform row degrees, so dynamic scheduling buys nothing there
// and its chunk-handout overhead is visible instead.
//
// Every cell runs at 1, 2 and 4 threads, at L = 4096 and at L = 512:
// the small calls are where the work gate (parallel/parallel_for.hpp)
// decides whether forking pays at all. Grain 0 leaves the chunk size to
// the gate alone (chunks of kGrainWork each). The JSON records carry
// the backend, so runs from the OpenMP and std::thread builds merge
// into one trajectory file: BENCH_schedule.json.

#include <iostream>
#include <thread>
#include <vector>

#include "benchutil/json.hpp"
#include "benchutil/runner.hpp"
#include "benchutil/table.hpp"
#include "common/rng.hpp"
#include "core/graph_attention.hpp"
#include "graph/degree.hpp"
#include "parallel/parallel_for.hpp"
#include "sparse/build.hpp"
#include "tensor/tensor_ops.hpp"

int main(int argc, char** argv) {
  using namespace gpa;
  using benchutil::Table;
  const auto args = benchutil::parse_bench_args(argc, argv, /*warmup=*/1, /*iters=*/3);

  // The L = 4096 grid plus the small-call cells (L = 512), where the
  // work gate decides whether forking pays at all.
  const Index big_L = args.paper_scale ? 16'384 : (args.smoke ? 1'024 : 4'096);
  const Index dk = 64;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::cout << "=== Ablation: static vs dynamic row scheduling (threads 1/2/4 of " << hw
            << " hardware, backend=" << parallel_backend() << ", kGrainWork=" << kGrainWork
            << ") ===\n";

  Table table({"kernel", "L", "threads", "schedule", "grain", "median_s", "stddev_s"});
  std::vector<benchutil::ScheduleBenchRecord> records;
  for (const Index L : {big_L, Index{512}}) {
    // Global mask: a few fully-dense rows + sparse columns elsewhere (the
    // skewed workload). CSR random mask: near-uniform degrees (the
    // control).
    GlobalMinusLocalParams gp;
    std::vector<Index> tokens;
    for (Index t = 0; t < 8; ++t) tokens.push_back(t * (L / 8));
    gp.global = make_global(tokens, L);
    gp.local = make_local(1);
    const auto csr_mask = build_csr_random(L, RandomParams{0.01, 11});

    const auto stats = degree_stats(global_minus_local_degrees(L, gp));
    std::cout << "L=" << L << " global-mask row-degree skew: max " << stats.max_degree
              << ", mean " << Table::fmt_double(stats.mean, 4) << ", imbalance "
              << Table::fmt_double(stats.imbalance, 4) << "; csr nnz " << csr_mask.nnz() << "\n";

    Rng rng(987);
    Matrix<float> q(L, dk), k(L, dk), v(L, dk), out(L, dk);
    fill_uniform(q, rng);
    fill_uniform(k, rng);
    fill_uniform(v, rng);

    auto run_cell = [&](const char* kernel, const int threads, const Schedule sched,
                        const Index grain,
                        const std::function<void(const AttentionOptions&)>& call) {
      AttentionOptions opts;
      opts.policy = ExecPolicy{threads, grain, sched};
      const auto st = benchutil::run_benchmark([&] { call(opts); }, args.run);
      const char* sched_name = sched == Schedule::Static ? "static" : "dynamic";
      table.add_row({kernel, std::to_string(L), std::to_string(threads), sched_name,
                     std::to_string(grain), Table::fmt_seconds(st.median),
                     Table::fmt_seconds(st.stddev)});
      benchutil::ScheduleBenchRecord rec;
      rec.backend = std::string(parallel_backend());
      rec.kernel = kernel;
      rec.schedule = sched_name;
      rec.grain = grain;
      rec.seq_len = L;
      rec.threads = threads;
      rec.hw_threads = hw;
      rec.mean_s = st.mean;
      rec.median_s = st.median;
      rec.stddev_s = st.stddev;
      records.push_back(std::move(rec));
    };

    for (const int threads : {1, 2, 4}) {
      for (const Schedule sched : {Schedule::Static, Schedule::Dynamic}) {
        // grain 0 = derived by the work gate: chunks of kGrainWork each.
        for (const Index grain : {0, 16, 64, 256}) {
          run_cell("global_attention", threads, sched, grain,
                   [&](const AttentionOptions& o) { global_attention(q, k, v, gp, out, o); });
          run_cell("csr_attention", threads, sched, grain,
                   [&](const AttentionOptions& o) { csr_attention(q, k, v, csr_mask, out, o); });
        }
      }
    }
  }

  table.print();
  table.write_csv(args.csv_path);
  if (!args.json_path.empty()) {
    benchutil::write_schedule_bench_json(args.json_path, records);
    std::cout << "json: " << args.json_path << "\n";
  }
  return 0;
}
