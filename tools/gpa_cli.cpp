// gpa — command-line driver for the library. Lets users build, inspect,
// and persist masks, run any kernel against the reference, and query
// the memory model without writing C++.
//
//   gpa mask --pattern local --length 1024 --window 8 [--out mask.bin]
//   gpa info --in mask.bin
//   gpa run --pattern bigbird --length 2048 --dim 64 [--causal] [--fp16]
//   gpa memmodel --algo csr --dtype fp16 --dim 64 --sf 1e-4
//                [--device a100|l40|v100|h100|rtx4090]
//   gpa serve-bench --length 512 --dim 64 --sf 0.001 --workers 1 --max-batch 8
//                   [--clients 8] [--requests 2000] [--rate HZ] [--deadline-us N]
//                   [--buckets 256,512]  (mixed-length causal pattern traffic,
//                                         seq_len-bucketed admission; empty = exact keys)
//                   [--decode --sessions 4 [--dedup 0|1]]  (stateful KV-cache
//                                         decode traffic; --dedup 0 disables the
//                                         pool-wide prompt cache)
//   gpa decode-bench --pattern local --length 1024 --dim 64 --steps 32
//   gpa decode-bench --mask composed --length 1024 --reach 8 --globals 2
//                    (chained local ∘ global longformer session)
//   gpa stats <host:port>  [--json]   (scrape a live node's metrics registry)
//   gpa serve-bench ... --trace out.json   (span tracing on; Chrome trace dump)
//
// Exit code 0 on success (and verification OK for `run`), 1 otherwise.

#include <atomic>
#include <chrono>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "baselines/reference_attention.hpp"
#include "common/rng.hpp"
#include "common/version.hpp"
#include "core/composed.hpp"
#include "core/graph_attention.hpp"
#include "graph/degree.hpp"
#include "kvcache/kvcache.hpp"
#include "memmodel/memory_model.hpp"
#include "net/cluster.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "seqpar/partition.hpp"
#include "seqpar/sim_cluster.hpp"
#include "serve/serve.hpp"
#include "simd/simd.hpp"
#include "sparse/build.hpp"
#include "sparse/io.hpp"
#include "sparse/nnz.hpp"
#include "sparse/presets.hpp"
#include "tensor/tensor_ops.hpp"

namespace {

using namespace gpa;

struct Args {
  std::string command;
  std::map<std::string, std::string> kv;
  bool flag(const std::string& name) const { return kv.count("--" + name) > 0; }
  std::string get(const std::string& name, const std::string& fallback) const {
    const auto it = kv.find("--" + name);
    return it == kv.end() ? fallback : it->second;
  }
  Index get_index(const std::string& name, Index fallback) const {
    return get_numeric<Index>(name, fallback, "an integer",
                              [](const std::string& s, std::size_t* pos) {
                                return static_cast<Index>(std::stoll(s, pos));
                              });
  }
  double get_double(const std::string& name, double fallback) const {
    return get_numeric<double>(name, fallback, "a number",
                               [](const std::string& s, std::size_t* pos) {
                                 return std::stod(s, pos);
                               });
  }

 private:
  /// Strict numeric lookup: the whole value must parse, otherwise an
  /// InvalidArgument naming the flag is thrown.
  template <typename T, typename Parse>
  T get_numeric(const std::string& name, T fallback, const char* kind, Parse parse) const {
    const auto it = kv.find("--" + name);
    if (it == kv.end()) return fallback;
    try {
      std::size_t pos = 0;
      const T value = parse(it->second, &pos);
      if (pos != it->second.size()) throw std::invalid_argument("trailing characters");
      return value;
    } catch (const std::exception&) {
      throw InvalidArgument("--" + name + " expects " + kind + ", got \"" + it->second + "\"");
    }
  }
};

Args parse(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) == 0 && i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args.kv[a] = argv[++i];
    } else {
      // Presence is the value: flag() tests membership and the get_*()
      // accessors fall back only when the key is absent. Assigning a
      // short literal here also trips GCC 12's bogus -Wrestrict at -O3
      // (PR105651), which would break the -Werror CI build.
      args.kv.try_emplace(a);
    }
  }
  return args;
}

/// "256,512,1024" → {256, 512, 1024} (strict: every element must parse).
std::vector<Index> parse_index_list(const std::string& flag, const std::string& s) {
  std::vector<Index> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::string tok = s.substr(start, comma == std::string::npos ? comma : comma - start);
    try {
      std::size_t pos = 0;
      out.push_back(static_cast<Index>(std::stoll(tok, &pos)));
      if (pos != tok.size()) throw std::invalid_argument("trailing characters");
    } catch (const std::exception&) {
      throw InvalidArgument(flag + " expects a comma-separated integer list, got \"" + s + "\"");
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

Csr<float> build_mask(const Args& args) {
  const Index L = args.get_index("length", 1024);
  const std::string pattern = args.get("pattern", "local");
  if (pattern == "local") {
    return build_csr_local(L, make_local(args.get_index("window", 8)));
  }
  if (pattern == "dilated1d") {
    return build_csr_dilated1d(
        L, make_dilated1d(args.get_index("window", 8), args.get_index("dilation", 1)));
  }
  if (pattern == "dilated2d") {
    return build_csr_dilated2d(
        make_dilated2d(L, args.get_index("block", 8), args.get_index("dilation", 1)));
  }
  if (pattern == "global") {
    std::vector<Index> tokens;
    for (Index t = 0; t < args.get_index("globals", 2); ++t) tokens.push_back(t);
    return build_csr_global(L, make_global(tokens, L));
  }
  if (pattern == "random") {
    return build_csr_random(
        L, RandomParams{args.get_double("sf", 0.01),
                        static_cast<std::uint64_t>(args.get_index("seed", 42))});
  }
  if (pattern == "longformer") {
    return make_longformer(L, args.get_index("reach", 8), args.get_index("globals", 2)).fused;
  }
  if (pattern == "bigbird") {
    return make_bigbird(L, args.get_index("reach", 8), args.get_index("globals", 2),
                        args.get_double("sf", 0.01))
        .fused;
  }
  throw InvalidArgument("unknown --pattern: " + pattern +
                        " (local|dilated1d|dilated2d|global|random|longformer|bigbird)");
}

void print_mask_info(const Csr<float>& mask) {
  const auto stats = degree_stats(csr_degrees(mask));
  std::cout << "shape:       " << mask.rows << " x " << mask.cols << "\n"
            << "nnz:         " << mask.nnz() << "\n"
            << "sparsity Sf: " << sparsity_factor(mask.nnz(), mask.rows) << "\n"
            << "degrees:     min " << stats.min_degree << ", mean " << stats.mean << ", max "
            << stats.max_degree << " (imbalance " << stats.imbalance << ")\n"
            << "storage:     " << mask.storage_bytes() << " bytes (CSR, 32-bit indices)\n";
}

int cmd_mask(const Args& args) {
  const auto mask = build_mask(args);
  print_mask_info(mask);
  const std::string out = args.get("out", "");
  if (!out.empty()) {
    save_csr(mask, out);
    std::cout << "written:     " << out << "\n";
  }
  return 0;
}

int cmd_info(const Args& args) {
  const std::string in = args.get("in", "");
  GPA_CHECK(!in.empty(), "info requires --in <path>");
  print_mask_info(load_csr(in));
  return 0;
}

template <typename T>
int run_typed(const Args& args, const Csr<float>& mask) {
  const Index L = mask.rows;
  const Index d = args.get_index("dim", 64);
  AttentionOptions opts;
  opts.causal = args.flag("causal");

  Matrix<float> qf(L, d), kf(L, d), vf(L, d);
  Rng rng(static_cast<std::uint64_t>(args.get_index("seed", 1)));
  fill_uniform(qf, rng);
  fill_uniform(kf, rng);
  fill_uniform(vf, rng);

  Matrix<T> q(L, d), k(L, d), v(L, d), out(L, d);
  for (Index i = 0; i < L; ++i) {
    for (Index p = 0; p < d; ++p) {
      q(i, p) = T(qf(i, p));
      k(i, p) = T(kf(i, p));
      v(i, p) = T(vf(i, p));
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  csr_attention(q, k, v, mask, out, opts);
  const auto t1 = std::chrono::steady_clock::now();
  std::cout << "csr kernel:  " << std::chrono::duration<double>(t1 - t0).count() << " s ("
            << mask.nnz() << " edges)\n";

  // Verify against the exact reference (on the causally-intersected
  // mask if requested).
  Matrix<float> out_f(L, d);
  for (Index i = 0; i < L; ++i) {
    for (Index p = 0; p < d; ++p) out_f(i, p) = static_cast<float>(out(i, p));
  }
  Csr<float> check_mask = mask;
  if (opts.causal) {
    check_mask = build_csr_from_predicate(L, [&](Index i, Index j) {
      if (j > i) return false;
      for (Index kk = mask.row_begin(i); kk < mask.row_end(i); ++kk) {
        if (mask.col_idx[static_cast<std::size_t>(kk)] == j) return true;
      }
      return false;
    });
  }
  Matrix<float> expected(L, d);
  baselines::reference_attention(qf, kf, vf, check_mask, expected);
  const bool fp16 = args.flag("fp16");
  const auto rep = allclose(out_f, expected, fp16 ? 5e-3 : 1e-5, fp16 ? 5e-3 : 1e-6);
  std::cout << "verified:    " << (rep.all_close ? "OK" : "FAIL") << " (max diff "
            << rep.max_abs_diff << ")\n";
  return rep.all_close ? 0 : 1;
}

int cmd_run(const Args& args) {
  const auto mask = build_mask(args);
  print_mask_info(mask);
  return args.flag("fp16") ? run_typed<half_t>(args, mask) : run_typed<float>(args, mask);
}

int cmd_memmodel(const Args& args) {
  using namespace gpa::memmodel;
  const std::string device = args.get("device", "a100");
  const std::map<std::string, DeviceSpec> devices = {
      {"a100", DeviceSpec::a100_80gb()},       {"l40", DeviceSpec::l40_48gb()},
      {"v100", DeviceSpec::v100_32gb()},       {"h100", DeviceSpec::h100_80gb()},
      {"rtx4090", DeviceSpec::rtx4090_24gb()}};
  const auto dev_it = devices.find(device);
  if (dev_it == devices.end()) {
    throw InvalidArgument("unknown --device: " + device + " (a100|l40|v100|h100|rtx4090)");
  }
  const DeviceSpec& dev = dev_it->second;
  const std::string dtype = args.get("dtype", "fp32");
  ModelConfig cfg;
  cfg.dtype = dtype == "fp16" ? DType::F16 : DType::F32;
  cfg.embed_dim = args.get_index("dim", 64);
  cfg.heads = args.get_index("heads", 1);
  cfg.sparsity = args.get_double("sf", 1e-4);

  const std::map<std::string, Algo> algos = {
      {"sdp", Algo::SdpMasked}, {"csr", Algo::Csr},     {"coo", Algo::Coo},
      {"flash", Algo::FlashDense}, {"local", Algo::Local}, {"dilated1d", Algo::Dilated1D},
      {"dilated2d", Algo::Dilated2D}, {"global", Algo::Global}, {"spmm", Algo::SpmmTwoPhase}};
  const std::string name = args.get("algo", "");
  std::cout << dev.name << ", " << dtype << ", dim " << cfg.embed_dim << ", heads "
            << cfg.heads << ", Sf " << cfg.sparsity << "\n";
  for (const auto& [n, a] : algos) {
    if (!name.empty() && n != name) continue;
    std::cout << "  " << n << ": max L = " << max_context_length(a, dev, cfg) << "\n";
  }
  return 0;
}

/// serve-bench --decode: stateful decode traffic through the server's
/// SessionManager. One client thread per session submits its tokens
/// strictly in order (the autoregressive discipline); tokens from
/// different sessions coalesce into shared decode dispatches. With
/// --sessions 0 no session is ever prefilled, so every request comes
/// back `rejected-session` — the defensive path for unknown sessions
/// (a typed rejection plus a hint, never an assert).
int cmd_serve_bench_decode(const Args& args, serve::ServerConfig cfg, Size requests) {
  const Index L = args.get_index("length", 512);
  const Index d = args.get_index("dim", 64);
  const double sf = args.get_double("sf", 0.001);
  const Index sessions = args.get_index("sessions", 4);
  const Index clients = std::max<Index>(sessions, 1);
  const Size per_client = std::max<Size>(requests / static_cast<Size>(clients), 1);

  const Index mask_len = L + static_cast<Index>(per_client) + 1;
  auto mask = std::make_shared<const Csr<float>>(
      build_csr_random(mask_len, RandomParams{sf, 7}));

  kvcache::SessionManager::Config mc;
  mc.pool.page_size = 16;
  mc.pool.head_dim = d;
  mc.pool.num_pages =
      (mask_len * std::max<Index>(sessions, 1)) / mc.pool.page_size + 2 * clients;
  mc.prefix_dedup = args.get_index("dedup", 1) != 0;
  auto mgr = std::make_shared<kvcache::SessionManager>(mc);
  cfg.sessions = mgr;
  const obs::MetricsSnapshot reg0 = obs::Registry::global().snapshot();

  Rng rng(11);
  Matrix<float> prompt_q(L, d), prompt_k(L, d), prompt_v(L, d), prompt_out(L, d);
  fill_uniform(prompt_q, rng);
  fill_uniform(prompt_k, rng);
  fill_uniform(prompt_v, rng);
  for (Index s = 1; s <= sessions; ++s) {
    mgr->create(static_cast<std::uint64_t>(s), kvcache::MaskSpec::make_csr(mask));
    mgr->prefill(static_cast<std::uint64_t>(s), prompt_q, prompt_k, prompt_v, prompt_out);
  }

  std::cout << "workload:    decode steps, L0=" << L << ", d=" << d << ", Sf=" << sf
            << ", sessions=" << sessions << " (" << per_client << " tokens each)\n"
            << "policy:      workers=" << cfg.workers << ", max_batch=" << cfg.policy.max_batch
            << ", max_wait=" << cfg.policy.max_wait.count() << "us\n";

  serve::Server server(cfg);
  std::atomic<Size> ok{0}, rejected{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (Index c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng trng(100 + static_cast<std::uint64_t>(c));
      // Session ids 1..sessions are live; with --sessions 0 the id is
      // never created, exercising the rejected-session path.
      const std::uint64_t sid = static_cast<std::uint64_t>(c % std::max<Index>(sessions, 1)) + 1;
      Matrix<float> qr(1, d), kr(1, d), vr(1, d);
      for (Size i = 0; i < per_client; ++i) {
        fill_uniform(qr, trng);
        fill_uniform(kr, trng);
        fill_uniform(vr, trng);
        auto fut = server.submit(serve::make_decode_request(sid, qr, kr, vr));
        const auto resp = fut.get();  // strict order: token t before t+1
        if (resp.status == serve::ResponseStatus::Ok) {
          ++ok;
        } else {
          ++rejected;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  server.shutdown();
  const auto s = server.stats();
  const auto st = mgr->stats();
  const obs::MetricsSnapshot reg1 = obs::Registry::global().snapshot();
  const auto delta = [&](const char* name) { return reg1.counter(name) - reg0.counter(name); };

  std::cout << "completed:   " << ok.load() << " ok, " << rejected.load() << " rejected ("
            << s.rejected_session << " session, " << s.rejected_queue_full << " full, "
            << s.rejected_deadline << " deadline)\n"
            << "throughput:  " << (static_cast<double>(ok.load()) / wall) << " tokens/s over "
            << wall << " s\n"
            << "latency ms:  p50 " << s.latency_ms.p50 << ", p95 " << s.latency_ms.p95
            << ", p99 " << s.latency_ms.p99 << "\n"
            << "batching:    " << s.batches << " dispatches, mean occupancy "
            << s.mean_batch_occupancy << "\n"
            << "kvcache:     " << st.pages_in_use << " pages in use, "
            << delta("kvcache.evictions") << " evictions\n"
            << "prompt cache: " << (mc.prefix_dedup ? "on" : "off") << ", "
            << delta("kvcache.prefill.pages_adopted") << " pages deduped, "
            << delta("kvcache.prefix.hits") << "/" << delta("kvcache.prefix.lookups")
            << " hits, " << st.prefix_entries << " cached pages\n";
  if (s.rejected_session > 0) {
    std::cout << "note:        " << s.rejected_session
              << " decode requests named a session the server does not hold "
                 "(unknown or evicted) — prefill sessions first (--sessions N)\n";
  }
  return ok.load() > 0 || sessions == 0 ? 0 : 1;
}

int cmd_serve_bench(const Args& args) {
  const Index L = args.get_index("length", 512);
  const Index d = args.get_index("dim", 64);
  const double sf = args.get_double("sf", 0.001);
  const double rate = args.get_double("rate", 0.0);  // > 0 selects open-loop

  serve::ServerConfig cfg;
  cfg.workers = static_cast<int>(args.get_index("workers", 1));
  GPA_CHECK(cfg.workers >= 1, "serve-bench needs at least one worker (--workers)");
  cfg.queue_capacity = static_cast<std::size_t>(args.get_index("queue", 1024));
  cfg.policy.max_batch = args.get_index("max-batch", 8);
  cfg.policy.max_wait = std::chrono::microseconds{args.get_index("max-wait-us", 200)};
  const std::string buckets_arg = args.get("buckets", "");
  if (!buckets_arg.empty()) {
    cfg.policy.seq_buckets = parse_index_list("--buckets", buckets_arg);
  }

  // --trace <file>: span tracing for the whole run, dumped as Chrome
  // trace_event JSON at the end. The ring is sized to the run so the
  // dump is complete (dropped events are reported if it still wraps).
  const std::string trace_file = args.get("trace", "");
  if (!trace_file.empty()) {
    obs::trace::reset();
    obs::trace::set_enabled(true);
  }
  const auto finish_trace = [&trace_file](int rc) {
    if (trace_file.empty()) return rc;
    obs::trace::set_enabled(false);
    const std::uint64_t emitted = obs::trace::emitted();
    const std::uint64_t dropped = obs::trace::dropped();
    if (!obs::trace::write_chrome_json(trace_file)) {
      std::cerr << "serve-bench: failed to write trace to " << trace_file << "\n";
      return 1;
    }
    std::cout << "trace:       " << trace_file << " (" << emitted << " events, " << dropped
              << " dropped)" << (dropped > 0 ? " — raise the ring capacity" : "") << "\n";
    return rc;
  };

  if (args.flag("decode")) {
    return finish_trace(cmd_serve_bench_decode(
        args, cfg, static_cast<Size>(args.get_index("requests", 512))));
  }

  serve::LoadGenConfig lg;
  lg.requests = static_cast<Size>(args.get_index("requests", 2000));
  lg.clients = static_cast<int>(args.get_index("clients", 8));
  lg.arrival_hz = rate;
  lg.deadline = std::chrono::microseconds{args.get_index("deadline-us", 0)};

  // --buckets switches to the mixed-length causal pattern workload the
  // seq_len bucketing exists for (lengths spread below L, one shared
  // local pattern); without it the classic single-length CSR workload.
  const bool bucketed = args.flag("buckets");
  const auto wl = bucketed
                      ? serve::make_mixed_local_workload(
                            {std::max<Index>(L / 2, 1), std::max<Index>(L * 5 / 8, 1),
                             std::max<Index>(L * 3 / 4, 1), L},
                            d, args.get_index("window", 8), /*seed=*/7)
                      : serve::make_csr_workload(L, d, sf, /*seed=*/7, /*pool=*/4);
  if (bucketed) {
    std::cout << "workload:    mixed-length local pattern, L=" << L / 2 << ".." << L
              << ", d=" << d << ", window=" << args.get_index("window", 8) << ", buckets=";
    for (std::size_t i = 0; i < cfg.policy.seq_buckets.size(); ++i) {
      std::cout << (i ? "," : "") << cfg.policy.seq_buckets[i];
    }
    std::cout << (cfg.policy.seq_buckets.empty() ? "(exact keys)" : "") << "\n";
  } else {
    std::cout << "workload:    CSR random mask, L=" << L << ", d=" << d << ", Sf=" << sf
              << " (" << wl.mask->nnz() << " edges)\n";
  }
  std::cout << "policy:      workers=" << cfg.workers << ", max_batch=" << cfg.policy.max_batch
            << ", max_wait=" << cfg.policy.max_wait.count() << "us, queue="
            << cfg.queue_capacity << "\n"
            << "load:        " << (rate > 0.0 ? "open-loop" : "closed-loop") << ", requests="
            << lg.requests << (rate > 0.0 ? ", rate=" + std::to_string(rate) + "/s"
                                          : ", clients=" + std::to_string(lg.clients))
            << "\n";

  serve::Server server(cfg);
  const auto res = rate > 0.0 ? serve::run_open_loop(server, wl, lg)
                              : serve::run_closed_loop(server, wl, lg);
  server.shutdown();
  const auto s = server.stats();

  std::cout << "completed:   " << res.completed << " ok, " << res.rejected << " rejected ("
            << s.rejected_queue_full << " full, " << s.rejected_deadline << " deadline, "
            << s.rejected_shutdown << " shutdown, " << s.internal_errors << " error)\n"
            << "throughput:  " << res.rps << " rps over " << res.wall_s << " s\n"
            << "latency ms:  p50 " << s.latency_ms.p50 << ", p95 " << s.latency_ms.p95
            << ", p99 " << s.latency_ms.p99 << ", max " << s.latency_ms.max << "\n"
            << "batching:    " << s.batches << " dispatches, mean occupancy "
            << s.mean_batch_occupancy << ", max queue depth " << s.max_queue_depth << "\n"
            << "occupancy:  ";
  for (std::size_t b = 1; b < s.occupancy.size(); ++b) {
    if (s.occupancy[b] > 0) std::cout << " " << b << "x" << s.occupancy[b];
  }
  std::cout << "\n";
  return finish_trace(0);
}

/// Quick KV-cache probe: prefill L tokens of the chosen pattern, time
/// `--steps` cached decode steps, then time the uncached alternative
/// (full causal recompute at L+1) and print the per-token ratio. The
/// full sweep with JSON output lives in bench_decode_throughput.
///
/// `--mask composed` (alias of --pattern) runs a CHAINED-mask session —
/// the longformer local ∘ global composition folded per decode step —
/// against a full composed kernel call; the other patterns run through
/// a CSR session as before.
int cmd_decode_bench(const Args& args) {
  const Index L = args.get_index("length", 512);
  const Index d = args.get_index("dim", 64);
  const Index steps = args.get_index("steps", 32);
  GPA_CHECK(L >= 1 && steps >= 1, "decode-bench needs --length >= 1 and --steps >= 1");
  const std::string pattern = args.get("pattern", args.get("mask", "local"));
  const bool composed = pattern == "composed";
  const Index reach = args.get_index("reach", 8);
  const Index globals = args.get_index("globals", 2);

  kvcache::SessionManager::Config mc;
  mc.pool.page_size = 16;
  mc.pool.head_dim = d;
  mc.pool.num_pages = (L + steps) / mc.pool.page_size + 2;
  mc.opts.policy = ExecPolicy::serial();
  kvcache::SessionManager mgr(mc);

  // The session sees the (L+steps)-sized mask, the recompute arm its
  // (L+1)-sized counterpart (leading CSR slice / re-built composition).
  std::shared_ptr<const Csr<float>> mask;
  if (composed) {
    mgr.create(1, kvcache::MaskSpec::compose(make_longformer(L + steps, reach, globals)));
  } else {
    Args mask_args = args;
    mask_args.kv["--pattern"] = pattern;  // honour the --mask alias
    mask_args.kv["--length"] = std::to_string(L + steps);
    mask = std::make_shared<const Csr<float>>(build_mask(mask_args));
    mgr.create(1, kvcache::MaskSpec::make_csr(mask));
  }

  Rng rng(static_cast<std::uint64_t>(args.get_index("seed", 1)));
  Matrix<float> q(L + steps, d), k(L + steps, d), v(L + steps, d);
  fill_uniform(q, rng);
  fill_uniform(k, rng);
  fill_uniform(v, rng);
  Matrix<float> qp(L, d), kp(L, d), vp(L, d), out(L, d);
  for (Index i = 0; i < L; ++i) {
    for (Index p = 0; p < d; ++p) {
      qp(i, p) = q(i, p);
      kp(i, p) = k(i, p);
      vp(i, p) = v(i, p);
    }
  }
  mgr.prefill(1, qp, kp, vp, out);

  std::vector<float> out_row(static_cast<std::size_t>(d));
  Index edges = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (Index s = 0; s < steps; ++s) {
    edges = mgr.decode_step(1, q.row(L + s), k.row(L + s), v.row(L + s), out_row.data());
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double cached_us =
      std::chrono::duration<double, std::micro>(t1 - t0).count() / static_cast<double>(steps);

  // Uncached arm: the same mask at length L+1 (leading CSR slice, or
  // the composition re-built at that length), full causal recompute to
  // produce one token.
  Matrix<float> qf(L + 1, d), kf(L + 1, d), vf(L + 1, d), of(L + 1, d);
  for (Index i = 0; i <= L; ++i) {
    for (Index p = 0; p < d; ++p) {
      qf(i, p) = q(i, p);
      kf(i, p) = k(i, p);
      vf(i, p) = v(i, p);
    }
  }
  AttentionOptions copts;
  copts.policy = ExecPolicy::serial();
  copts.causal = true;
  double recompute_us = 0.0;
  if (composed) {
    const ComposedMask lf = make_longformer(L + 1, reach, globals);
    const auto t2 = std::chrono::steady_clock::now();
    composed_attention(qf, kf, vf, lf, of, copts);
    const auto t3 = std::chrono::steady_clock::now();
    recompute_us = std::chrono::duration<double, std::micro>(t3 - t2).count();
  } else {
    const Csr<float> sliced = csr_leading_slice(*mask, L + 1);
    const auto t2 = std::chrono::steady_clock::now();
    csr_attention(qf, kf, vf, sliced, of, copts);
    const auto t3 = std::chrono::steady_clock::now();
    recompute_us = std::chrono::duration<double, std::micro>(t3 - t2).count();
  }

  std::cout << "decode:      " << pattern << ", L=" << L << " -> " << (L + steps) << ", d="
            << d << ", " << edges << " edges/row (last step)\n"
            << "cached:      " << cached_us << " us/token (paged K/V, O(row-nnz))\n"
            << "recompute:   " << recompute_us << " us/token (full causal call at L+1)\n"
            << "speedup:     " << (cached_us > 0.0 ? recompute_us / cached_us : 0.0) << "x\n";
  return 0;
}

#ifndef _WIN32

/// One spawned gpa_serve node.
struct NodeProc {
  pid_t pid = -1;
  std::uint16_t port = 0;
};

std::string default_serve_bin() {
  // gpa_serve is built next to gpa_cli; resolve it relative to our own
  // binary so cluster-bench works from any cwd.
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "gpa_serve";
  buf[n] = '\0';
  std::string path(buf);
  const std::size_t slash = path.rfind('/');
  return (slash == std::string::npos ? std::string() : path.substr(0, slash + 1)) + "gpa_serve";
}

NodeProc spawn_serve(const std::string& bin, Index pages, Index page_size, Index d) {
  int fds[2];
  GPA_CHECK(::pipe(fds) == 0, "cluster-bench: pipe failed");
  const pid_t pid = ::fork();
  GPA_CHECK(pid >= 0, "cluster-bench: fork failed");
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    const std::string pages_s = std::to_string(pages);
    const std::string ps_s = std::to_string(page_size);
    const std::string d_s = std::to_string(d);
    ::execl(bin.c_str(), bin.c_str(), "--port", "0", "--pages", pages_s.c_str(),
            "--page-size", ps_s.c_str(), "--dim", d_s.c_str(), static_cast<char*>(nullptr));
    _exit(127);  // exec failed; the parent sees EOF before LISTENING
  }
  ::close(fds[1]);
  std::string line;
  char c;
  while (::read(fds[0], &c, 1) == 1 && c != '\n') line.push_back(c);
  ::close(fds[0]);
  NodeProc np;
  np.pid = pid;
  if (line.rfind("LISTENING ", 0) == 0) {
    np.port = static_cast<std::uint16_t>(std::stoi(line.substr(10)));
  }
  GPA_CHECK(np.port != 0, "cluster-bench: node failed to start (is " + bin + " built?)");
  return np;
}

/// Spawns an N-process localhost cluster, runs the wire ring prefill
/// (one request per node), checks it bit-for-bit against the
/// in-process sim_cluster oracle, then pushes a burst of routed decode
/// steps. Exit 0 only if the differential gate holds.
int cmd_cluster_bench(const Args& args) {
  const Index N = args.get_index("nodes", 2);
  GPA_CHECK(N >= 2 && N <= 8, "cluster-bench: --nodes must be in [2, 8]");
  const Index L = args.get_index("length", 512);
  const Index d = args.get_index("dim", 64);
  const Index decode_sessions = args.get_index("sessions", 8);
  const Index decode_steps = args.get_index("steps", 16);
  const bool causal = args.flag("causal");

  const Csr<float> mask = build_mask(args);
  GPA_CHECK(mask.rows == L, "cluster-bench: mask length mismatch");
  const auto part = seqpar::partition_balanced_nnz(L, N, seqpar::degrees_of(mask));

  Rng rng(static_cast<std::uint64_t>(args.get_index("seed", 3)));
  Matrix<float> q(L, d), k(L, d), v(L, d);
  fill_uniform(q, rng);
  fill_uniform(k, rng);
  fill_uniform(v, rng);

  // Spawn + connect.
  const std::string bin = args.get("serve-bin", default_serve_bin());
  const Index pages = args.get_index("pages", 4 * (L / 16 + 2));
  std::vector<NodeProc> procs;
  net::ClusterClient cc;
  for (Index p = 0; p < N; ++p) {
    procs.push_back(spawn_serve(bin, pages, 16, d));
    auto t = net::TcpTransport::connect("127.0.0.1", procs.back().port, net::Millis{5000},
                                        net::Millis{30000});
    GPA_CHECK(t != nullptr, "cluster-bench: connect to node failed");
    cc.add_peer(static_cast<std::uint64_t>(p), std::move(t));
  }
  std::cout << "cluster:     " << N << " nodes on 127.0.0.1 (ports";
  for (const auto& np : procs) std::cout << " " << np.port;
  std::cout << ")\n";

  int rc = 0;
  try {
    // Ring prefill + the differential gate.
    Matrix<float> wire_out;
    const auto rep = cc.ring_prefill(q, k, v, mask, part, causal, -1.0f, wire_out);
    Matrix<float> oracle(L, d);
    AttentionOptions opts;
    opts.causal = causal;
    seqpar::distributed_csr_attention(q, k, v, mask, part, oracle, opts);
    bool identical = true;
    for (Index i = 0; i < L && identical; ++i) {
      identical = std::memcmp(wire_out.row(i), oracle.row(i),
                              static_cast<std::size_t>(d) * sizeof(float)) == 0;
    }
    std::cout << "ring prefill: L=" << L << ", d=" << d << ", nnz=" << mask.nnz()
              << ", one request per node in " << rep.seconds << " s\n"
              << "oracle:      " << (identical ? "bit-identical to sim_cluster"
                                               : "MISMATCH vs sim_cluster")
              << "\n";
    for (const auto& nr : rep.nodes) {
      std::cout << "  node " << nr.node_id << ": rows [" << nr.row_begin << ", " << nr.row_end
                << "), " << nr.kv_rows << " K/V rows shipped, " << nr.edges << " edges, "
                << (rep.seconds > 0 ? static_cast<double>(nr.edges) / rep.seconds : 0.0)
                << " edges/s\n";
    }
    if (!identical) rc = 1;

    // Routed decode burst: sessions consistent-hash across the nodes.
    const Index window = args.get_index("window", 8);
    net::WireMask wm;
    wm.kind = net::WireMaskKind::Local;
    wm.a = window;
    std::vector<Size> owned(static_cast<std::size_t>(N), 0);
    const auto t0 = std::chrono::steady_clock::now();
    Size steps_done = 0;
    std::vector<float> qr(static_cast<std::size_t>(d)), kr(qr.size()), vr(qr.size()),
        orow(qr.size());
    for (Index s = 0; s < decode_sessions; ++s) {
      const auto sid = static_cast<std::uint64_t>(1000 + s);
      cc.create_session(sid, wm);
      ++owned[static_cast<std::size_t>(cc.owner_of(sid))];
      for (Index t = 0; t < decode_steps; ++t) {
        for (Index x = 0; x < d; ++x) {
          qr[static_cast<std::size_t>(x)] = rng.next_float();
          kr[static_cast<std::size_t>(x)] = rng.next_float();
          vr[static_cast<std::size_t>(x)] = rng.next_float();
        }
        cc.decode_step(sid, qr.data(), kr.data(), vr.data(), d, orow.data());
        ++steps_done;
      }
    }
    const double dsec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    std::cout << "decode:      " << steps_done << " routed steps over " << decode_sessions
              << " sessions in " << dsec << " s ("
              << (dsec > 0 ? static_cast<double>(steps_done) / dsec : 0.0)
              << " steps/s), ownership";
    for (Index p = 0; p < N; ++p) {
      std::cout << " n" << p << "=" << owned[static_cast<std::size_t>(p)];
    }
    std::cout << "\n";

    // End-of-run per-node stats, scraped over the wire (Op::Stats): each
    // node process's registry IS that node's stats, so this shows what
    // each node actually did — not what the router thinks it did.
    for (Index p = 0; p < N; ++p) {
      const auto snap = cc.node_stats(static_cast<std::uint64_t>(p));
      std::cout << "  node " << p << " stats: prefix "
                << snap.counter("kvcache.prefix.hits") << "/"
                << snap.counter("kvcache.prefix.lookups") << " hits, "
                << snap.counter("kvcache.evictions") << " evictions, "
                << snap.gauge("kvcache.sessions.live") << " sessions, "
                << snap.gauge("kvcache.pages.in_use") << " pages in use, wire in "
                << snap.counter("net.frames.received") << " frames/"
                << snap.counter("net.bytes.received") << " B, out "
                << snap.counter("net.frames.sent") << " frames/"
                << snap.counter("net.bytes.sent") << " B\n";
    }
  } catch (...) {
    cc.shutdown_all();
    for (const auto& np : procs) ::waitpid(np.pid, nullptr, 0);
    throw;
  }

  cc.shutdown_all();
  for (const auto& np : procs) {
    int status = 0;
    ::waitpid(np.pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) rc = 1;
  }
  return rc;
}

#endif  // !_WIN32

/// `gpa stats <host:port>` — scrape a live node's registry snapshot over
/// Op::Stats and print the text exposition (or JSON with --json). With
/// --watch <sec> the node is scraped twice, <sec> apart, and counters
/// are printed as per-second rates (gauges as the second sample).
int cmd_stats(const Args& args) {
  std::string host = args.get("host", "127.0.0.1");
  long long port = args.get_index("port", 0);
  for (const auto& [key, val] : args.kv) {
    (void)val;
    const std::size_t colon = key.find(':');
    if (key.rfind("--", 0) != 0 && colon != std::string::npos) {
      host = key.substr(0, colon);
      port = std::stoll(key.substr(colon + 1));
      break;
    }
  }
  GPA_CHECK(port > 0 && port <= 65535, "stats requires <host:port> (or --host/--port)");
  auto scrape = [&] {
    auto t = net::TcpTransport::connect(host, static_cast<std::uint16_t>(port),
                                        net::Millis{5000}, net::Millis{10000});
    GPA_CHECK(t != nullptr, "stats: connect to " + host + ":" + std::to_string(port) + " failed");
    net::RpcClient rpc(*t);
    net::Writer w;
    w.u8(1);
    const auto body = rpc.call(net::Op::Stats, std::move(w.buf));
    net::Reader r(body);
    obs::MetricsSnapshot snap;
    GPA_CHECK(net::get_metrics_snapshot(r, snap) && r.done(), "stats: bad response body");
    return snap;
  };

  const Index watch_s = args.get_index("watch", 0);
  if (watch_s <= 0) {
    const auto snap = scrape();
    std::cout << (args.flag("json") ? snap.to_json() + "\n" : snap.to_text());
    return 0;
  }

  // --watch: two scrapes bracketing a wall-clock interval. Rates use
  // the measured elapsed time, not the requested one, so a slow connect
  // doesn't inflate them.
  const auto first = scrape();
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::seconds(watch_s));
  const auto second = scrape();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  std::cout << "# rates over " << elapsed << " s (counters: delta/s; gauges: current)\n";
  for (const auto& c : second.counters) {
    double v0 = 0.0;
    for (const auto& p : first.counters) {
      if (p.name == c.name) {
        v0 = static_cast<double>(p.value);
        break;
      }
    }
    std::cout << c.name << " " << (static_cast<double>(c.value) - v0) / elapsed << "/s\n";
  }
  for (const auto& g : second.gauges) std::cout << g.name << " " << g.value << "\n";
  return 0;
}

int cmd_version() {
  // Resolved = the arm Auto dispatches to right now (after GPA_SIMD and
  // the cpuid clamp); compiled = every arm this binary carries.
  std::string compiled;
  for (const SimdLevel l : simd::compiled_levels()) {
    if (!compiled.empty()) compiled += ",";
    compiled += std::string(simd::level_name(l));
  }
  std::cout << "gpa " << kVersion << " (" << kBuildType << ", parallel backend: "
            << parallel_backend() << ", simd: " << simd::simd_backend()
            << ", simd compiled: " << compiled << ")\n";
  return 0;
}

void usage() {
  std::cout << "usage: gpa <mask|info|run|memmodel|serve-bench|decode-bench|cluster-bench|stats|version> [--key value ...]\n"
            << "  gpa mask --pattern local --length 1024 --window 8 --out mask.bin\n"
            << "  gpa info --in mask.bin\n"
            << "  gpa run --pattern bigbird --length 2048 --dim 64 [--causal] [--fp16]\n"
            << "  gpa memmodel --dtype fp16 --dim 64 --sf 0.0001 --device a100\n"
            << "  gpa serve-bench --length 512 --dim 64 --sf 0.001 --max-batch 8 --workers 1\n"
            << "  gpa serve-bench --length 512 --buckets 384,512 --max-batch 8\n"
            << "  gpa serve-bench --decode --sessions 4 --dedup 1 --requests 512\n"
            << "  gpa serve-bench --decode --sessions 4 --requests 512 --length 256\n"
            << "  gpa decode-bench --pattern bigbird --length 1024 --dim 64 --steps 32\n"
            << "  gpa decode-bench --mask composed --length 1024 --reach 8 --globals 2\n"
            << "  gpa cluster-bench --nodes 2 --length 512 --dim 64 [--causal]\n"
            << "      (spawns N gpa_serve processes; ring prefill must be bit-identical\n"
            << "       to the in-process sim_cluster oracle, then a routed decode burst;\n"
            << "       ends with a per-node stats line scraped over Op::Stats)\n"
            << "  gpa stats 127.0.0.1:9000 [--json]   (scrape a live gpa_serve node)\n"
            << "  gpa stats 127.0.0.1:9000 --watch 5  (two scrapes, counters as per-second rates)\n"
            << "  gpa serve-bench ... --trace trace.json   (Chrome trace of the run)\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    if (args.command == "mask") return cmd_mask(args);
    if (args.command == "info") return cmd_info(args);
    if (args.command == "run") return cmd_run(args);
    if (args.command == "memmodel") return cmd_memmodel(args);
    if (args.command == "serve-bench") return cmd_serve_bench(args);
    if (args.command == "stats") return cmd_stats(args);
    if (args.command == "decode-bench") return cmd_decode_bench(args);
#ifndef _WIN32
    if (args.command == "cluster-bench") return cmd_cluster_bench(args);
#endif
    if (args.command == "version" || args.command == "--version") return cmd_version();
    usage();
    return args.command.empty() ? 1 : (std::cerr << "unknown command: " << args.command << "\n", 1);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
