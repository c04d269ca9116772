// gpabench: one benchmark for gpa's serving paths.
//
//   gpabench --workload <oneshot_mixed|chat_shared_prefix|cluster_long_context>
//            --seed <n> --seconds <s> --trace <0|1>
//            [--out-dir <dir>] [--source-id <id>]
//
// Prints every metric the run measured, with its sample count, then the
// detailed report as one JSON object on the last line of stdout (also
// written to <out-dir>): the host fingerprint, whether the output checks
// passed, attempted and failed operations, and the metrics under their
// workload-native names. With --trace 1 the per-layer metrics come from
// a separate traced pass. run.py projects the report onto the
// BENCHMARK.json vocabulary. Exits 1 when an output check failed.

#include <sys/stat.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using gb::Report;

std::string num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

int usage() {
  std::cerr << "usage: gpabench --workload <oneshot_mixed|chat_shared_prefix|"
               "cluster_long_context> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>] [--source-id <id>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  gb::RunConfig cfg;
  cfg.nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      cfg.workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::stoull(v);
    } else if (a == "--seconds") {
      cfg.seconds = std::stod(v);
    } else if (a == "--trace") {
      cfg.trace = v == "1";
    } else if (a == "--out-dir") {
      cfg.out_dir = v;
    } else if (a == "--source-id") {
      cfg.source_id = v;
    } else {
      return usage();
    }
  }
  if (cfg.seconds <= 0.0) return usage();
  ::mkdir(cfg.out_dir.c_str(), 0755);

  Report rep;
  const gb::CpuTicks t0 = gb::cpu_ticks();
  try {
    if (cfg.workload == "oneshot_mixed") {
      rep = gb::run_oneshot(cfg);
    } else if (cfg.workload == "chat_shared_prefix") {
      rep = gb::run_chat(cfg);
    } else if (cfg.workload == "cluster_long_context") {
      rep = gb::run_cluster(cfg);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "gpabench: " << cfg.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  rep.set("peak_rss_mb", gb::peak_rss_mb(), "MB", 1);
  const gb::CpuTicks t1 = gb::cpu_ticks();
  const std::uint64_t ticks = t1.total - t0.total;
  rep.set("host_steal_frac",
          ticks ? static_cast<double>(t1.steal - t0.steal) / static_cast<double>(ticks) : 0.0,
          "ratio", ticks);
  rep.set("failed_frac",
          rep.attempted ? static_cast<double>(rep.failed) / static_cast<double>(rep.attempted)
                        : 0.0,
          "ratio", rep.attempted);
  const bool correct = rep.check_failures.empty();

  // Detailed report: every metric the run measured, with sample counts.
  std::ostringstream detail;
  detail << "{\"host\": " << gb::fingerprint_json(cfg) << ", \"trace\": " << cfg.trace
         << ", \"seconds\": " << num(cfg.seconds)
         << ", \"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
         << rep.attempted << ", \"failed\": " << rep.failed << ", \"check_failures\": [";
  for (std::size_t i = 0; i < rep.check_failures.size(); ++i) {
    detail << (i ? ", " : "") << '"' << rep.check_failures[i] << '"';
  }
  detail << "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : rep.metrics) {
    detail << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << num(m.value)
           << ", \"unit\": \"" << m.unit << "\", \"n\": " << m.n << "}";
    first = false;
    std::cout << "  " << name << " = " << num(m.value) << " " << m.unit << " (n=" << m.n << ")\n";
  }
  detail << "}}";
  for (const auto& f : rep.check_failures) std::cout << "  CHECK FAILED: " << f << "\n";
  std::ofstream(cfg.out_dir + "/report-" + cfg.workload + "-" + std::to_string(cfg.seed) +
                (cfg.trace ? "-trace" : "") + ".json")
      << detail.str() << "\n";
  std::cout << detail.str() << std::endl;
  return correct ? 0 : 1;
}
