// viewmap_perfbench — one workload of the service benchmark per run.
//
//   viewmap_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--smoke] [--work-dir <dir>]
//
// Prints a detail line ({"detail": …}: host and input identity, per-phase
// accounting, oracle verdicts) and, last, the result line
// {"correct", "attempted", "failed", "metrics"}. Exit code 0 only when
// every correctness oracle held.
//
//   viewmap_perfbench --restore-probe <store dir>
//
// is the child process the workloads start for each cold restore.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "bench.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: viewmap_perfbench --workload <downtown_cold|hot_incident_live|"
               "upload_checkpoint_restart> --seed <n> --seconds <s> --trace <0|1> "
               "[--smoke] [--work-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--restore-probe") == 0) {
    try {
      return perfbench::restore_probe_main(argv[2]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "viewmap_perfbench: restore probe: %s\n", e.what());
      return 1;
    }
  }
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--work-dir" && has_value) {
      opt.work_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (!(opt.seconds > 0.0)) return usage();

  perfbench::Result result;
  try {
    if (opt.workload == "downtown_cold")
      perfbench::run_downtown_cold(opt, result);
    else if (opt.workload == "hot_incident_live")
      perfbench::run_hot_incident_live(opt, result);
    else if (opt.workload == "upload_checkpoint_restart")
      perfbench::run_upload_checkpoint_restart(opt, result);
    else
      return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "viewmap_perfbench: %s\n", e.what());
    return 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(opt.work_dir, ec);

  const char* source = std::getenv("PERFBENCH_SOURCE_DIGEST");
  perfbench::Json host;
  host.integer("nproc", std::thread::hardware_concurrency())
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("compiler", PERFBENCH_COMPILER)
      .str("source_digest", source != nullptr ? source : "unknown");
  std::string violations = "[";
  for (std::size_t i = 0; i < result.violations.size(); ++i)
    violations += (i > 0 ? ", " : "") + perfbench::json_quote(result.violations[i]);
  violations += "]";
  result.detail.obj("host", host).raw("violations", violations);
  perfbench::Json detail;
  detail.obj("detail", result.detail);
  std::cout << detail.dump() << "\n";

  const bool correct = result.violations.empty();
  perfbench::Json metrics;
  if (correct)
    for (const auto& [name, m] : result.metrics)
      metrics.obj(name, perfbench::Json().num("value", m.value).str("unit", m.unit));
  perfbench::Json line;
  line.boolean("correct", correct)
      .integer("attempted", std::max<std::uint64_t>(result.attempted, 1))
      .integer("failed", result.failed)
      .obj("metrics", metrics);
  std::cout << line.dump() << std::endl;
  return correct ? 0 : 1;
}
