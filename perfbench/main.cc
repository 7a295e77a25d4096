// dexa end-to-end benchmark. Runs one workload through dexa's public API,
// checks every output against a reference, and prints its metrics:
//
//   dexa_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --work-dir <dir>
//
// The engine runs one worker per online core. The human-readable lines
// start with "# "; the last line is one JSON object {"correct",
// "attempted", "failed", "metrics"} holding every metric the run measured
// (end-to-end metrics untraced, per-layer ones traced). perfbench/run.py
// builds this binary and selects the metrics BENCHMARK.json declares.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.h"
#include "workloads.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: dexa_perfbench --workload <annotate_inmem|"
               "resume_durable|serve_annotate> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir>\n";
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      Usage("unknown flag " + flag);
    }
    if (end != nullptr && *end != '\0') Usage("bad value for " + flag);
  }
  if (options.workload.empty()) Usage("--workload is required");
  if (options.work_dir.empty()) Usage("--work-dir is required");
  if (!(options.seconds > 0.0)) Usage("--seconds must be positive");
  return options;
}

int Main(int argc, char** argv) {
  const Options options = ParseOptions(argc, argv);
  if (options.workload != "annotate_inmem" &&
      options.workload != "resume_durable" &&
      options.workload != "serve_annotate") {
    Usage("unknown workload " + options.workload);
  }
  // Only resume_durable journals; serve_annotate's runs are all in memory.
  const bool durable_io = options.workload == "resume_durable";

  FreshDir(options.work_dir);
  bool memory_backed = false;
  const std::string fs_type = FilesystemType(options.work_dir, &memory_backed);
  std::error_code ec;
  Report report;
  report.Note("workload " + options.workload + ", seed " +
              std::to_string(options.seed) + ", " +
              std::to_string(options.seconds) + " s, trace " +
              (options.trace ? "1" : "0"));
  report.Note("host nproc " + std::to_string(HostThreads()) +
              " (= engine threads), build " + PERFBENCH_BUILD_TYPE +
              ", journal filesystem " + fs_type);
  if (durable_io && memory_backed) {
    // fsync is free on a RAM-backed filesystem, so the workload would no
    // longer measure its main layer.
    std::cerr << "perfbench: refusing to run " << options.workload
              << ": the journal directory is on " << fs_type << "\n";
    std::filesystem::remove_all(options.work_dir, ec);
    return 1;
  }

  if (options.workload == "annotate_inmem") {
    RunAnnotate(options, report);
  } else if (options.workload == "resume_durable") {
    RunResume(options, report);
  } else {
    RunServe(options, report);
  }

  report.Metric("failed_frac",
                static_cast<double>(report.failed()) /
                    static_cast<double>(report.attempted()),
                "ratio", report.attempted());
  std::filesystem::remove_all(options.work_dir, ec);
  std::cout << report.ResultLine() << std::endl;
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
