#ifndef DEXA_PERFBENCH_BENCH_H_
#define DEXA_PERFBENCH_BENCH_H_

// Shared plumbing of the benchmark's workloads: options, the report that
// collects checks and metrics, and filesystem/journal helpers.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "modules/registry.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock.
uint64_t NowNanos();

double MsBetween(Clock::time_point start, Clock::time_point end);

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// How long the measurement loop runs.
  double seconds = 10.0;
  /// Traced run: report the per-layer ledger instead of end-to-end metrics.
  bool trace = false;
  /// Scratch directory for journals and sockets, on the filesystem under
  /// test. Emptied before and after the run.
  std::string work_dir;
};

/// The host's online core count: every workload's engine thread count.
size_t HostThreads();

/// One run's verdict and metrics. Every checked operation goes through
/// Check(); metrics are printed as they are recorded and again in the JSON
/// result line.
class Report {
 public:
  /// Prints one human-readable line.
  void Note(const std::string& text);

  /// Prints a timing by name with its statistic, unit and sample count
  /// (DescribeTiming); `p` = 0.5 is the median.
  void Timing(const std::string& name, const std::string& unit,
              const std::vector<double>& samples, double p = 0.5);

  /// Records a metric for the result line; a nonzero `samples` is printed
  /// as the count the value was derived from.
  void Metric(const std::string& name, double value, const std::string& unit,
              size_t samples = 0);

  /// Counts one attempted operation; `ok` false counts it as failed, marks
  /// the run incorrect and prints `what`.
  void Check(bool ok, const std::string& what);

  bool correct() const { return correct_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// {"correct":...,"attempted":...,"failed":...,"metrics":{...}}
  std::string ResultLine() const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, Value> metrics_;
};

/// Prints `what: status` to stderr and exits 1 without a result line.
[[noreturn]] void Die(const std::string& what, const dexa::Status& status);

/// Whether set-up should run again, given the durations (seconds) of the
/// set-ups so far: at least 5 times, and while it is cheap, until 3 s of
/// set-up have been timed (at most 100 times). setup_s is the median of
/// their quietest stretch (QuietestStretch), so a millisecond-scale set-up
/// is measured as steadily as a slow one.
bool MoreSetup(const std::vector<double>& setup_s);

/// Set-ups timed before a measurement loop that also times set-ups between
/// its measured runs (SetupDue).
inline constexpr size_t kMinSetups = 5;

/// Whether to time one more set-up between measured runs, given the seconds
/// spent on such set-ups so far and the seconds the loop has run: while
/// they take under 5% of the loop. A burst of set-ups before the loop sees
/// the host over a second or two; spread over the loop, they see it over
/// the whole run, as the measured runs do.
bool SetupDue(double interleaved_setup_s, double elapsed_s);

/// 64-bit digest of `bytes`; references are kept as digests so they add
/// nothing to the measured process's memory.
uint64_t Digest(const std::string& bytes);

/// Removes and recreates `dir`.
void FreshDir(const std::string& dir);

/// Flushes the filesystem holding `dir`, so writeback left by earlier work
/// does not land inside the next timed region.
void SyncFilesystem(const std::string& dir);

/// Name of the filesystem holding `dir` ("ext4", "tmpfs", ...); sets
/// `*memory_backed` when it keeps data in RAM (tmpfs, ramfs), where fsync
/// costs nothing.
std::string FilesystemType(const std::string& dir, bool* memory_backed);

/// Resets this process's resident-set high-water mark to its current RSS,
/// so PeakRssMb() covers only what runs after it. Dies when the kernel
/// does not offer the reset (/proc/self/clear_refs).
void ResetPeakRss();

/// Resident-set high-water mark of this process since the last
/// ResetPeakRss(), in MiB (VmHWM).
double PeakRssMb();

/// The record frames of `dir`'s journal: every segment's bytes after its
/// magic, in segment order. Equal for a resumed run and a one-shot run,
/// whose segment boundaries differ.
std::string JournalFrames(const std::string& dir);

/// A registry holding the very modules of `source`, without annotations.
std::unique_ptr<dexa::ModuleRegistry> FreshRegistry(
    const dexa::ModuleRegistry& source);

/// Drops every annotation of `registry`, so the next run writes them anew.
void ClearAnnotations(dexa::ModuleRegistry& registry);

}  // namespace perfbench

#endif  // DEXA_PERFBENCH_BENCH_H_
