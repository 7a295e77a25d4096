#include "bench.h"

#include <fcntl.h>
#include <linux/magic.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>

#include "durability/journal.h"
#include "stats.h"

namespace perfbench {

namespace fs = std::filesystem;

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double MsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

void Report::Note(const std::string& text) {
  std::cout << "# " << text << "\n";
}

void Report::Timing(const std::string& name, const std::string& unit,
                    const std::vector<double>& samples, double p) {
  Note("timing " + DescribeTiming(name, unit, samples, p));
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, size_t samples) {
  metrics_[name] = Value{value, unit};
  char line[256];
  int length = std::snprintf(line, sizeof(line), "metric %s = %.6g %s",
                             name.c_str(), value, unit.c_str());
  if (samples > 0 && length > 0 && static_cast<size_t>(length) < sizeof(line)) {
    std::snprintf(line + length, sizeof(line) - length, " (n=%zu)", samples);
  }
  Note(line);
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  correct_ = false;
  // The first failures explain the verdict; later ones only count.
  if (failed_ <= 10) std::cerr << "check failed: " << what << "\n";
}

std::string Report::ResultLine() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    char value[64];
    // JSON has no NaN or infinity; a metric that is not finite is a bug.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : -1.0);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << value
        << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

void Die(const std::string& what, const dexa::Status& status) {
  std::cerr << "perfbench: " << what << ": " << status.ToString() << "\n";
  std::exit(1);
}

size_t HostThreads() {
  const long online = ::sysconf(_SC_NPROCESSORS_ONLN);
  return online > 0 ? static_cast<size_t>(online) : 1;
}

bool MoreSetup(const std::vector<double>& setup_s) {
  constexpr size_t kMax = 100;
  constexpr double kBudgetS = 3.0;
  double total = 0.0;
  for (double seconds : setup_s) total += seconds;
  return setup_s.size() < kMinSetups ||
         (setup_s.size() < kMax && total < kBudgetS);
}

bool SetupDue(double interleaved_setup_s, double elapsed_s) {
  constexpr double kShare = 0.05;
  return interleaved_setup_s < kShare * elapsed_s;
}

uint64_t Digest(const std::string& bytes) {
  return std::hash<std::string>{}(bytes);
}

void FreshDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) Die("create " + dir, dexa::Status::Internal(ec.message()));
}

void SyncFilesystem(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

std::string FilesystemType(const std::string& dir, bool* memory_backed) {
  struct statfs info {};
  *memory_backed = false;
  if (::statfs(dir.c_str(), &info) != 0) return "unknown";
  const auto type = static_cast<unsigned long>(info.f_type);
  switch (type) {
    case TMPFS_MAGIC:
      *memory_backed = true;
      return "tmpfs";
    case RAMFS_MAGIC:
      *memory_backed = true;
      return "ramfs";
    case EXT4_SUPER_MAGIC:
      return "ext4";
    case XFS_SUPER_MAGIC:
      return "xfs";
    case BTRFS_SUPER_MAGIC:
      return "btrfs";
    case OVERLAYFS_SUPER_MAGIC:
      return "overlayfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx", type);
      return hex;
    }
  }
}

void ResetPeakRss() {
  // "5" resets the high-water mark only (proc(5), clear_refs).
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  if (!clear) {
    Die("reset peak RSS",
        dexa::Status::Unavailable("cannot write /proc/self/clear_refs"));
  }
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB.
    }
  }
  Die("read peak RSS", dexa::Status::Unavailable("no VmHWM in /proc/self"));
}

namespace {

std::vector<fs::path> Segments(const std::string& dir) {
  std::vector<fs::path> segments;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().filename().string().rfind("wal-", 0) == 0) {
      segments.push_back(entry.path());
    }
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

std::string ReadWhole(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

std::string JournalFrames(const std::string& dir) {
  std::string all;
  for (const fs::path& path : Segments(dir)) {
    const std::string bytes = ReadWhole(path);
    if (bytes.size() >= dexa::kJournalSegmentMagicLen) {
      all.append(bytes, dexa::kJournalSegmentMagicLen);
    }
  }
  return all;
}

std::unique_ptr<dexa::ModuleRegistry> FreshRegistry(
    const dexa::ModuleRegistry& source) {
  auto registry = std::make_unique<dexa::ModuleRegistry>();
  for (const dexa::ModulePtr& module : source.AllModules()) {
    dexa::Status registered = registry->Register(module);
    if (!registered.ok()) Die("register " + module->spec().id, registered);
  }
  return registry;
}

void ClearAnnotations(dexa::ModuleRegistry& registry) {
  for (const dexa::ModulePtr& module : registry.AllModules()) {
    dexa::Status cleared = registry.SetDataExamples(module->spec().id, {});
    if (!cleared.ok()) Die("clear " + module->spec().id, cleared);
  }
}

}  // namespace perfbench
