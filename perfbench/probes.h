#ifndef DEXA_PERFBENCH_PROBES_H_
#define DEXA_PERFBENCH_PROBES_H_

// Bench-owned instruments for the traced run. They wrap dexa's public seams
// (an IoEnv and the registered modules) and time every call into them, so
// the per-layer ledger is measured from the benchmark's own files without
// touching the library.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/io_env.h"
#include "modules/module.h"
#include "modules/registry.h"

namespace perfbench {

/// Call counts, bytes and busy time of the io_env layer, as seen by a
/// TimingIoEnv. Plain counters: a journal and a recovery each issue their
/// calls from one thread.
struct IoLedger {
  uint64_t append_calls = 0;
  uint64_t append_bytes = 0;
  uint64_t append_ns = 0;
  uint64_t sync_calls = 0;
  uint64_t sync_ns = 0;
  uint64_t read_calls = 0;
  uint64_t read_bytes = 0;
  uint64_t read_ns = 0;
  /// Open, close, rename, remove, truncate and mkdir calls.
  uint64_t other_calls = 0;
  uint64_t other_ns = 0;
};

/// An IoEnv that forwards every call to IoEnv::Real() and records it in an
/// IoLedger, which must outlive it. The bytes on disk are exactly the real
/// env's. Not thread-safe, like the journals it serves.
class TimingIoEnv final : public dexa::IoEnv {
 public:
  explicit TimingIoEnv(IoLedger* ledger) : ledger_(ledger) {}

  dexa::Result<std::unique_ptr<dexa::WritableIoFile>> NewWritableFile(
      const std::string& path) override;
  dexa::Result<std::string> ReadFile(const std::string& path) override;
  dexa::Result<dexa::MmapRegion> MapReadOnly(const std::string& path) override;
  dexa::Status Rename(const std::string& from, const std::string& to) override;
  dexa::Status RemoveFile(const std::string& path) override;
  dexa::Status Truncate(const std::string& path, uint64_t size) override;
  dexa::Status CreateDirs(const std::string& dir) override;

 private:
  IoLedger* ledger_;
};

/// Invocation count, errors and busy time of the modules layer, plus the
/// window from the first invocation's start to the last one's end (the
/// wall time of a run's generate phase).
struct ModuleLedger {
  std::atomic<uint64_t> invocations{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> busy_ns{0};
  std::atomic<uint64_t> first_start_ns{UINT64_MAX};
  std::atomic<uint64_t> last_end_ns{0};

  void Reset();
  /// last_end - first_start, or 0 when nothing was invoked.
  uint64_t window_ns() const;
};

/// Builds a registry holding a timing decorator around each module of
/// `source`, in registration order. The decorators keep the wrapped specs
/// (ids included) and forward the invocation context, so a run over the
/// decorated registry has the same fingerprint and output bytes.
std::unique_ptr<dexa::ModuleRegistry> DecoratedRegistry(
    const dexa::ModuleRegistry& source, ModuleLedger* ledger);

}  // namespace perfbench

#endif  // DEXA_PERFBENCH_PROBES_H_
