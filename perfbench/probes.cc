#include "probes.h"

#include <utility>

#include "bench.h"

namespace perfbench {

namespace {

/// Adds the time since construction to `ns` on destruction.
class ScopedNanos {
 public:
  explicit ScopedNanos(uint64_t& ns) : ns_(ns), start_(NowNanos()) {}
  ~ScopedNanos() { ns_ += NowNanos() - start_; }
  ScopedNanos(const ScopedNanos&) = delete;
  ScopedNanos& operator=(const ScopedNanos&) = delete;

 private:
  uint64_t& ns_;
  uint64_t start_;
};

class TimingWritableFile final : public dexa::WritableIoFile {
 public:
  TimingWritableFile(std::unique_ptr<dexa::WritableIoFile> inner,
                     IoLedger* ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}

  dexa::Status Append(std::string_view data) override {
    ++ledger_->append_calls;
    ledger_->append_bytes += data.size();
    ScopedNanos timed(ledger_->append_ns);
    return inner_->Append(data);
  }
  dexa::Status Sync() override {
    ++ledger_->sync_calls;
    ScopedNanos timed(ledger_->sync_ns);
    return inner_->Sync();
  }
  dexa::Status Close() override {
    ++ledger_->other_calls;
    ScopedNanos timed(ledger_->other_ns);
    return inner_->Close();
  }

 private:
  std::unique_ptr<dexa::WritableIoFile> inner_;
  IoLedger* ledger_;
};

/// Times each invocation of the wrapped module into a ModuleLedger.
class TimedModule final : public dexa::Module {
 public:
  TimedModule(dexa::ModulePtr inner, ModuleLedger* ledger)
      : Module(inner->spec()), inner_(std::move(inner)), ledger_(ledger) {
    if (!inner_->available()) Retire();
  }

  const dexa::BehaviorGroundTruth* ground_truth() const override {
    return inner_->ground_truth();
  }

 protected:
  dexa::Result<std::vector<dexa::Value>> InvokeImpl(
      const std::vector<dexa::Value>& inputs) const override {
    dexa::InvocationContext context;
    return InvokeWithContext(inputs, context);
  }

  dexa::Result<std::vector<dexa::Value>> InvokeWithContext(
      const std::vector<dexa::Value>& inputs,
      dexa::InvocationContext& context) const override {
    const uint64_t start = NowNanos();
    auto outputs = inner_->Invoke(inputs, context);
    const uint64_t end = NowNanos();
    ledger_->invocations.fetch_add(1, std::memory_order_relaxed);
    if (!outputs.ok()) ledger_->errors.fetch_add(1, std::memory_order_relaxed);
    ledger_->busy_ns.fetch_add(end - start, std::memory_order_relaxed);
    uint64_t first = ledger_->first_start_ns.load(std::memory_order_relaxed);
    while (start < first && !ledger_->first_start_ns.compare_exchange_weak(
                                first, start, std::memory_order_relaxed)) {
    }
    uint64_t last = ledger_->last_end_ns.load(std::memory_order_relaxed);
    while (end > last && !ledger_->last_end_ns.compare_exchange_weak(
                             last, end, std::memory_order_relaxed)) {
    }
    return outputs;
  }

 private:
  dexa::ModulePtr inner_;
  ModuleLedger* ledger_;
};

}  // namespace

dexa::Result<std::unique_ptr<dexa::WritableIoFile>>
TimingIoEnv::NewWritableFile(const std::string& path) {
  ++ledger_->other_calls;
  ScopedNanos timed(ledger_->other_ns);
  auto file = dexa::IoEnv::Real().NewWritableFile(path);
  if (!file.ok()) return file.status();
  return std::unique_ptr<dexa::WritableIoFile>(
      std::make_unique<TimingWritableFile>(std::move(*file), ledger_));
}

dexa::Result<std::string> TimingIoEnv::ReadFile(const std::string& path) {
  ++ledger_->read_calls;
  ScopedNanos timed(ledger_->read_ns);
  auto bytes = dexa::IoEnv::Real().ReadFile(path);
  if (bytes.ok()) ledger_->read_bytes += bytes->size();
  return bytes;
}

dexa::Result<dexa::MmapRegion> TimingIoEnv::MapReadOnly(
    const std::string& path) {
  ++ledger_->read_calls;
  ScopedNanos timed(ledger_->read_ns);
  auto region = dexa::IoEnv::Real().MapReadOnly(path);
  if (region.ok()) ledger_->read_bytes += region->size();
  return region;
}

dexa::Status TimingIoEnv::Rename(const std::string& from,
                                 const std::string& to) {
  ++ledger_->other_calls;
  ScopedNanos timed(ledger_->other_ns);
  return dexa::IoEnv::Real().Rename(from, to);
}

dexa::Status TimingIoEnv::RemoveFile(const std::string& path) {
  ++ledger_->other_calls;
  ScopedNanos timed(ledger_->other_ns);
  return dexa::IoEnv::Real().RemoveFile(path);
}

dexa::Status TimingIoEnv::Truncate(const std::string& path, uint64_t size) {
  ++ledger_->other_calls;
  ScopedNanos timed(ledger_->other_ns);
  return dexa::IoEnv::Real().Truncate(path, size);
}

dexa::Status TimingIoEnv::CreateDirs(const std::string& dir) {
  ++ledger_->other_calls;
  ScopedNanos timed(ledger_->other_ns);
  return dexa::IoEnv::Real().CreateDirs(dir);
}

void ModuleLedger::Reset() {
  invocations = 0;
  errors = 0;
  busy_ns = 0;
  first_start_ns = UINT64_MAX;
  last_end_ns = 0;
}

uint64_t ModuleLedger::window_ns() const {
  const uint64_t first = first_start_ns.load();
  const uint64_t last = last_end_ns.load();
  return last > first ? last - first : 0;
}

std::unique_ptr<dexa::ModuleRegistry> DecoratedRegistry(
    const dexa::ModuleRegistry& source, ModuleLedger* ledger) {
  auto registry = std::make_unique<dexa::ModuleRegistry>();
  for (const dexa::ModulePtr& module : source.AllModules()) {
    dexa::Status registered =
        registry->Register(std::make_shared<TimedModule>(module, ledger));
    if (!registered.ok()) Die("register " + module->spec().id, registered);
  }
  return registry;
}

}  // namespace perfbench
