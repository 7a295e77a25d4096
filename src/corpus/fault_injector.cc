#include "corpus/fault_injector.h"

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace dexa {

FaultInjector::FaultInjector(ModulePtr inner, FaultProfile profile,
                             EngineMetrics* metrics)
    : Module(inner->spec()),
      inner_(std::move(inner)),
      profile_(profile),
      metrics_(metrics) {}

Result<std::vector<Value>> FaultInjector::InvokeImpl(
    const std::vector<Value>& inputs) const {
  InvocationContext context;
  return InvokeWithContext(inputs, context);
}

Result<std::vector<Value>> FaultInjector::InvokeWithContext(
    const std::vector<Value>& inputs, InvocationContext& context) const {
  invocations_.fetch_add(1, std::memory_order_relaxed);
  context.charged_ns += profile_.latency_ns;

  auto inject = [&](Status status) -> Result<std::vector<Value>> {
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_ != nullptr) metrics_->Add(EngineCounter::injected_faults);
    return status;
  };

  if (profile_.down) {
    return inject(Status::Permanent("module '" + spec().name +
                                    "' backend is permanently gone"));
  }

  if (context.attempt < profile_.flaky_first_attempts) {
    return inject(Status::Transient("module '" + spec().name +
                                    "' is flaky (attempt " +
                                    std::to_string(context.attempt) + ")"));
  }

  if (profile_.transient_rate > 0.0) {
    // One independent draw per (inputs, attempt): a retry re-rolls the
    // dice, and the verdict for a given input never depends on what other
    // inputs or threads did.
    uint64_t key = profile_.seed;
    for (const Value& value : inputs) key = HashCombine(key, value.Hash());
    Rng draw(HashCombine(key, static_cast<uint64_t>(context.attempt)));
    if (draw.NextDouble() < profile_.transient_rate) {
      return inject(Status::Transient("module '" + spec().name +
                                      "' dropped the connection"));
    }
  }

  return inner_->Invoke(inputs, context);
}

const char* CrashPointName(CrashPoint point) {
  switch (point) {
    case CrashPoint::kNone:
      return "none";
    case CrashPoint::kCrashBeforeCommit:
      return "before-commit";
    case CrashPoint::kCrashAfterCommit:
      return "after-commit";
    case CrashPoint::kTornWrite:
      return "torn-write";
  }
  return "unknown";
}

Result<CrashPoint> ParseCrashPoint(const std::string& name) {
  if (name == "before") return CrashPoint::kCrashBeforeCommit;
  if (name == "after") return CrashPoint::kCrashAfterCommit;
  if (name == "torn") return CrashPoint::kTornWrite;
  return Status::InvalidArgument("crash must be before|after|torn, got '" +
                                 name + "'");
}

Result<std::unique_ptr<ModuleRegistry>> WrapRegistryWithFaults(
    const ModuleRegistry& registry, const FaultProfile& profile,
    EngineMetrics* metrics) {
  auto wrapped = std::make_unique<ModuleRegistry>();
  for (const ModulePtr& module : registry.AllModules()) {
    FaultProfile module_profile = profile;
    module_profile.seed =
        HashCombine(profile.seed, StableHash64(module->spec().id));
    auto injector = std::make_shared<FaultInjector>(module, module_profile,
                                                    metrics);
    if (!module->available()) injector->Retire();
    DEXA_RETURN_IF_ERROR(wrapped->Register(std::move(injector)));
  }
  return wrapped;
}

}  // namespace dexa
