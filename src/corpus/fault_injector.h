#ifndef DEXA_CORPUS_FAULT_INJECTOR_H_
#define DEXA_CORPUS_FAULT_INJECTOR_H_

#include <atomic>
#include <memory>
#include <string>

#include "engine/metrics.h"
#include "modules/module.h"
#include "modules/registry.h"

namespace dexa {

/// Deterministic, seed-driven fault profile for a wrapped module. Every
/// per-attempt decision is derived from (profile seed, deep input hash,
/// attempt number) — never from wall time, invocation order or thread
/// scheduling — so a faulty run is byte-identical across thread counts and
/// repeat invocations, and a retried attempt re-draws its fate instead of
/// replaying the first attempt's failure.
struct FaultProfile {
  /// Salt for all stochastic fault decisions of this injector.
  uint64_t seed = 0xFA17;

  /// Per-attempt probability of a kTransient failure (intermittent backend
  /// error). With retries, P(exhaustion) = transient_rate^max_attempts.
  double transient_rate = 0.0;

  /// Flaky warm-up: attempts [0, flaky_first_attempts) of every input fail
  /// with kTransient before the stochastic draws even run. Models a flaky
  /// period that a sufficiently patient retry policy always outlasts (and
  /// an insufficient one never does) — exactly reproducible.
  int flaky_first_attempts = 0;

  /// Virtual latency charged per attempt (successful or not); consumes the
  /// engine's per-invocation deadline budget.
  uint64_t latency_ns = 0;

  /// Permanent decay active from the first invocation: every call fails
  /// with kPermanent while the registry still believes the module is
  /// available — the dynamic-decay situation ScanForDecay detects.
  bool down = false;
};

/// Where, relative to a durable commit, an injected crash lands. The crash
/// is simulated in-process: the durable run loop stops as if the process
/// had died, and for kTornWrite the journal tail is additionally damaged
/// (truncated + bit-flipped) the way a half-flushed write would leave it.
enum class CrashPoint {
  kNone = 0,
  /// Die before the chosen unit's commit record is appended: recovery must
  /// re-invoke that unit (and everything after it).
  kCrashBeforeCommit,
  /// Die right after the commit record is flushed: recovery must replay the
  /// unit from the journal without re-invoking it.
  kCrashAfterCommit,
  /// Die mid-append: the commit record lands torn (truncated/flipped
  /// bytes), so recovery must detect the damage via CRC32, discard the
  /// tail, and re-invoke the unit.
  kTornWrite,
};

/// A deterministic crash plan for one durable run: crash at `point`
/// relative to the commit of the unit keyed `key` (a module id for
/// annotation runs, a module id of a processor for enactments). The torn
/// variant truncates and flips a fixed, seeded set of journal-tail bytes
/// (the kTorn* constants in durability/run_api.cc). kNone plans are inert,
/// so the plan can be threaded through unconditionally.
struct CrashPlan {
  CrashPoint point = CrashPoint::kNone;
  std::string key;

  bool armed() const { return point != CrashPoint::kNone; }
  bool Matches(const std::string& unit_key) const {
    return armed() && key == unit_key;
  }
};

/// Human-readable name of a crash point ("before-commit", ...).
const char* CrashPointName(CrashPoint point);

/// The crash point a request spells "before", "after" or "torn" — the one
/// spelling the CLI's --crash and serve's "crash" field share.
[[nodiscard]] Result<CrashPoint> ParseCrashPoint(const std::string& name);

/// Wraps any module with a deterministic fault profile. The injector
/// presents the wrapped module's exact spec and ground truth, decides per
/// attempt whether to fail (and how, on the typed Status taxonomy), charges
/// virtual latency through the InvocationContext, and otherwise delegates
/// to the wrapped module.
class FaultInjector : public Module {
 public:
  /// `metrics` (optional) counts every fault this injector manufactures
  /// (EngineCounter::injected_faults); pass the consuming engine's metrics
  /// to make injected faults observable in run reports.
  FaultInjector(ModulePtr inner, FaultProfile profile,
                EngineMetrics* metrics = nullptr);

  const FaultProfile& profile() const { return profile_; }
  const Module& inner() const { return *inner_; }

  /// Total attempts routed through this injector.
  uint64_t invocations() const {
    return invocations_.load(std::memory_order_relaxed);
  }
  /// Attempts that failed with a manufactured fault.
  uint64_t faults_injected() const {
    return faults_injected_.load(std::memory_order_relaxed);
  }

  const BehaviorGroundTruth* ground_truth() const override {
    return inner_->ground_truth();
  }

 protected:
  [[nodiscard]] Result<std::vector<Value>> InvokeImpl(
      const std::vector<Value>& inputs) const override;

  [[nodiscard]] Result<std::vector<Value>> InvokeWithContext(
      const std::vector<Value>& inputs,
      InvocationContext& context) const override;

 private:
  ModulePtr inner_;
  FaultProfile profile_;
  EngineMetrics* metrics_;
  mutable std::atomic<uint64_t> invocations_{0};
  mutable std::atomic<uint64_t> faults_injected_{0};
};

/// Builds a registry wrapping every module of `registry` (in registration
/// order, same ids and specs) in a FaultInjector carrying `profile` with a
/// per-module seed forked from profile.seed and the module id — so faults
/// are independent across modules but reproducible per module.
[[nodiscard]] Result<std::unique_ptr<ModuleRegistry>> WrapRegistryWithFaults(
    const ModuleRegistry& registry, const FaultProfile& profile,
    EngineMetrics* metrics = nullptr);

}  // namespace dexa

#endif  // DEXA_CORPUS_FAULT_INJECTOR_H_
