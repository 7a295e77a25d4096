#ifndef DEXA_SERVE_RUN_MANAGER_H_
#define DEXA_SERVE_RUN_MANAGER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/io_env.h"
#include "common/result.h"
#include "core/run_api.h"
#include "corpus/fault_injector.h"
#include "durability/journal.h"
#include "engine/invocation_engine.h"
#include "modules/registry.h"
#include "obs/trace.h"
#include "shard/sharded_annotate.h"

namespace dexa::serve {

/// Description of a sharded annotate run (serve kind "shard"): everything
/// RunShardedAnnotate needs besides the PreparedRun's own registry. The
/// pointers target ServeEnv-owned shared state and must outlive the run.
struct ShardedRunSpec {
  ShardOptions options;
  EngineConfig config;
  const Ontology* ontology = nullptr;
  const AnnotatedInstancePool* pool = nullptr;
};

/// Lifecycle of one admitted run.
enum class RunState {
  kQueued = 0,     ///< Admitted, waiting for a scheduler slot.
  kRunning = 1,    ///< Executing on the shared engine.
  kDone = 2,       ///< Completed; result retained until evicted.
  kFailed = 3,     ///< SubmitRun returned an error, or run_status is non-OK.
  kCancelled = 4,  ///< Cancelled while still queued.
};

const char* RunStateName(RunState state);

/// A run's kind as serve prints it in status and result responses and in
/// RUN descriptors: the RunKindName, suffixed "_durable" when the run
/// journals (a sharded run reports "annotate_durable").
std::string WireKindName(RunKind kind, bool durable);

/// The submit kind and RUN descriptor kind of a sharded annotate run.
inline constexpr char kShardWireKind[] = "shard";

/// The file a completed durable run leaves in its journal directory; the
/// startup crash-resume scan skips directories that hold it.
inline constexpr char kDoneMarker[] = "DONE";

/// One run, fully prepared: the RunRequest plus ownership of everything the
/// request points at. The request's pointers target the owned members below
/// (or longer-lived shared state such as the ServeEnv corpus), so a
/// PreparedRun can be moved into the run table and executed later.
struct PreparedRun {
  RunRequest request;

  /// Human-readable description for `status` responses (e.g.
  /// "annotate[0,32)" or "enact wf-17").
  std::string label;

  // -- Owned per-run state the request references --------------------------
  std::unique_ptr<ExampleGenerator> generator;
  std::unique_ptr<ModuleRegistry> registry;
  std::unique_ptr<RunJournal> journal;
  std::unique_ptr<JournalRecovery> recovery;
  std::unique_ptr<CrashPlan> crash;
  std::unique_ptr<obs::Tracer> tracer;

  /// Set for sharded annotate runs: ExecuteBatch routes the run through
  /// RunShardedAnnotate (shard/sharded_annotate.h) instead of SubmitRun;
  /// `request` is then left at its default kAnnotate kind, which status
  /// views read. The spec's registry is this PreparedRun's `registry`.
  std::unique_ptr<ShardedRunSpec> sharded;

  /// The file system the run's journal and DONE marker route through:
  /// `faulty` when the run carries an injected fault profile, otherwise the
  /// ServeEnv's. nullptr means the real file system.
  IoEnv* io = nullptr;

  /// The run's injected-fault env, over the ServeEnv's file system. Owned
  /// here so the seam outlives execution.
  std::unique_ptr<FaultyIoEnv> faulty;

  /// Journal directory of a durable run ("" otherwise); a run is reported
  /// durable exactly when this is set. On successful completion the manager
  /// drops a DONE marker here so the startup crash-resume scan knows the
  /// run does not need resuming.
  std::string journal_dir;

  /// Virtual-clock deadline budget for this run in nanoseconds; 0 uses
  /// RunManagerOptions::default_deadline_ns (which may also be 0 = none).
  uint64_t deadline_ns = 0;
};

/// Tuning of a RunManager.
struct RunManagerOptions {
  /// Admission bound: Submit rejects with kOverloaded once this many runs
  /// are queued or running. The bound is what keeps latency finite under
  /// overload — the daemon sheds load instead of queueing without limit.
  size_t capacity = 64;

  /// Completed/failed runs retained for `result` queries; the oldest are
  /// evicted beyond this, keeping the run table bounded.
  size_t retain_results = 256;

  /// Runs executed concurrently per ExecuteBatch call (fanned across the
  /// shared engine's pool; each run's own fan-out nests re-entrantly).
  size_t execute_batch = 8;

  /// Per-tenant admission quota: one tenant may hold at most this many
  /// queued runs (0 = unlimited). Breach is typed kOverloaded — the global
  /// capacity bound protects the daemon, this bound protects the *other*
  /// tenants from a bursting one.
  size_t per_tenant_max_queued = 0;

  /// Per-tenant concurrency quota: at most this many of one tenant's runs
  /// execute in a single batch (0 = unlimited); excess stays queued and
  /// other tenants' runs fill the batch instead.
  size_t per_tenant_max_concurrent = 0;

  /// Default virtual-clock deadline for admitted runs in nanoseconds
  /// (0 = none). A run still queued when the clock passes its admission
  /// reading + deadline finishes typed kTimeout without executing.
  uint64_t default_deadline_ns = 0;
};

/// Point-in-time view of one run for `status` responses.
struct RunStatusView {
  uint64_t id = 0;
  std::string tenant;
  RunState state = RunState::kQueued;
  RunKind kind = RunKind::kAnnotate;
  bool durable = false;  ///< The run journals (PreparedRun::journal_dir).
  std::string label;
  /// ToString of the run's outcome status; "" while queued/running.
  std::string outcome;
};

/// Aggregate counters for the `metrics` response and the serve bench.
struct RunManagerCounters {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t cancelled = 0;
  uint64_t rejected_overloaded = 0;
  /// Admissions rejected by the per-tenant queued quota (also typed
  /// kOverloaded on the wire, counted separately for the health probe).
  uint64_t rejected_quota = 0;
  /// Queued runs that finished kTimeout because their virtual-clock
  /// deadline passed before a scheduler slot arrived.
  uint64_t deadline_expired = 0;
  /// Runs whose outcome was a disk-fault class status (kResourceExhausted
  /// or kCorrupted) — the "disk" column of the health probe.
  uint64_t failed_io = 0;
  /// Completed durable runs whose DONE marker could not be written (the
  /// run's result stands; restart re-resumes it idempotently).
  uint64_t done_marker_failed = 0;
  size_t queued = 0;
  size_t retained = 0;
};

/// The multi-tenant run table of the serve daemon: admits PreparedRuns up
/// to a bound, schedules them fairly across tenants, executes them in
/// batches over one shared InvocationEngine, and retains results for
/// retrieval — every run routed through the SubmitRun facade.
///
/// Fair scheduling: a tenant's k-th submitted run carries fairness key
/// (k, submit_sequence); the scheduler always pops the lowest key, so a
/// tenant that bursts 100 runs cannot starve a tenant that submits one —
/// round-robin emerges from the ordering, with submit order breaking ties.
/// The schedule is a pure function of the submit sequence: deterministic,
/// independent of thread count and timing.
///
/// Threading: the manager is driven by one thread (the daemon's poll loop);
/// it is not itself thread-safe. ExecuteBatch fans run *execution* across
/// the engine's workers, but all bookkeeping happens on the driving thread.
class RunManager {
 public:
  RunManager(InvocationEngine& engine, RunManagerOptions options = {});

  RunManager(const RunManager&) = delete;
  RunManager& operator=(const RunManager&) = delete;

  /// Admits one run for `tenant`. Fails with kOverloaded when the table is
  /// at capacity — the typed backpressure clients are expected to react to.
  [[nodiscard]] Result<uint64_t> Submit(const std::string& tenant,
                                        PreparedRun run);

  /// The run's current state; kNotFound for unknown/evicted ids.
  [[nodiscard]] Result<RunStatusView> StatusOf(uint64_t id) const;

  /// The finished run's result; kUnavailable while queued/running.
  [[nodiscard]] Result<const RunResult*> ResultOf(uint64_t id) const;

  /// The finished run's owned state (for rendering annotations, traces,
  /// per-run metrics); kUnavailable while queued/running.
  [[nodiscard]] Result<const PreparedRun*> RunOf(uint64_t id) const;

  /// Cancels a queued run. Running runs cannot be preempted (kUnavailable);
  /// finished runs fail with kAlreadyExists (the result is in).
  [[nodiscard]] Status Cancel(uint64_t id);

  /// Pops up to options.execute_batch runs in fairness order and executes
  /// them concurrently over the shared engine. Returns the executed run ids
  /// in scheduling order (empty when the queue is idle).
  std::vector<uint64_t> ExecuteBatch();

  /// Executes until the queue is empty — the graceful-drain path of
  /// shutdown. Returns the number of runs executed.
  size_t Drain();

  size_t queued() const { return queue_.size(); }
  /// Distinct tenants ever admitted (the run-table row of the health probe).
  size_t tenants() const { return tenant_counts_.size(); }
  const RunManagerOptions& options() const { return options_; }
  const RunManagerCounters& counters() const { return counters_; }

  /// Every run id ever started, in scheduling order — the fairness tests
  /// assert on this.
  const std::vector<uint64_t>& started_order() const { return started_order_; }

 private:
  struct RunRecord {
    uint64_t id = 0;
    std::string tenant;
    RunState state = RunState::kQueued;
    PreparedRun run;
    Status outcome;
    RunResult result;
    uint64_t finish_sequence = 0;  ///< Eviction order for retained results.
    /// Virtual-clock reading past which a still-queued run expires
    /// (0 = no deadline).
    uint64_t deadline_at = 0;
  };

  void FinishRun(RunRecord& record, Result<RunResult> result);
  /// Finishes a queued run typed kTimeout without executing it.
  void ExpireRun(RunRecord& record);
  void EvictRetained();

  InvocationEngine& engine_;
  RunManagerOptions options_;

  uint64_t next_id_ = 1;
  uint64_t submit_sequence_ = 0;
  uint64_t finish_sequence_ = 0;
  std::map<std::string, uint64_t> tenant_counts_;
  /// Currently-queued run count per tenant (the per_tenant_max_queued
  /// admission quota dispatches on this).
  std::map<std::string, size_t> tenant_queued_;

  /// Fairness key (tenant_seq, submit_seq) -> run id; begin() is the next
  /// run to schedule.
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> queue_;

  /// Run table: queued + running + retained results, keyed by id.
  std::map<uint64_t, RunRecord> records_;

  std::vector<uint64_t> started_order_;
  RunManagerCounters counters_;
};

}  // namespace dexa::serve

#endif  // DEXA_SERVE_RUN_MANAGER_H_
