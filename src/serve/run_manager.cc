#include "serve/run_manager.h"

#include <utility>

namespace dexa::serve {

namespace {

/// Virtual nanoseconds the clock advances per executed run (1 ms), making
/// queue-wait deadlines a deterministic function of the schedule rather
/// than of wall time.
constexpr uint64_t kRunCostNs = 1'000'000;

/// Marks a durable run's journal directory as finished so the startup
/// crash-resume scan skips it. Routed through the run's I/O env so an
/// injected (or real) full disk fails typed — the caller keeps the result
/// and restart re-resumes the journal idempotently.
Status WriteDoneMarker(IoEnv& io, const std::string& journal_dir) {
  if (journal_dir.empty()) return Status::OK();
  DEXA_RETURN_IF_ERROR(io.CreateDirs(journal_dir));
  return WriteFileAtomic(io, JoinPath(journal_dir, kDoneMarker), "done\n");
}

/// Executes one prepared run: sharded annotate runs go through the shard
/// runner (which submits one RunRequest per shard internally); everything
/// else is a single SubmitRun. The adapter shapes the sharded result like an
/// annotate RunResult so status/result handling stays uniform.
Result<RunResult> ExecutePrepared(PreparedRun& run) {
  if (run.sharded == nullptr) return SubmitRun(run.request);
  const ShardedRunSpec& spec = *run.sharded;
  auto sharded = RunShardedAnnotate(*run.registry, *spec.ontology, *spec.pool,
                                    spec.config, spec.options, run.io);
  if (!sharded.ok()) return sharded.status();
  RunResult result;
  result.kind = RunKind::kAnnotate;
  result.annotate = std::move(sharded->merged);
  result.run_status = result.annotate.run_status;
  return result;
}

}  // namespace

std::string WireKindName(RunKind kind, bool durable) {
  return std::string(RunKindName(kind)) + (durable ? "_durable" : "");
}

const char* RunStateName(RunState state) {
  switch (state) {
    case RunState::kQueued:
      return "queued";
    case RunState::kRunning:
      return "running";
    case RunState::kDone:
      return "done";
    case RunState::kFailed:
      return "failed";
    case RunState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

RunManager::RunManager(InvocationEngine& engine, RunManagerOptions options)
    : engine_(engine), options_(options) {
  if (options_.capacity == 0) options_.capacity = 1;
  if (options_.execute_batch == 0) options_.execute_batch = 1;
}

Result<uint64_t> RunManager::Submit(const std::string& tenant,
                                    PreparedRun run) {
  if (queue_.size() >= options_.capacity) {
    ++counters_.rejected_overloaded;
    return Status::Overloaded("run table at capacity (" +
                              std::to_string(options_.capacity) +
                              " queued); retry after a drain");
  }
  if (options_.per_tenant_max_queued != 0 &&
      tenant_queued_[tenant] >= options_.per_tenant_max_queued) {
    ++counters_.rejected_quota;
    return Status::Overloaded(
        "tenant '" + tenant + "' is over its queued-run quota (" +
        std::to_string(options_.per_tenant_max_queued) +
        "); other tenants' runs are unaffected");
  }
  uint64_t id = next_id_++;
  uint64_t tenant_seq = tenant_counts_[tenant]++;
  uint64_t submit_seq = submit_sequence_++;

  const uint64_t deadline_ns = run.deadline_ns != 0
                                   ? run.deadline_ns
                                   : options_.default_deadline_ns;

  RunRecord record;
  record.id = id;
  record.tenant = tenant;
  record.state = RunState::kQueued;
  record.run = std::move(run);
  if (deadline_ns != 0) {
    record.deadline_at = engine_.clock().Now() + deadline_ns;
  }
  records_.emplace(id, std::move(record));
  queue_.emplace(std::make_pair(tenant_seq, submit_seq), id);
  ++tenant_queued_[tenant];
  ++counters_.submitted;
  counters_.queued = queue_.size();
  return id;
}

Result<RunStatusView> RunManager::StatusOf(uint64_t id) const {
  auto it = records_.find(id);
  if (it == records_.end()) {
    return Status::NotFound("run " + std::to_string(id) +
                            " unknown (never submitted, or evicted)");
  }
  const RunRecord& record = it->second;
  RunStatusView view;
  view.id = record.id;
  view.tenant = record.tenant;
  view.state = record.state;
  view.kind = record.run.request.kind;
  view.durable = !record.run.journal_dir.empty();
  view.label = record.run.label;
  if (record.state == RunState::kDone || record.state == RunState::kFailed) {
    view.outcome = record.outcome.ToString();
  } else if (record.state == RunState::kCancelled) {
    view.outcome = "cancelled before execution";
  }
  return view;
}

Result<const RunResult*> RunManager::ResultOf(uint64_t id) const {
  auto it = records_.find(id);
  if (it == records_.end()) {
    return Status::NotFound("run " + std::to_string(id) + " unknown");
  }
  const RunRecord& record = it->second;
  if (record.state == RunState::kQueued || record.state == RunState::kRunning) {
    return Status::Unavailable("run " + std::to_string(id) +
                               " still " + RunStateName(record.state));
  }
  if (record.state == RunState::kCancelled) {
    return Status::Cancelled("run " + std::to_string(id) + " was cancelled");
  }
  if (!record.outcome.ok()) return record.outcome;
  return &record.result;
}

Result<const PreparedRun*> RunManager::RunOf(uint64_t id) const {
  auto it = records_.find(id);
  if (it == records_.end()) {
    return Status::NotFound("run " + std::to_string(id) + " unknown");
  }
  const RunRecord& record = it->second;
  if (record.state == RunState::kQueued || record.state == RunState::kRunning) {
    return Status::Unavailable("run " + std::to_string(id) +
                               " still " + RunStateName(record.state));
  }
  return &record.run;
}

Status RunManager::Cancel(uint64_t id) {
  auto it = records_.find(id);
  if (it == records_.end()) {
    return Status::NotFound("run " + std::to_string(id) + " unknown");
  }
  RunRecord& record = it->second;
  if (record.state != RunState::kQueued) {
    if (record.state == RunState::kCancelled) return Status::OK();
    return Status::Unavailable("run " + std::to_string(id) + " already " +
                               std::string(RunStateName(record.state)) +
                               "; only queued runs can be cancelled");
  }
  for (auto queue_it = queue_.begin(); queue_it != queue_.end(); ++queue_it) {
    if (queue_it->second == id) {
      queue_.erase(queue_it);
      --tenant_queued_[record.tenant];
      break;
    }
  }
  record.state = RunState::kCancelled;
  record.finish_sequence = finish_sequence_++;
  ++counters_.cancelled;
  counters_.queued = queue_.size();
  EvictRetained();
  return Status::OK();
}

std::vector<uint64_t> RunManager::ExecuteBatch() {
  const uint64_t now = engine_.clock().Now();
  std::vector<uint64_t> batch;
  std::map<std::string, size_t> batch_per_tenant;
  for (auto it = queue_.begin();
       it != queue_.end() && batch.size() < options_.execute_batch;) {
    RunRecord& record = records_.at(it->second);
    if (record.deadline_at != 0 && now >= record.deadline_at) {
      // Expired while queued: finish typed without burning a slot on it.
      --tenant_queued_[record.tenant];
      it = queue_.erase(it);
      ExpireRun(record);
      continue;
    }
    if (options_.per_tenant_max_concurrent != 0 &&
        batch_per_tenant[record.tenant] >= options_.per_tenant_max_concurrent) {
      // Over the tenant's concurrency quota for this batch: leave it queued
      // and let other tenants' runs fill the remaining slots.
      ++it;
      continue;
    }
    ++batch_per_tenant[record.tenant];
    --tenant_queued_[record.tenant];
    batch.push_back(it->second);
    it = queue_.erase(it);
  }
  counters_.queued = queue_.size();
  if (batch.empty()) {
    EvictRetained();  // Runs that expired above are retained results too.
    return batch;
  }

  std::vector<RunRecord*> running;
  running.reserve(batch.size());
  for (uint64_t id : batch) {
    RunRecord& record = records_.at(id);
    record.state = RunState::kRunning;
    running.push_back(&record);
    started_order_.push_back(id);
  }

  // Execute the batch concurrently over the shared pool; each slot writes
  // only its own index, and all bookkeeping is folded in sequentially after
  // the barrier so the run table mutates deterministically.
  std::vector<Result<RunResult>> outcomes(running.size(),
                                          Status::Internal("run not executed"));
  engine_.ForEach(running.size(), [&](size_t i) {
    outcomes[i] = ExecutePrepared(running[i]->run);
  });

  for (size_t i = 0; i < running.size(); ++i) {
    FinishRun(*running[i], std::move(outcomes[i]));
  }
  // Charge the batch to the virtual clock so queue-wait deadlines are a
  // deterministic function of the schedule, not of wall time.
  engine_.clock().Advance(kRunCostNs * batch.size());
  EvictRetained();
  return batch;
}

size_t RunManager::Drain() {
  size_t executed = 0;
  while (!queue_.empty()) {
    // A batch may legitimately execute nothing (every queued run expired);
    // the loop still terminates because each pass shrinks the queue.
    executed += ExecuteBatch().size();
  }
  return executed;
}

void RunManager::FinishRun(RunRecord& record, Result<RunResult> result) {
  record.finish_sequence = finish_sequence_++;
  if (!result.ok()) {
    record.state = RunState::kFailed;
    record.outcome = result.status();
    ++counters_.failed;
    if (record.outcome.IsResourceExhausted() || record.outcome.IsCorrupted()) {
      ++counters_.failed_io;
    }
    return;
  }
  record.result = std::move(*result);
  record.outcome = record.result.run_status;
  if (record.result.complete()) {
    record.state = RunState::kDone;
    ++counters_.completed;
    IoEnv& io = record.run.io != nullptr ? *record.run.io : IoEnv::Real();
    Status marked = WriteDoneMarker(io, record.run.journal_dir);
    if (!marked.ok()) {
      // The run's result stands; a missing DONE marker only means restart
      // replays the (complete) journal — idempotent, so degrade quietly.
      ++counters_.done_marker_failed;
    }
  } else {
    // The facade returned a result but the run itself stopped short (e.g. a
    // planned crash in a durable run, or a disk fault mid-commit): keep the
    // partial result inspectable but do not mark the journal finished —
    // restart will resume it.
    record.state = RunState::kFailed;
    ++counters_.failed;
    if (record.outcome.IsResourceExhausted() || record.outcome.IsCorrupted()) {
      ++counters_.failed_io;
    }
  }
}

void RunManager::ExpireRun(RunRecord& record) {
  record.finish_sequence = finish_sequence_++;
  record.state = RunState::kFailed;
  record.outcome = Status::Timeout(
      "run " + std::to_string(record.id) +
      " expired in queue: virtual-clock deadline passed before a scheduler "
      "slot was free");
  ++counters_.failed;
  ++counters_.deadline_expired;
}

void RunManager::EvictRetained() {
  size_t retained = 0;
  for (const auto& [id, record] : records_) {
    if (record.state != RunState::kQueued &&
        record.state != RunState::kRunning) {
      ++retained;
    }
  }
  counters_.retained = retained;
  while (retained > options_.retain_results) {
    // Evict the finished record with the oldest finish sequence.
    auto victim = records_.end();
    for (auto it = records_.begin(); it != records_.end(); ++it) {
      const RunRecord& record = it->second;
      if (record.state == RunState::kQueued ||
          record.state == RunState::kRunning) {
        continue;
      }
      if (victim == records_.end() ||
          record.finish_sequence < victim->second.finish_sequence) {
        victim = it;
      }
    }
    if (victim == records_.end()) break;
    records_.erase(victim);
    --retained;
    counters_.retained = retained;
  }
}

}  // namespace dexa::serve
