#include "engine/invocation_engine.h"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

namespace dexa {

namespace {

/// Stable identity of one invocation for jitter derivation: module id
/// hashed with the deep value hash of the inputs. Independent of scheduling
/// and thread count by construction.
uint64_t InvocationKey(const Module& module,
                       const std::vector<Value>& inputs) {
  uint64_t key = StableHash64(module.spec().id);
  for (const Value& value : inputs) key = HashCombine(key, value.Hash());
  return key;
}

/// The engine whose batch the current thread is draining, or null outside
/// any task. ForEach reads it to tell a nested batch from a top-level one.
thread_local const InvocationEngine* running_engine = nullptr;

}  // namespace

uint64_t RetryBackoffNanos(const RetryPolicy& policy, uint64_t seed,
                           uint64_t key, int attempt) {
  double backoff = static_cast<double>(policy.initial_backoff_ns);
  for (int i = 0; i < attempt; ++i) backoff *= policy.backoff_multiplier;
  backoff = std::min(backoff, static_cast<double>(policy.max_backoff_ns));
  if (policy.jitter > 0.0) {
    Rng jitter_rng(HashCombine(HashCombine(seed, key),
                               static_cast<uint64_t>(attempt)));
    backoff *= 1.0 + policy.jitter * (2.0 * jitter_rng.NextDouble() - 1.0);
  }
  return backoff <= 0.0 ? 0 : static_cast<uint64_t>(backoff);
}

const char* BreakerStageName(BreakerStage stage) {
  switch (stage) {
    case BreakerStage::kClosed:
      return "closed";
    case BreakerStage::kOpen:
      return "open";
    case BreakerStage::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

InvocationEngine::InvocationEngine(EngineOptions options)
    : options_(options) {
  threads_ = options_.threads != 0
                 ? options_.threads
                 : std::max<size_t>(1, std::thread::hardware_concurrency());
  // The submitting caller always participates in its own batch, so a pool
  // of `threads_ - 1` workers yields exactly `threads_` claimants.
  for (size_t i = 0; i + 1 < threads_; ++i) {
    workers_.emplace_back(
        [this](const std::stop_token& stop) { WorkerLoop(stop); });
  }
}

InvocationEngine::~InvocationEngine() {
  for (std::jthread& worker : workers_) worker.request_stop();
  queue_cv_.notify_all();
  // jthread joins on destruction.
}

void InvocationEngine::DrainBatch(Batch& batch) const {
  // Restored on return, so a task draining another engine's batch inside
  // one of ours (a shard engine under the orchestrator) nests correctly.
  const InvocationEngine* const outer = running_engine;
  running_engine = this;
  for (;;) {
    const size_t begin =
        batch.next.fetch_add(batch.claim, std::memory_order_relaxed);
    if (begin >= batch.n) break;
    const size_t end = std::min(batch.n, begin + batch.claim);
    for (size_t i = begin; i < end; ++i) batch.fn(i);
    const size_t ran = end - begin;
    if (batch.done.fetch_add(ran, std::memory_order_acq_rel) + ran ==
        batch.n) {
      // Last completion: wake the submitter. Taking the mutex orders the notify
      // after the submitter's wait registration, so the wakeup cannot be
      // missed.
      std::lock_guard<std::mutex> lock(batch.mutex);
      batch.completed.notify_all();
    }
  }
  running_engine = outer;
}

void InvocationEngine::WorkerLoop(const std::stop_token& stop) {
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      if (queue_.empty()) {
        // Idle only while blocked on an empty queue: a worker passing
        // through to pop an exhausted entry is not free to take a batch.
        idle_workers_.fetch_add(1, std::memory_order_relaxed);
        const bool woken =
            queue_cv_.wait(lock, stop, [&] { return !queue_.empty(); });
        idle_workers_.fetch_sub(1, std::memory_order_relaxed);
        if (!woken) return;  // Stop requested.
      }
      batch = queue_.front();
      if (batch->next.load(std::memory_order_relaxed) >= batch->n) {
        // Exhausted batch still queued (its submitter hasn't reaped it
        // yet): drop it and look again.
        queue_.pop_front();
        continue;
      }
    }
    DrainBatch(*batch);
  }
}

void InvocationEngine::ForEach(size_t n,
                               const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  metrics_.Add(EngineCounter::batches);
  // Inline when there is no pool, nothing to share, or (nested in one of
  // our tasks) no idle worker to share it with.
  if (threads_ <= 1 || n == 1 ||
      (running_engine == this && idle_workers() == 0)) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  auto batch = std::make_shared<Batch>(
      n, std::max<size_t>(1, n / (threads_ * kClaimsPerThread)), fn);
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_.push_back(batch);
  }
  queue_cv_.notify_all();

  // Participate instead of just waiting: even if every worker is busy (or
  // this call is itself running on a worker), the submitter alone drains
  // the batch, so nesting cannot deadlock.
  DrainBatch(*batch);
  {
    std::unique_lock<std::mutex> lock(batch->mutex);
    batch->completed.wait(lock, [&] {
      return batch->done.load(std::memory_order_acquire) >= batch->n;
    });
  }

  // Reap the finished batch so exhausted entries do not pile up ahead of
  // live ones.
  std::lock_guard<std::mutex> lock(queue_mutex_);
  auto it = std::find(queue_.begin(), queue_.end(), batch);
  if (it != queue_.end()) queue_.erase(it);
}

Result<std::vector<Value>> InvocationEngine::InvokeWithRetries(
    const Module& module, const std::vector<Value>& inputs, uint64_t key) {
  const RetryPolicy& policy = options_.retry;
  uint64_t budget_spent = 0;
  for (int attempt = 0;; ++attempt) {
    InvocationContext context;
    context.attempt = attempt;
    context.clock = &clock_;
    auto outputs = module.Invoke(inputs, context);
    if (context.charged_ns != 0) {
      budget_spent += context.charged_ns;
      clock_.Advance(context.charged_ns);
    }
    const bool budget_blown =
        policy.deadline_ns != 0 && budget_spent > policy.deadline_ns;
    // A deadline-blown attempt is an error from the caller's point of view
    // (the result is discarded below, successful or not), so it must not be
    // counted as a successful invocation — the metrics would otherwise
    // claim more completed work than the run produced.
    metrics_.Add(EngineCounter::invocations);
    if (!outputs.ok() || budget_blown) {
      metrics_.Add(EngineCounter::invocation_errors);
    }
    if (budget_blown) {
      // The attempt itself blew the budget: the caller has hung up, so even
      // a successful result is discarded.
      metrics_.Add(EngineCounter::deadline_exhaustions);
      return Status::Timeout(
          "invocation of module '" + module.spec().name +
          "' exceeded its deadline budget after " +
          std::to_string(attempt + 1) + " attempt(s)");
    }
    if (outputs.ok() || !outputs.status().IsRetryable() ||
        attempt + 1 >= policy.max_attempts) {
      return outputs;
    }
    uint64_t backoff = RetryBackoffNanos(policy, options_.seed, key, attempt);
    if (policy.deadline_ns != 0 &&
        budget_spent + backoff > policy.deadline_ns) {
      metrics_.Add(EngineCounter::deadline_exhaustions);
      return Status::Timeout(
          "retry budget for module '" + module.spec().name +
          "' exhausted after " + std::to_string(attempt + 1) +
          " attempt(s): " + outputs.status().ToString());
    }
    budget_spent += backoff;
    clock_.Advance(backoff);
    metrics_.Add(EngineCounter::retries);
  }
}

InvocationEngine::Breaker& InvocationEngine::BreakerSlot(
    const std::string& module_id) {
  return breakers_[module_id];
}

bool InvocationEngine::BreakerAdmits(const std::string& module_id) {
  if (!options_.retry.breaker_enabled()) return true;
  std::lock_guard<std::mutex> lock(breaker_mutex_);
  const Breaker& breaker = BreakerSlot(module_id);
  if (!breaker.open) return true;
  // Open: admit a half-open probe once the cooldown elapsed.
  return clock_.Now() >= breaker.reopen_at;
}

void InvocationEngine::BreakerObserve(const std::string& module_id,
                                      const Status& status) {
  if (!options_.retry.breaker_enabled()) return;
  std::lock_guard<std::mutex> lock(breaker_mutex_);
  Breaker& breaker = BreakerSlot(module_id);
  if (status.ok()) {
    // Success closes the breaker (a successful half-open probe included).
    breaker.consecutive_permanent = 0;
    breaker.open = false;
    return;
  }
  if (!status.IsPermanentFailure()) {
    // Transient-class and argument errors neither trip nor heal a breaker.
    return;
  }
  ++breaker.consecutive_permanent;
  if (breaker.open) {
    // Failed half-open probe: re-open for another cooldown.
    breaker.reopen_at = clock_.Now() + options_.retry.breaker_cooldown_ns;
    return;
  }
  if (breaker.consecutive_permanent >= options_.retry.breaker_threshold) {
    breaker.open = true;
    breaker.reopen_at = clock_.Now() + options_.retry.breaker_cooldown_ns;
    ++breaker.trips;
    metrics_.Add(EngineCounter::breaker_trips);
  }
}

BreakerView InvocationEngine::BreakerOf(const std::string& module_id) const {
  BreakerView view;
  std::lock_guard<std::mutex> lock(breaker_mutex_);
  auto it = breakers_.find(module_id);
  if (it == breakers_.end()) return view;
  view.consecutive_permanent_failures = it->second.consecutive_permanent;
  view.trips = it->second.trips;
  if (!it->second.open) {
    view.stage = BreakerStage::kClosed;
  } else if (clock_.Now() >= it->second.reopen_at) {
    view.stage = BreakerStage::kHalfOpen;
  } else {
    view.stage = BreakerStage::kOpen;
  }
  return view;
}

Result<std::vector<Value>> InvocationEngine::Invoke(
    const Module& module, const std::vector<Value>& inputs,
    EnginePhase phase) {
  PhaseTimer timer(&metrics_, phase);
  const std::string& module_id = module.spec().id;
  if (!BreakerAdmits(module_id)) {
    metrics_.Add(EngineCounter::breaker_short_circuits);
    return Status::Decayed("circuit breaker open for module '" +
                           module.spec().name + "'");
  }
  // The key only seeds retry jitter; skip the deep input hash on the
  // fail-fast configuration's hot path.
  uint64_t key = options_.retry.retries_enabled()
                     ? InvocationKey(module, inputs)
                     : 0;
  auto outputs = InvokeWithRetries(module, inputs, key);
  BreakerObserve(module_id, outputs.ok() ? Status::OK() : outputs.status());
  return outputs;
}

std::vector<Result<std::vector<Value>>> InvocationEngine::InvokeBatch(
    const Module& module, std::span<const std::vector<Value>> input_vectors,
    EnginePhase phase) {
  PhaseTimer timer(&metrics_, phase);
  std::vector<Result<std::vector<Value>>> results;
  results.reserve(input_vectors.size());
  for (size_t i = 0; i < input_vectors.size(); ++i) {
    results.emplace_back(Status::Internal("invocation not yet scheduled"));
  }

  // Batch-atomic breaker admission: decided once for the whole batch, so a
  // mid-batch trip can never split a batch between live and short-circuited
  // results depending on scheduling.
  const std::string& module_id = module.spec().id;
  if (!BreakerAdmits(module_id)) {
    Status denied = Status::Decayed("circuit breaker open for module '" +
                                    module.spec().name + "'");
    for (size_t i = 0; i < results.size(); ++i) {
      metrics_.Add(EngineCounter::breaker_short_circuits);
      results[i] = denied;
    }
    return results;
  }

  const uint64_t module_key = StableHash64(module_id);
  ForEach(input_vectors.size(), [&](size_t i) {
    // Jitter keyed on the batch index: stable in enumeration order, so the
    // retry schedule of combination i is the same at any thread count.
    results[i] = InvokeWithRetries(module, input_vectors[i],
                                   HashCombine(module_key, i));
  });

  // Fold the outcomes into the breaker in input order — deterministic
  // regardless of which worker ran what.
  for (const Result<std::vector<Value>>& result : results) {
    BreakerObserve(module_id,
                   result.ok() ? Status::OK() : result.status());
  }
  return results;
}

InvocationEngine& InvocationEngine::Serial() {
  static InvocationEngine* engine = [] {
    EngineOptions options;
    options.threads = 1;
    return new InvocationEngine(options);
  }();
  return *engine;
}

}  // namespace dexa
