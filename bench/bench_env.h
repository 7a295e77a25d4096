#ifndef DEXA_BENCH_BENCH_ENV_H_
#define DEXA_BENCH_BENCH_ENV_H_

// Shared setup for the benchmark harnesses: builds the full evaluation
// environment once per binary (BuildEvaluationEnv, registry annotations;
// decayed modules retired).

#include <string>
#include <vector>

#include "core/example_generator.h"
#include "durability/evaluation_env.h"

namespace dexa {
namespace bench_env {

/// Builds the environment on first use; aborts with a diagnostic on any
/// pipeline failure (the benches cannot run without it).
const EvaluationEnv& GetEnvironment();

/// Machine-readable side channel of a bench run: every harness emits a
/// `BENCH_<name>.json` next to its stdout tables so successive PRs have a
/// perf/result trajectory to diff against. Schema:
///
///   {"bench": "<name>", "threads": N,
///    "metrics": [{"name": "...", "value": 1.5, "unit": "..."}]}
class BenchReport {
 public:
  /// `threads` is the invocation-engine thread count the bench ran with
  /// (1 for the serial harnesses).
  explicit BenchReport(std::string name, size_t threads = 1)
      : name_(std::move(name)), threads_(threads) {}

  void Add(const std::string& metric, double value, const std::string& unit);

  /// Writes BENCH_<name>.json into the working directory; complains on
  /// stderr (but does not abort) if the file cannot be written.
  void Write() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  std::string name_;
  size_t threads_;
  std::vector<Metric> metrics_;
};

}  // namespace bench_env
}  // namespace dexa

#endif  // DEXA_BENCH_BENCH_ENV_H_
