#include "bench/bench_env.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/json.h"
#include "common/strings.h"

namespace dexa {
namespace bench_env {

namespace {
[[noreturn]] void Die(const char* what, const Status& status) {
  std::fprintf(stderr, "bench setup failed at %s: %s\n", what,
               status.ToString().c_str());
  std::abort();
}
}  // namespace

const EvaluationEnv& GetEnvironment() {
  static EvaluationEnv* env = [] {
    auto built = BuildEvaluationEnv();
    if (!built.ok()) Die("BuildEvaluationEnv", built.status());
    auto* out = new EvaluationEnv(std::move(built).value());

    ExampleGenerator generator(out->cache, out->pool.get());
    auto annotated = AnnotateRegistry(generator, *out->corpus.registry);
    if (!annotated.ok()) Die("AnnotateRegistry", annotated.status());
    if (!annotated->complete()) {
      Die("AnnotateRegistry aborted", annotated->run_status);
    }

    Status retired = RetireDecayedModules(out->corpus);
    if (!retired.ok()) Die("RetireDecayedModules", retired);
    return out;
  }();
  return *env;
}

void BenchReport::Add(const std::string& metric, double value,
                      const std::string& unit) {
  metrics_.push_back(Metric{metric, value, unit});
}

void BenchReport::Write() const {
  std::string json = "{\"bench\": ";
  AppendJsonString(json, name_);
  json += ", \"threads\": " + std::to_string(threads_) + ", \"metrics\": [";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) json += ", ";
    json += "{\"name\": ";
    AppendJsonString(json, metrics_[i].name);
    json += ", \"value\": " + StrFormat("%.17g", metrics_[i].value) +
            ", \"unit\": ";
    AppendJsonString(json, metrics_[i].unit);
    json += "}";
  }
  json += "]}\n";

  const std::string path = "BENCH_" + name_ + ".json";
  std::ofstream out(path);
  out << json;
  if (!out) {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  }
}

}  // namespace bench_env
}  // namespace dexa
