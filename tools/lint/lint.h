#ifndef DEXA_TOOLS_LINT_LINT_H_
#define DEXA_TOOLS_LINT_LINT_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "tools/lint/index.h"
#include "tools/lint/rules.h"

namespace dexa::lint {

/// Everything the whole-program passes need to know about one file, and
/// the unit of the warm-run cache: content-hash keyed, so an unchanged
/// file is never re-lexed, re-indexed or re-checked. Per-file rule
/// findings are stored post-suppression (suppression tables are per-file
/// too); the suppression tables ride along so the *global* passes
/// (unchecked-status, determinism-taint) can honor allow() comments
/// without the token stream.
struct AnalyzedFile {
  std::string path;   ///< repo-relative, forward slashes
  std::string layer;  ///< "engine" for src/engine/..., "" outside src/
  uint64_t content_hash = 0;
  FileIndex index;                ///< functions, call sites, taint sources
  std::vector<Finding> findings;  ///< per-file rules, post-suppression
  size_t suppressed = 0;          ///< per-file findings silenced by allow()
  std::vector<DiscardedCall> discards;        ///< unchecked-status candidates
  std::vector<std::string> status_functions;  ///< Status/Result declarations
  std::vector<std::string> ambiguous;         ///< conflicting declarations
  std::map<int, std::set<std::string>> line_suppressions;
  std::set<std::string> file_suppressions;
};

/// Lexes, indexes and rule-checks one source file (the expensive per-file
/// work — everything FinishAnalysis needs afterwards is in the summary).
AnalyzedFile AnalyzeSource(const std::string& rel_path,
                           std::string_view content);

/// Run statistics surfaced to bench_lint and `-v` style diagnostics.
struct LintStats {
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  double taint_ms = 0;  ///< call-graph build + taint propagation
};

/// The outcome of a lint run.
struct LintReport {
  std::vector<Finding> findings;  ///< post-suppression, file/line ordered
  size_t files_scanned = 0;
  size_t rules_evaluated = 0;  ///< rules x files
  size_t suppressed = 0;       ///< findings silenced by allow() comments
};

/// The whole-program passes over per-file summaries: merges per-file
/// findings, evaluates unchecked-status candidates against the global
/// Status/Result registry, builds the call graph and runs the
/// determinism-taint pass. Cheap relative to per-file analysis — it runs
/// in full on every invocation, warm or cold.
LintReport FinishAnalysis(const std::vector<AnalyzedFile>& files,
                          LintStats* stats = nullptr);

/// Serializes `file` as the versioned text record the warm-run cache
/// stores; ParseAnalyzedFile inverts it (returns false on a format or
/// version mismatch — the caller re-analyzes).
std::string SerializeAnalyzedFile(const AnalyzedFile& file);
bool ParseAnalyzedFile(std::string_view text, AnalyzedFile& out);

/// In-memory linter over explicit sources (tests, fixtures). AddSource
/// analyzes immediately; Run performs the whole-program passes.
class Linter {
 public:
  void AddSource(const std::string& rel_path, std::string_view content);
  LintReport Run() const;

 private:
  std::vector<AnalyzedFile> files_;
};

/// Renders `report` as the machine-readable JSON document described in
/// docs/STATIC_ANALYSIS.md.
std::string ReportToJson(const LintReport& report);

/// Recursively collects lintable sources (.h/.cc/.cpp) under
/// `root/<path>` for each path, skipping build trees and hidden
/// directories. Returns root-relative paths, sorted.
std::vector<std::string> CollectSourceFiles(
    const std::string& root, const std::vector<std::string>& paths);

/// Reads and lints `rel_paths` (relative to `root`). Unreadable files are
/// reported on stderr and skipped. With a non-empty `cache_dir`, per-file
/// summaries are read from / written to `<cache_dir>/<path-hash>.rec`,
/// keyed by content hash — a warm run skips lexing and rule evaluation
/// entirely for unchanged files (changed files and their reverse
/// dependencies are covered because the global passes recompute from all
/// summaries every run).
LintReport LintPaths(const std::string& root,
                     const std::vector<std::string>& rel_paths,
                     const std::string& cache_dir = "",
                     LintStats* stats = nullptr);

/// The full CLI: `dexa-lint [--root=DIR] [--json=PATH] [--sarif=PATH]
/// [--cache-dir=DIR] [--list-rules] <paths...>`. Returns the process exit
/// code (0 clean, 1 findings, 2 usage error).
int RunLintCli(int argc, char** argv);

}  // namespace dexa::lint

#endif  // DEXA_TOOLS_LINT_LINT_H_
