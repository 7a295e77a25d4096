#include "tools/lint/rules.h"

#include <algorithm>

namespace dexa::lint {
namespace {

using Tokens = std::vector<Token>;

bool IsIdent(const Token& t, const char* text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}
bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

/// Layers in which nondeterminism (wall clocks, ambient entropy) is a
/// correctness bug: their outputs must be byte-identical across runs and
/// thread counts (engine determinism contract, journal replay).
bool InDeterministicLayer(const SourceFile& f) {
  return f.layer == "core" || f.layer == "engine" ||
         f.layer == "durability" || f.layer == "obs";
}

/// True when the token at `i` starts a *use* rather than declaring a
/// variable of that name: `VirtualClock clock(...)` declares, `clock(...)`
/// calls. A preceding identifier, `.` or `->` means declaration/member.
bool PrecededByDeclarationOrMember(const Tokens& t, size_t i) {
  if (i == 0) return false;
  const Token& prev = t[i - 1];
  if (prev.kind == TokenKind::kIdentifier) {
    // `return time(...)` and friends are uses, not declarations.
    static const std::set<std::string> kUseKeywords = {
        "return", "co_return", "co_await", "co_yield", "throw"};
    return kUseKeywords.count(prev.text) == 0;
  }
  return IsPunct(prev, ".") || IsPunct(prev, "->") || IsPunct(prev, "&") ||
         IsPunct(prev, "*") || IsPunct(prev, ">");
}

/// Skips a balanced token group starting at `i` (which must be the opening
/// token). Returns the index one past the matching closer, or tokens.size()
/// on imbalance. Tracks (), [] and {} jointly.
size_t SkipBalanced(const Tokens& t, size_t i) {
  int depth = 0;
  for (; i < t.size(); ++i) {
    if (t[i].kind != TokenKind::kPunct) continue;
    const std::string& p = t[i].text;
    if (p == "(" || p == "[" || p == "{") {
      ++depth;
    } else if (p == ")" || p == "]" || p == "}") {
      if (--depth == 0) return i + 1;
      if (depth < 0) return t.size();
    }
  }
  return t.size();
}

// --------------------------------------------------------------------------
// Family 1: determinism (wall-clock, entropy)
// --------------------------------------------------------------------------

void CheckWallClock(const SourceFile& f, const GlobalContext&,
                    std::vector<Finding>& out) {
  if (!InDeterministicLayer(f)) return;
  static const std::set<std::string> kClockTypes = {
      "system_clock", "steady_clock", "high_resolution_clock",
      "utc_clock",    "file_clock",   "tai_clock"};
  static const std::set<std::string> kTimeCalls = {
      "gettimeofday", "timespec_get", "localtime", "gmtime",
      "mktime",       "strftime",     "ctime",     "asctime"};
  const Tokens& t = f.lex.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdentifier) continue;
    if (kClockTypes.count(t[i].text)) {
      out.push_back({"wall-clock", f.path, t[i].line,
                     "std::chrono::" + t[i].text +
                         " in a deterministic layer; use the engine's "
                         "VirtualClock (src/engine/virtual_clock.h)"});
      continue;
    }
    bool argful_call = i + 1 < t.size() && IsPunct(t[i + 1], "(");
    if (!argful_call || PrecededByDeclarationOrMember(t, i)) continue;
    if (kTimeCalls.count(t[i].text) || t[i].text == "time" ||
        t[i].text == "clock") {
      out.push_back({"wall-clock", f.path, t[i].line,
                     "wall-time call `" + t[i].text +
                         "()` in a deterministic layer; use the engine's "
                         "VirtualClock (src/engine/virtual_clock.h)"});
    }
  }
}

void CheckEntropy(const SourceFile& f, const GlobalContext&,
                  std::vector<Finding>& out) {
  if (!InDeterministicLayer(f)) return;
  static const std::set<std::string> kEntropyTypes = {
      "random_device", "mt19937", "mt19937_64", "minstd_rand",
      "default_random_engine"};
  static const std::set<std::string> kEntropyCalls = {"rand", "srand",
                                                      "random", "drand48"};
  const Tokens& t = f.lex.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdentifier) continue;
    if (kEntropyTypes.count(t[i].text)) {
      out.push_back({"entropy", f.path, t[i].line,
                     "`std::" + t[i].text +
                         "` in a deterministic layer; draw from the seeded "
                         "common/rng streams (engine.RngFor)"});
      continue;
    }
    if (kEntropyCalls.count(t[i].text) && i + 1 < t.size() &&
        IsPunct(t[i + 1], "(") && !PrecededByDeclarationOrMember(t, i)) {
      out.push_back({"entropy", f.path, t[i].line,
                     "ambient entropy call `" + t[i].text +
                         "()` in a deterministic layer; draw from the seeded "
                         "common/rng streams (engine.RngFor)"});
    }
  }
}

// --------------------------------------------------------------------------
// Family 2: unchecked errors
// --------------------------------------------------------------------------

const std::set<std::string>& StatementKeywords() {
  static const std::set<std::string> kKeywords = {
      "return",   "if",       "for",      "while",   "switch",  "case",
      "default",  "break",    "continue", "goto",    "do",      "else",
      "using",    "typedef",  "static_assert",       "new",     "delete",
      "throw",    "try",      "catch",    "public",  "private", "protected",
      "template", "class",    "struct",   "enum",    "union",   "namespace",
      "extern",   "friend",   "operator", "sizeof",  "co_return",
      "co_await", "co_yield", "static",   "inline",  "constexpr", "const",
      "auto",     "void",     "bool",     "int",     "unsigned", "signed",
      "long",     "short",    "float",    "double",  "char",     "explicit",
      "virtual",  "typename"};
  return kKeywords;
}

}  // namespace

/// Collects statement-level calls whose result is discarded. The matching
/// rule (`unchecked-status`) flags the ones whose final callee is a known
/// `Status`/`Result`-returning function — but that registry is global, so
/// the driver evaluates these candidates after every file is analyzed
/// (and caches the candidates, which are pure per-file syntax).
std::vector<DiscardedCall> CollectDiscardedCalls(const SourceFile& f) {
  std::vector<DiscardedCall> out;
  const Tokens& t = f.lex.tokens;
  bool at_statement_start = true;
  for (size_t i = 0; i < t.size();) {
    const Token& tok = t[i];
    if (tok.kind == TokenKind::kPunct &&
        (tok.text == ";" || tok.text == "{" || tok.text == "}")) {
      at_statement_start = true;
      ++i;
      continue;
    }
    if (tok.kind == TokenKind::kIdentifier &&
        (tok.text == "else" || tok.text == "do")) {
      at_statement_start = true;
      ++i;
      continue;
    }
    if (!at_statement_start || tok.kind != TokenKind::kIdentifier ||
        StatementKeywords().count(tok.text)) {
      at_statement_start = false;
      ++i;
      continue;
    }
    // Try to parse a pure call-chain statement: `a::b(...)`, `x.y(...)`,
    // `f(...)->g(...);`. Anything else (declaration, assignment, arithmetic)
    // aborts without a finding.
    at_statement_start = false;
    size_t j = i;
    std::string name = t[j].text;
    ++j;
    while (j + 1 < t.size() && IsPunct(t[j], "::") &&
           t[j + 1].kind == TokenKind::kIdentifier) {
      name = t[j + 1].text;
      j += 2;
    }
    std::string last_call;
    bool chain_ok = false;
    while (j < t.size()) {
      if (IsPunct(t[j], "(")) {
        last_call = name;
        j = SkipBalanced(t, j);
        continue;
      }
      if (IsPunct(t[j], ".") || IsPunct(t[j], "->")) {
        if (j + 1 < t.size() && t[j + 1].kind == TokenKind::kIdentifier) {
          name = t[j + 1].text;
          j += 2;
          continue;
        }
        break;
      }
      if (IsPunct(t[j], ";")) {
        chain_ok = !last_call.empty();
        break;
      }
      break;  // operator, declaration, etc.
    }
    if (chain_ok) out.push_back({t[i].line, last_call});
    ++i;
  }
  return out;
}

namespace {

// --------------------------------------------------------------------------
// Family 3: concurrency discipline
// --------------------------------------------------------------------------

void CheckRawThread(const SourceFile& f, const GlobalContext&,
                    std::vector<Finding>& out) {
  if (f.layer == "engine") return;  // the engine owns all thread spawning
  const Tokens& t = f.lex.tokens;
  for (size_t i = 0; i + 2 < t.size(); ++i) {
    if (!IsIdent(t[i], "std") || !IsPunct(t[i + 1], "::")) continue;
    const Token& what = t[i + 2];
    if (what.kind != TokenKind::kIdentifier) continue;
    if (what.text == "async") {
      out.push_back({"raw-thread", f.path, what.line,
                     "std::async outside src/engine; route work through "
                     "InvocationEngine::InvokeBatch/ForEach"});
      continue;
    }
    if (what.text != "thread" && what.text != "jthread") continue;
    // `std::thread::hardware_concurrency()` is a query, not a spawn.
    if (i + 3 < t.size() && IsPunct(t[i + 3], "::")) continue;
    out.push_back({"raw-thread", f.path, what.line,
                   "raw std::" + what.text +
                       " outside src/engine; route work through "
                       "InvocationEngine::InvokeBatch/ForEach"});
  }
  for (size_t i = 0; i + 2 < t.size(); ++i) {
    if ((IsPunct(t[i], ".") || IsPunct(t[i], "->")) &&
        IsIdent(t[i + 1], "detach") && IsPunct(t[i + 2], "(")) {
      out.push_back({"raw-thread", f.path, t[i + 1].line,
                     "detached thread outside src/engine; detached threads "
                     "outlive the run and break determinism"});
    }
  }
}

void CheckNakedLock(const SourceFile& f, const GlobalContext&,
                    std::vector<Finding>& out) {
  const Tokens& t = f.lex.tokens;
  for (size_t i = 0; i + 4 < t.size(); ++i) {
    if (!IsPunct(t[i], ".") && !IsPunct(t[i], "->")) continue;
    if (t[i + 1].kind != TokenKind::kIdentifier) continue;
    const std::string& m = t[i + 1].text;
    if (m != "lock" && m != "unlock") continue;
    if (!IsPunct(t[i + 2], "(") || !IsPunct(t[i + 3], ")") ||
        !IsPunct(t[i + 4], ";")) {
      continue;
    }
    out.push_back({"naked-lock", f.path, t[i + 1].line,
                   "naked `" + m +
                       "()`; hold mutexes through RAII guards "
                       "(std::lock_guard / std::unique_lock / "
                       "std::shared_lock) so error paths cannot leak a "
                       "locked mutex"});
  }
}

// --------------------------------------------------------------------------
// Family 4: layering
// --------------------------------------------------------------------------

void CheckLayering(const SourceFile& f, const GlobalContext&,
                   std::vector<Finding>& out) {
  if (f.layer.empty()) return;
  const auto& deps = LayerDependencies();
  auto own = deps.find(f.layer);
  if (own == deps.end()) return;
  for (const IncludeDirective& inc : f.lex.includes) {
    if (inc.angled) continue;
    size_t slash = inc.path.find('/');
    if (slash == std::string::npos) continue;
    std::string dir = inc.path.substr(0, slash);
    if (dir == f.layer) continue;
    if (deps.find(dir) == deps.end()) {
      // Not a src/ layer at all (e.g. "tests/..."): never legal from src/.
      out.push_back({"layering", f.path, inc.line,
                     "src/" + f.layer + " includes \"" + inc.path +
                         "\", which is outside the src/ layer DAG"});
      continue;
    }
    if (own->second.count(dir) == 0) {
      out.push_back({"layering", f.path, inc.line,
                     "src/" + f.layer + " may not include src/" + dir +
                         " (violates the DESIGN.md layer DAG: allowed "
                         "dependencies are listed in LayerDependencies)"});
    }
  }
}

// --------------------------------------------------------------------------
// Family 5: ordered-output hygiene
// --------------------------------------------------------------------------

/// Files whose output feeds journal commits or serialized artifacts, where
/// iteration order becomes bytes on disk.
bool InOrderedOutputScope(const SourceFile& f) {
  if (f.layer == "durability") return true;
  return f.path.find("_io.") != std::string::npos;
}

bool IsUnorderedContainer(const std::string& name) {
  return name == "unordered_map" || name == "unordered_set" ||
         name == "unordered_multimap" || name == "unordered_multiset";
}

void CheckUnorderedIteration(const SourceFile& f, const GlobalContext&,
                             std::vector<Finding>& out) {
  if (!InOrderedOutputScope(f)) return;
  const Tokens& t = f.lex.tokens;
  // Pass 1: names declared in this file with an unordered container type
  // (locals, members, parameters).
  std::set<std::string> unordered_names;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdentifier || !IsUnorderedContainer(t[i].text))
      continue;
    size_t j = i + 1;
    if (j < t.size() && IsPunct(t[j], "<")) {
      int depth = 0;
      for (; j < t.size(); ++j) {
        if (IsPunct(t[j], "<")) ++depth;
        if (IsPunct(t[j], ">") && --depth == 0) {
          ++j;
          break;
        }
        if (IsPunct(t[j], ";") || IsPunct(t[j], "{")) break;  // malformed
      }
    }
    while (j < t.size() &&
           (IsPunct(t[j], "&") || IsPunct(t[j], "*") ||
            IsIdent(t[j], "const"))) {
      ++j;
    }
    if (j < t.size() && t[j].kind == TokenKind::kIdentifier) {
      unordered_names.insert(t[j].text);
    }
  }
  // Pass 2: range-for statements whose range expression mentions an
  // unordered container type or a name declared as one above.
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (!IsIdent(t[i], "for") || !IsPunct(t[i + 1], "(")) continue;
    size_t end = SkipBalanced(t, i + 1);
    // Find the top-level ':' separating declaration from range.
    size_t colon = 0;
    int depth = 0;
    for (size_t j = i + 1; j < end; ++j) {
      if (t[j].kind != TokenKind::kPunct) continue;
      if (t[j].text == "(" || t[j].text == "[" || t[j].text == "{" ||
          t[j].text == "<") {
        ++depth;
      } else if (t[j].text == ")" || t[j].text == "]" || t[j].text == "}" ||
                 t[j].text == ">") {
        --depth;
      } else if (t[j].text == ":" && depth == 1) {
        colon = j;
        break;
      }
    }
    if (colon == 0) continue;
    for (size_t j = colon + 1; j + 1 < end; ++j) {
      if (t[j].kind != TokenKind::kIdentifier) continue;
      if (IsUnorderedContainer(t[j].text) ||
          unordered_names.count(t[j].text)) {
        out.push_back(
            {"unordered-iteration", f.path, t[j].line,
             "range-for over an unordered container in a serialization "
             "path; iteration order is nondeterministic — copy into a "
             "sorted/keyed order before emitting bytes"});
        break;
      }
    }
  }
}

// --------------------------------------------------------------------------
// Family 6: observability (span hygiene)
// --------------------------------------------------------------------------

/// Instrumented layers must hold spans through the RAII ScopedSpan guard:
/// a manual Tracer::BeginSpan/EndSpan pair leaks the span on every early
/// return between the two calls (and dexa's instrumented functions are full
/// of early returns — crash injection, fault skips, structural errors).
/// The obs layer itself implements the guard, so it is the one place the
/// raw pair is legal; tests (no layer) may drive the Tracer API directly.
void CheckManualSpan(const SourceFile& f, const GlobalContext&,
                     std::vector<Finding>& out) {
  if (f.layer.empty() || f.layer == "obs") return;
  const Tokens& t = f.lex.tokens;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdentifier) continue;
    if (t[i].text != "BeginSpan" && t[i].text != "EndSpan") continue;
    if (!IsPunct(t[i + 1], "(")) continue;
    out.push_back({"manual-span", f.path, t[i].line,
                   "manual `" + t[i].text +
                       "` in an instrumented layer; hold spans through the "
                       "RAII obs::ScopedSpan so every early-return path "
                       "closes them"});
  }
}

/// `ScopedSpan(...)` as an unnamed temporary constructs and immediately
/// destructs the guard: the span closes on the same tick it opened and
/// covers nothing. The guard must be a named local (`ScopedSpan span(...)`).
void CheckUnnamedSpan(const SourceFile& f, const GlobalContext&,
                      std::vector<Finding>& out) {
  if (f.layer == "obs") return;  // declares the class itself
  const Tokens& t = f.lex.tokens;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (!IsIdent(t[i], "ScopedSpan") || !IsPunct(t[i + 1], "(")) continue;
    out.push_back({"unnamed-span", f.path, t[i].line,
                   "unnamed ScopedSpan temporary closes its span "
                   "immediately; bind it to a named local so it covers the "
                   "scope"});
  }
}

// --------------------------------------------------------------------------
// Family 7: concept interning (ConceptId end-to-end)
// --------------------------------------------------------------------------

/// True when the identifier token looks like an ontology-ish receiver
/// (`ontology`, `ontology_`, `the_ontology`...). Registries and JSON
/// objects also have Find(); the receiver check keeps them out of scope.
bool IsOntologyReceiver(const Token& t) {
  return t.kind == TokenKind::kIdentifier &&
         t.text.find("ontology") != std::string::npos;
}

/// Consumer layers must key concepts by ConceptId: names are resolved once
/// at boundaries (construction, serialization, diagnostics — `_io.` files
/// are exempt wholesale). `CompiledKb::ConceptName`/`FindConcept` are the
/// sanctioned spellings for those boundaries, so only the Ontology string
/// APIs (`NameOf`, and `Find`/`Require` on an ontology receiver) are
/// flagged.
void CheckStringKeyedLookup(const SourceFile& f, const GlobalContext&,
                            std::vector<Finding>& out) {
  static const std::set<std::string> kLayers = {"engine", "core", "workflow",
                                                "repair"};
  if (kLayers.count(f.layer) == 0) return;
  if (f.path.find("_io.") != std::string::npos) return;
  const Tokens& t = f.lex.tokens;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdentifier || !IsPunct(t[i + 1], "(")) {
      continue;
    }
    const std::string& name = t[i].text;
    if (name == "NameOf") {
      out.push_back({"string-keyed-lookup", f.path, t[i].line,
                     "Ontology::NameOf on a consumer hot path; key on "
                     "ConceptId and resolve names once at the boundary "
                     "(CompiledKb::ConceptName)"});
      continue;
    }
    if (name != "Find" && name != "Require") continue;
    // Receiver check: `<ontology-ish> . Find (` / `-> Find (`.
    if (i < 2) continue;
    if (!IsPunct(t[i - 1], ".") && !IsPunct(t[i - 1], "->")) continue;
    if (!IsOntologyReceiver(t[i - 2])) continue;
    out.push_back({"string-keyed-lookup", f.path, t[i].line,
                   "string-keyed ontology lookup `" + name +
                       "` outside src/ontology|kb|kbimage; intern to a "
                       "ConceptId at the boundary (CompiledKb::FindConcept) "
                       "and pass ids"});
  }
}

/// Reasoning primitives in the hot layers must route through ConceptCache,
/// whose answers are reads of the compiled tables (a bitset word, a
/// precomputed list). A direct call on an ontology receiver is the DFS
/// instead — ~48 ns a subsumption test against ~2 ns
/// (BENCH_kb_coldstart.json).
void CheckUncachedReasoning(const SourceFile& f, const GlobalContext&,
                            std::vector<Finding>& out) {
  if (f.layer != "engine" && f.layer != "core") return;
  static const std::set<std::string> kPrimitives = {
      "IsSubsumedBy", "Descendants", "Partitions", "LeastCommonSubsumer",
      "Comparable"};
  const Tokens& t = f.lex.tokens;
  for (size_t i = 2; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdentifier || kPrimitives.count(t[i].text) == 0)
      continue;
    if (!IsPunct(t[i + 1], "(")) continue;
    if (!IsPunct(t[i - 1], ".") && !IsPunct(t[i - 1], "->")) continue;
    if (!IsOntologyReceiver(t[i - 2])) continue;
    out.push_back({"uncached-reasoning", f.path, t[i].line,
                   "direct ontology reasoning call `" + t[i].text +
                       "` in a hot layer; route through ConceptCache so the "
                       "answer is a compiled-table read, not an ontology "
                       "DFS"});
  }
}

// --------------------------------------------------------------------------
// Family 8: io (every durable byte through the IoEnv seam)
// --------------------------------------------------------------------------

/// Production code does its file I/O through the IoEnv seam
/// (src/common/io_env.h), so disk faults are injectable and surface as the
/// typed taxonomy (kResourceExhausted/kCorrupted) instead of a raw errno,
/// and directory metadata is one more seam call rather than a second path
/// to the disk. Findings in src/: direct global-qualified POSIX calls,
/// `std::rename`, any `filesystem::` or `fs::` qualification, and
/// `#include <filesystem>` / `<fstream>`. Exempt: the seam implementation
/// itself (common/io_env.cc), and for the POSIX calls the serve socket loop
/// (sockets are a network transport, not durable-byte I/O). tests/, bench/
/// and tools/ drive sockets and fixtures freely.
void CheckRawIo(const SourceFile& f, const GlobalContext&,
                std::vector<Finding>& out) {
  if (f.layer.empty()) return;
  if (f.path == "src/common/io_env.cc") return;
  for (const IncludeDirective& inc : f.lex.includes) {
    if (inc.angled && (inc.path == "filesystem" || inc.path == "fstream")) {
      out.push_back({"raw-io", f.path, inc.line,
                     "#include <" + inc.path +
                         "> outside the I/O seam; read, write and list "
                         "through an IoEnv (src/common/io_env.h)"});
    }
  }
  const bool socket_loop = f.path == "src/serve/server.cc";
  static const std::set<std::string> kPosixIo = {
      "open",  "read",   "write", "close",     "fsync", "fdatasync",
      "pread", "pwrite", "mmap",  "munmap",    "rename"};
  const Tokens& t = f.lex.tokens;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    // Global-qualified POSIX call: `::write(...)` where the `::` is not the
    // tail of a longer qualification (`std::`, `fs::`, `SomeClass::`).
    if (!socket_loop && IsPunct(t[i], "::") && i + 2 < t.size() &&
        t[i + 1].kind == TokenKind::kIdentifier &&
        kPosixIo.count(t[i + 1].text) != 0 && IsPunct(t[i + 2], "(")) {
      bool qualified = i > 0 && (t[i - 1].kind == TokenKind::kIdentifier ||
                                 IsPunct(t[i - 1], ">") ||
                                 IsPunct(t[i - 1], ")"));
      if (!qualified) {
        out.push_back({"raw-io", f.path, t[i + 1].line,
                       "direct `::" + t[i + 1].text +
                           "` call outside the I/O seam; route the bytes "
                           "through an IoEnv (src/common/io_env.h) so disk "
                           "faults are injectable and typed"});
      }
      continue;
    }
    if (t[i].kind != TokenKind::kIdentifier || !IsPunct(t[i + 1], "::")) {
      continue;
    }
    // std::filesystem (spelled out or through an `fs` alias) is a second
    // path to the disk that no IoEnv sees.
    if (t[i].text == "filesystem" || t[i].text == "fs") {
      const std::string member =
          i + 2 < t.size() && t[i + 2].kind == TokenKind::kIdentifier
              ? t[i + 2].text
              : "";
      out.push_back({"raw-io", f.path, t[i].line,
                     "`" + t[i].text + "::" + member +
                         "` outside the I/O seam; use IoEnv::Rename, "
                         "IoEnv::ListDir, IoEnv::CreateDirs or JoinPath "
                         "(src/common/io_env.h) so every disk access is "
                         "injectable and typed"});
      continue;
    }
    // std::rename bypasses the seam's Rename just as thoroughly.
    if (t[i].text == "std" && i + 3 < t.size() && IsIdent(t[i + 2], "rename") &&
        IsPunct(t[i + 3], "(")) {
      out.push_back({"raw-io", f.path, t[i + 2].line,
                     "`std::rename` outside the I/O seam; use "
                     "IoEnv::Rename (src/common/io_env.h) so the "
                     "swap is fault-injectable and typed"});
    }
  }
}

// --------------------------------------------------------------------------
// Family 9: lock discipline (guarded fields)
// --------------------------------------------------------------------------

/// Skips a `<...>` group starting at the `<`; returns one past the matching
/// `>`, or `i + 1` when unbalanced (comparison operator, malformed).
size_t SkipAngleGroup(const Tokens& t, size_t i) {
  int depth = 0;
  for (size_t j = i; j < t.size() && j < i + 256; ++j) {
    if (IsPunct(t[j], "<")) ++depth;
    if (IsPunct(t[j], ">") && --depth == 0) return j + 1;
    if (IsPunct(t[j], ";") || IsPunct(t[j], "{")) break;
  }
  return i + 1;
}

/// One member declaration statement inside a class body, already split at
/// the class's brace depth.
struct MemberStmt {
  size_t begin = 0;
  size_t end = 0;  ///< exclusive
};

/// Every mutable field of a class that owns a `std::mutex`/`shared_mutex`
/// must be annotated with `DEXA_GUARDED_BY(<mutex>)` (which expands to the
/// clang thread-safety attribute when available) or carry an
/// `allow(guarded-field)` contract comment. Scope: `src/engine` +
/// `src/serve`, the layers where a missed guard is a data race on the hot
/// path. Exempt by type: synchronization primitives themselves, atomics,
/// `const`/`static` members (immutable after construction).
void CheckGuardedField(const SourceFile& f, const GlobalContext&,
                       std::vector<Finding>& out) {
  if (f.layer != "engine" && f.layer != "serve") return;
  static const std::set<std::string> kMutexTypes = {
      "mutex", "shared_mutex", "recursive_mutex", "timed_mutex",
      "recursive_timed_mutex"};
  static const std::set<std::string> kExemptTypes = {
      "atomic",        "atomic_flag",
      "mutex",         "shared_mutex",
      "recursive_mutex",               "timed_mutex",
      "recursive_timed_mutex",         "condition_variable",
      "condition_variable_any",        "once_flag"};
  static const std::set<std::string> kNonFieldLead = {
      "using", "typedef", "friend", "static", "constexpr", "enum",
      "template", "operator", "public", "private", "protected"};
  const Tokens& t = f.lex.tokens;
  // Find every class/struct definition; nested classes are collected too
  // and processed as their own entry (their span is brace-skipped when
  // walking the enclosing class's members).
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdentifier ||
        (t[i].text != "class" && t[i].text != "struct")) {
      continue;
    }
    if (i > 0 && (IsIdent(t[i - 1], "enum") || IsPunct(t[i - 1], "<") ||
                  IsPunct(t[i - 1], ","))) {
      continue;  // enum class / template parameter
    }
    std::string class_name;
    size_t open = 0;
    for (size_t j = i + 1; j < t.size() && j < i + 64; ++j) {
      if (t[j].kind == TokenKind::kIdentifier && class_name.empty() &&
          t[j].text != "final" && t[j].text != "alignas") {
        class_name = t[j].text;
        continue;
      }
      if (IsPunct(t[j], "<")) {
        j = SkipAngleGroup(t, j) - 1;
        continue;
      }
      if (IsPunct(t[j], "{")) {
        open = j;
        break;
      }
      if (IsPunct(t[j], ";") || IsPunct(t[j], "(") || IsPunct(t[j], ")") ||
          IsPunct(t[j], "=")) {
        break;  // forward declaration / template argument position
      }
    }
    if (open == 0 || class_name.empty()) continue;
    size_t close = SkipBalanced(t, open);  // one past the closing `}`

    // Split the class body into member statements at the class's depth.
    std::vector<MemberStmt> stmts;
    std::vector<char> is_method;  // parallel: statement had a call-shaped `(`
    size_t start = open + 1;
    bool method = false;
    bool after_eq = false;  // past `=`: initializer calls are not methods
    for (size_t j = open + 1; j + 1 < close;) {
      if (IsPunct(t[j], "(") || IsPunct(t[j], "[")) {
        // `(` directly after the annotation macro or inside an initializer
        // is part of a field decl; any other top-level paren means a
        // method/ctor declaration.
        if (IsPunct(t[j], "(") && !after_eq &&
            !(j > 0 && (IsIdent(t[j - 1], "DEXA_GUARDED_BY") ||
                        IsIdent(t[j - 1], "DEXA_PT_GUARDED_BY")))) {
          method = true;
        }
        j = SkipBalanced(t, j);
        continue;
      }
      if (IsPunct(t[j], "=")) {
        after_eq = true;
        ++j;
        continue;
      }
      if (IsPunct(t[j], "<")) {
        j = SkipAngleGroup(t, j);
        continue;
      }
      if (IsPunct(t[j], "{")) {
        // Method body or nested class body ends the statement; a brace
        // initializer (`int x_{0};`) continues it.
        bool brace_init =
            after_eq || (j > 0 && t[j - 1].kind == TokenKind::kIdentifier &&
                         !method && !IsIdent(t[j - 1], "const") &&
                         !IsIdent(t[j - 1], "noexcept") &&
                         !IsIdent(t[j - 1], "override") &&
                         !IsIdent(t[j - 1], "final"));
        j = SkipBalanced(t, j);
        if (!brace_init) {
          start = j;
          method = false;
          after_eq = false;
        }
        continue;
      }
      if (IsPunct(t[j], ";")) {
        if (!method && j > start) stmts.push_back({start, j});
        start = j + 1;
        method = false;
        after_eq = false;
        ++j;
        continue;
      }
      if (t[j].kind == TokenKind::kIdentifier && j + 1 < close &&
          kNonFieldLead.count(t[j].text) && IsPunct(t[j + 1], ":") &&
          (t[j].text == "public" || t[j].text == "private" ||
           t[j].text == "protected")) {
        start = j + 2;
        j += 2;
        continue;
      }
      ++j;
    }

    // Pass 1 over statements: does this class own a mutex?
    auto stmt_mentions = [&](const MemberStmt& s,
                             const std::set<std::string>& names) {
      for (size_t j = s.begin; j < s.end; ++j) {
        if (t[j].kind == TokenKind::kIdentifier && names.count(t[j].text))
          return true;
      }
      return false;
    };
    bool owns_mutex = false;
    for (const MemberStmt& s : stmts) {
      if (stmt_mentions(s, kMutexTypes)) owns_mutex = true;
    }
    if (!owns_mutex) continue;

    // Pass 2: every remaining field must be annotated or exempt.
    static const std::set<std::string> kOperatorKw = {"operator"};
    for (const MemberStmt& s : stmts) {
      // `T& operator=(...) = delete;` has its `(` after the `=` token and
      // dodges the method classifier; the keyword is the reliable tell.
      if (stmt_mentions(s, kOperatorKw)) continue;
      size_t b = s.begin;
      while (b < s.end && (IsIdent(t[b], "mutable") || IsIdent(t[b], "inline")))
        ++b;
      if (b >= s.end || t[b].kind != TokenKind::kIdentifier) continue;
      if (kNonFieldLead.count(t[b].text) || t[b].text == "const") continue;
      if (t[b].text == "class" || t[b].text == "struct" ||
          t[b].text == "union") {
        continue;  // nested forward declaration
      }
      if (stmt_mentions(s, kExemptTypes)) continue;
      bool annotated = false;
      std::string field_name;
      int field_line = t[b].line;
      for (size_t j = b; j < s.end; ++j) {
        if (IsIdent(t[j], "DEXA_GUARDED_BY") ||
            IsIdent(t[j], "DEXA_PT_GUARDED_BY")) {
          annotated = true;
          break;
        }
        if (IsPunct(t[j], "<")) {
          j = SkipAngleGroup(t, j) - 1;
          continue;
        }
        if (IsPunct(t[j], "=")) break;
        if (t[j].kind == TokenKind::kIdentifier) {
          field_name = t[j].text;
          field_line = t[j].line;
        }
      }
      if (annotated || field_name.empty()) continue;
      out.push_back(
          {"guarded-field", f.path, field_line,
           "field `" + field_name + "` of mutex-owning class `" + class_name +
               "` has no DEXA_GUARDED_BY annotation "
               "(src/common/thread_annotations.h); annotate the guarding "
               "mutex, or allow-list with a contract comment explaining why "
               "it needs no lock"});
    }
  }
}

}  // namespace

// --------------------------------------------------------------------------
// Registry
// --------------------------------------------------------------------------

const std::vector<RuleInfo>& Rules() {
  static const std::vector<RuleInfo> kRules = {
      {"wall-clock", "determinism",
       "no wall clocks in src/core, src/engine, src/durability "
       "(VirtualClock only)",
       &CheckWallClock},
      {"entropy", "determinism",
       "no ambient entropy in deterministic layers (seeded common/rng only)",
       &CheckEntropy},
      {"unchecked-status", "unchecked-errors",
       "a discarded Status/Result is a swallowed failure", nullptr},
      {"determinism-taint", "determinism",
       "no call path from a nondeterminism source (wall clock, entropy, "
       "thread id, hash/address-ordered iteration) into a committed-byte "
       "sink, in any layer",
       nullptr},
      {"raw-thread", "concurrency",
       "all threads are spawned by the InvocationEngine (src/engine)",
       &CheckRawThread},
      {"naked-lock", "concurrency",
       "mutexes are held through RAII guards, never naked lock()/unlock()",
       &CheckNakedLock},
      {"guarded-field", "concurrency",
       "every mutable field of a mutex-owning class in src/engine+src/serve "
       "carries DEXA_GUARDED_BY or an allow-listed contract comment",
       &CheckGuardedField},
      {"layering", "layering",
       "src/ include edges must follow the DESIGN.md layer DAG",
       &CheckLayering},
      {"unordered-iteration", "ordered-output",
       "no unordered-container iteration in serialization/journal paths",
       &CheckUnorderedIteration},
      {"manual-span", "observability",
       "spans are held through RAII obs::ScopedSpan, never manual "
       "BeginSpan/EndSpan pairs",
       &CheckManualSpan},
      {"unnamed-span", "observability",
       "ScopedSpan guards must be named locals, not immediate temporaries",
       &CheckUnnamedSpan},
      {"string-keyed-lookup", "concept-interning",
       "consumer layers key concepts by ConceptId; names resolve once at "
       "boundaries (CompiledKb::ConceptName/FindConcept)",
       &CheckStringKeyedLookup},
      {"uncached-reasoning", "concept-interning",
       "subsumption/partition reasoning in src/engine+src/core routes "
       "through ConceptCache's compiled tables, never the raw ontology",
       &CheckUncachedReasoning},
      {"raw-io", "io",
       "src/ file I/O and directory listing go through the IoEnv seam "
       "(common/io_env.h), never raw ::open/::write/::fsync/rename or "
       "std::filesystem",
       &CheckRawIo},
  };
  return kRules;
}

const std::map<std::string, std::set<std::string>>& LayerDependencies() {
  // The normative dependency DAG (DESIGN.md "Static analysis"): each layer
  // may include itself plus the listed layers. Keep DESIGN.md in sync when
  // editing.
  static const std::map<std::string, std::set<std::string>> kDeps = {
      {"common", {}},
      {"types", {"common"}},
      {"ontology", {"common", "types"}},
      {"formats", {"common", "types"}},
      {"kb", {"common", "types", "formats"}},
      {"kbimage", {"common", "types", "ontology", "kb"}},
      {"modules", {"common", "types", "ontology"}},
      {"pool", {"common", "types", "ontology"}},
      {"engine", {"common", "types", "ontology", "kbimage", "modules"}},
      {"obs", {"common", "engine"}},
      {"corpus",
       {"common", "types", "ontology", "formats", "kb", "modules", "pool",
        "engine"}},
      {"workflow",
       {"common", "types", "ontology", "modules", "engine", "obs"}},
      {"core",
       {"common", "types", "ontology", "formats", "kb", "kbimage", "modules",
        "pool", "engine", "obs", "workflow"}},
      {"study",
       {"common", "types", "ontology", "formats", "kb", "modules", "corpus"}},
      {"provenance",
       {"common", "types", "ontology", "formats", "kb", "modules", "pool",
        "engine", "corpus", "workflow", "core"}},
      {"repair",
       {"common", "types", "ontology", "formats", "kb", "modules", "pool",
        "engine", "corpus", "workflow", "core", "provenance"}},
      {"durability",
       {"common", "types", "ontology", "formats", "kb", "kbimage", "modules",
        "pool", "engine", "obs", "corpus", "workflow", "core", "provenance"}},
      {"shard",
       {"common", "types", "ontology", "formats", "kb", "kbimage", "modules",
        "pool", "engine", "obs", "corpus", "workflow", "core", "provenance",
        "durability"}},
      {"serve",
       {"common", "types", "ontology", "formats", "kb", "kbimage", "modules",
        "pool", "engine", "obs", "corpus", "workflow", "core", "provenance",
        "durability", "shard"}},
  };
  return kDeps;
}

void CollectStatusFunctions(const SourceFile& file, GlobalContext& ctx,
                            std::set<std::string>& ambiguous) {
  const Tokens& t = file.lex.tokens;
  static const std::set<std::string> kNonTypeIdents = {
      "return", "co_return", "co_await", "co_yield", "throw", "new",
      "delete", "case",      "goto",     "else",     "do",    "not",
      "and",    "or",        "sizeof",   "typename", "operator"};
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdentifier) continue;
    if (t[i].text == "Status") {
      if (t[i + 1].kind == TokenKind::kIdentifier && i + 2 < t.size() &&
          IsPunct(t[i + 2], "(")) {
        ctx.status_functions.insert(t[i + 1].text);
      }
      continue;
    }
    if (t[i].text == "Result" && i + 1 < t.size() && IsPunct(t[i + 1], "<")) {
      // Skip the balanced template argument list.
      size_t j = i + 1;
      int depth = 0;
      bool closed = false;
      for (; j < t.size() && j < i + 64; ++j) {
        if (IsPunct(t[j], "<")) ++depth;
        if (IsPunct(t[j], ">")) {
          if (--depth == 0) {
            closed = true;
            ++j;
            break;
          }
        }
        if (IsPunct(t[j], ";") || IsPunct(t[j], "(")) break;
      }
      if (closed && j + 1 < t.size() &&
          t[j].kind == TokenKind::kIdentifier && IsPunct(t[j + 1], "(")) {
        ctx.status_functions.insert(t[j].text);
      }
      continue;
    }
    // Same-shaped declaration with a *different* return type makes the name
    // ambiguous for name-based lookup; record it so the driver can prune.
    if (t[i + 1].kind == TokenKind::kIdentifier && i + 2 < t.size() &&
        IsPunct(t[i + 2], "(") && kNonTypeIdents.count(t[i].text) == 0 &&
        t[i + 1].text != "Status" && t[i + 1].text != "Result") {
      ambiguous.insert(t[i + 1].text);
    }
  }
}

}  // namespace dexa::lint
