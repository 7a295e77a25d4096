// dexa-lint rule-by-rule coverage: every rule family must fire on a
// violating fixture and stay silent on a conforming one, suppression
// comments must work, and — the point of the exercise — the live tree
// must lint clean.

#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tools/lint/index.h"
#include "tools/lint/lexer.h"
#include "tools/lint/lint.h"
#include "tools/lint/rules.h"
#include "tools/lint/sarif.h"

namespace dexa::lint {
namespace {

using Sources = std::vector<std::pair<std::string, std::string>>;

LintReport Lint(const Sources& sources) {
  Linter linter;
  for (const auto& [path, text] : sources) linter.AddSource(path, text);
  return linter.Run();
}

/// Rule names present in `report`, for order-insensitive assertions.
std::set<std::string> RuleSet(const LintReport& report) {
  std::set<std::string> rules;
  for (const Finding& f : report.findings) rules.insert(f.rule);
  return rules;
}

std::string Describe(const LintReport& report) {
  std::string out;
  for (const Finding& f : report.findings) {
    out += f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
           f.message + "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(LexerTest, TokensCommentsStringsAndIncludes) {
  LexedSource lex = LexSource(
      "#include \"common/status.h\"\n"
      "#include <vector>\n"
      "// std::thread in a comment is not a token\n"
      "const char* s = \"std::thread\";  /* nor in a string */\n"
      "int x = 42;\n");
  ASSERT_EQ(lex.includes.size(), 2u);
  EXPECT_EQ(lex.includes[0].path, "common/status.h");
  EXPECT_FALSE(lex.includes[0].angled);
  EXPECT_EQ(lex.includes[1].path, "vector");
  EXPECT_TRUE(lex.includes[1].angled);
  for (const Token& t : lex.tokens) {
    EXPECT_NE(t.text, "thread") << "leaked from comment/string";
  }
}

TEST(LexerTest, RawStringsSwallowBannedTokens) {
  LexedSource lex = LexSource(
      "auto fixture = R\"cpp(\n"
      "  std::random_device rd;  // not code\n"
      ")cpp\";\n"
      "int after = 1;\n");
  bool saw_after = false;
  for (const Token& t : lex.tokens) {
    EXPECT_NE(t.text, "random_device");
    saw_after |= t.text == "after";
  }
  EXPECT_TRUE(saw_after) << "lexing must resume after the raw string";
}

TEST(LexerTest, SuppressionComments) {
  LexedSource lex = LexSource(
      "// dexa-lint: allow(wall-clock, entropy)\n"
      "int x;\n"
      "/* dexa-lint: allow-file(layering) */\n");
  ASSERT_TRUE(lex.line_suppressions.count(1));
  EXPECT_TRUE(lex.line_suppressions[1].count("wall-clock"));
  EXPECT_TRUE(lex.line_suppressions[1].count("entropy"));
  EXPECT_TRUE(lex.file_suppressions.count("layering"));
}

TEST(LexerTest, LineNumbersSurviveMultilineConstructs) {
  LexedSource lex = LexSource("/* one\ntwo\nthree */\nint marker;\n");
  ASSERT_FALSE(lex.tokens.empty());
  EXPECT_EQ(lex.tokens[0].text, "int");
  EXPECT_EQ(lex.tokens[0].line, 4);
}

TEST(LexerTest, BackslashContinuationsKeepMacroBodiesOutOfTheStream) {
  // A continued #define spans three physical lines; none of its body may
  // leak into the token stream (macro bodies are not call sites), and the
  // line counter must still account for the swallowed newlines.
  LexedSource lex = LexSource(
      "#define SPAWN(body) \\\n"
      "  std::thread t(body); \\\n"
      "  t.detach()\n"
      "int after = 1;\n");
  for (const Token& t : lex.tokens) {
    EXPECT_NE(t.text, "thread") << "macro body leaked into the token stream";
    EXPECT_NE(t.text, "detach") << "macro body leaked into the token stream";
  }
  ASSERT_FALSE(lex.tokens.empty());
  EXPECT_EQ(lex.tokens[0].text, "int");
  EXPECT_EQ(lex.tokens[0].line, 4);
}

TEST(LexerTest, IncludeOfMacroExpansionIsSkippedNotMangled) {
  // `#include MACRO` has no literal path: the directive must be consumed
  // without recording a bogus include and without tokenizing the macro name.
  LexedSource lex = LexSource(
      "#define KB_HEADER \"kb/entities.h\"\n"
      "#include KB_HEADER\n"
      "#include <vector>\n"
      "int after;\n");
  ASSERT_EQ(lex.includes.size(), 1u);
  EXPECT_EQ(lex.includes[0].path, "vector");
  for (const Token& t : lex.tokens) {
    EXPECT_NE(t.text, "KB_HEADER");
  }
  ASSERT_FALSE(lex.tokens.empty());
  EXPECT_EQ(lex.tokens[0].text, "int");
}

// ---------------------------------------------------------------------------
// Symbol index (tools/lint/index.h)
// ---------------------------------------------------------------------------

TEST(IndexerTest, OutOfLineMemberDefinitionSplitAcrossLines) {
  // The declarator chain of an out-of-line member may be broken across
  // physical lines; the indexer works on tokens, so the qualified name and
  // the body's call edges must come out intact.
  LexedSource lex = LexSource(
      "Status\n"
      "RunJournal::\n"
      "    Seal(int epoch,\n"
      "         bool flush) {\n"
      "  Append(epoch);\n"
      "  return Finish(flush);\n"
      "}\n");
  FileIndex index = BuildFileIndex("src/durability/j.cc", "durability", lex);
  ASSERT_EQ(index.functions.size(), 1u);
  EXPECT_EQ(index.functions[0].name, "RunJournal::Seal");
  std::set<std::string> calls;
  for (const CallSite& c : index.functions[0].calls) calls.insert(c.name);
  EXPECT_TRUE(calls.count("Append"));
  EXPECT_TRUE(calls.count("Finish"));
}

TEST(IndexerTest, RecordsTaintSourcesPerFunction) {
  LexedSource lex = LexSource(
      "uint64_t Now() {\n"
      "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
      "}\n"
      "int Roll() { std::random_device rd; return rd(); }\n"
      "int Pure(int x) { return x + 1; }\n");
  FileIndex index = BuildFileIndex("src/formats/x.cc", "formats", lex);
  ASSERT_EQ(index.functions.size(), 3u);
  ASSERT_EQ(index.functions[0].sources.size(), 1u);
  EXPECT_EQ(index.functions[0].sources[0].kind, "wall-clock");
  EXPECT_EQ(index.functions[0].sources[0].what, "steady_clock");
  ASSERT_EQ(index.functions[1].sources.size(), 1u);
  EXPECT_EQ(index.functions[1].sources[0].kind, "entropy");
  EXPECT_TRUE(index.functions[2].sources.empty());
}

// ---------------------------------------------------------------------------
// Family 1: determinism (wall-clock, entropy)
// ---------------------------------------------------------------------------

TEST(WallClockRuleTest, FiresOnChronoClocksInDeterministicLayers) {
  LintReport report = Lint(
      {{"src/core/x.cc",
        "#include <chrono>\n"
        "void F() { auto t = std::chrono::system_clock::now(); }\n"},
       {"src/durability/y.cc", "void G() { time_t t = time(nullptr); }\n"}});
  EXPECT_EQ(report.findings.size(), 2u) << Describe(report);
  EXPECT_TRUE(RuleSet(report).count("wall-clock"));
}

TEST(WallClockRuleTest, SilentOutsideDeterministicLayersAndOnVirtualClock) {
  LintReport report = Lint(
      {{"bench/b.cc",
        "void F() { auto t = std::chrono::steady_clock::now(); }\n"},
       {"src/core/ok.cc",
        "#include \"engine/virtual_clock.h\"\n"
        "void G(VirtualClock& clock) { auto t = clock.NowNanos(); }\n"}});
  EXPECT_TRUE(report.findings.empty()) << Describe(report);
}

TEST(WallClockRuleTest, DeclarationOfVariableNamedTimeIsNotACall) {
  LintReport report =
      Lint({{"src/engine/ok.cc", "void F() { VirtualTime time(0); }\n"}});
  EXPECT_TRUE(report.findings.empty()) << Describe(report);
}

TEST(EntropyRuleTest, FiresOnAmbientEntropyInDeterministicLayers) {
  LintReport report = Lint(
      {{"src/engine/x.cc", "void F() { std::random_device rd; }\n"},
       {"src/core/y.cc", "int G() { return rand(); }\n"}});
  EXPECT_EQ(report.findings.size(), 2u) << Describe(report);
  EXPECT_EQ(RuleSet(report), std::set<std::string>{"entropy"});
}

TEST(EntropyRuleTest, SilentOnSeededRngAndOutsideScope) {
  LintReport report = Lint(
      {{"src/core/ok.cc",
        "#include \"common/rng.h\"\n"
        "void F(Rng& rng) { auto v = rng.NextBelow(10); }\n"},
       {"tests/t.cc", "void G() { std::random_device rd; }\n"}});
  EXPECT_TRUE(report.findings.empty()) << Describe(report);
}

// ---------------------------------------------------------------------------
// Family 2: unchecked errors
// ---------------------------------------------------------------------------

TEST(UncheckedStatusRuleTest, FiresOnDiscardedStatusCall) {
  LintReport report = Lint(
      {{"src/durability/j.h", "Status Append(int x);\n"},
       {"src/durability/j.cc", "void F() { Append(1); }\n"}});
  ASSERT_EQ(report.findings.size(), 1u) << Describe(report);
  EXPECT_EQ(report.findings[0].rule, "unchecked-status");
  EXPECT_EQ(report.findings[0].file, "src/durability/j.cc");
}

TEST(UncheckedStatusRuleTest, FiresOnDiscardedMemberChainCall) {
  LintReport report = Lint(
      {{"src/durability/j.h",
        "class RunJournal { public: Status Seal(); };\n"},
       {"src/durability/j.cc", "void F(RunJournal& j) { j.Seal(); }\n"}});
  ASSERT_EQ(report.findings.size(), 1u) << Describe(report);
  EXPECT_EQ(report.findings[0].rule, "unchecked-status");
}

TEST(UncheckedStatusRuleTest, SilentWhenResultIsConsumed) {
  LintReport report = Lint(
      {{"src/durability/j.h",
        "Status Append(int x);\nResult<int> Parse(int y);\n"},
       {"src/durability/j.cc",
        "Status G() {\n"
        "  Status s = Append(1);\n"
        "  if (!s.ok()) return s;\n"
        "  auto r = Parse(2);\n"
        "  (void)Append(3);  // explicit discard is fine\n"
        "  return Append(4);\n"
        "}\n"}});
  EXPECT_TRUE(report.findings.empty()) << Describe(report);
}

TEST(UncheckedStatusRuleTest, AmbiguousNamesArePruned) {
  // `Reset` is declared both Status- and void-returning: name-based lookup
  // would be a coin flip, so the rule must not fire.
  LintReport report = Lint(
      {{"src/core/a.h", "Status Reset();\n"},
       {"src/engine/b.h", "void Reset();\n"},
       {"src/core/a.cc", "void F() { Reset(); }\n"}});
  EXPECT_TRUE(report.findings.empty()) << Describe(report);
}

// ---------------------------------------------------------------------------
// Family 3: concurrency discipline
// ---------------------------------------------------------------------------

TEST(RawThreadRuleTest, FiresOutsideEngine) {
  LintReport report = Lint(
      {{"src/core/x.cc", "void F() { std::thread t([] {}); t.detach(); }\n"},
       {"tests/t.cc", "auto f = std::async([] { return 1; });\n"}});
  EXPECT_EQ(report.findings.size(), 3u) << Describe(report);
  EXPECT_EQ(RuleSet(report), std::set<std::string>{"raw-thread"});
}

TEST(RawThreadRuleTest, EngineAndQueriesAreExempt) {
  LintReport report = Lint(
      {{"src/engine/pool.cc", "void F() { std::jthread t([] {}); }\n"},
       {"bench/b.cc",
        "size_t N() { return std::thread::hardware_concurrency(); }\n"}});
  EXPECT_TRUE(report.findings.empty()) << Describe(report);
}

TEST(NakedLockRuleTest, FiresOnManualLockAndUnlock) {
  LintReport report = Lint(
      {{"src/pool/p.cc",
        "void F(std::mutex& mu) { mu.lock(); work(); mu.unlock(); }\n"}});
  EXPECT_EQ(report.findings.size(), 2u) << Describe(report);
  EXPECT_EQ(RuleSet(report), std::set<std::string>{"naked-lock"});
}

TEST(NakedLockRuleTest, RaiiGuardsAreSilent) {
  LintReport report = Lint(
      {{"src/pool/p.cc",
        "void F(std::mutex& mu) {\n"
        "  std::lock_guard<std::mutex> lock(mu);\n"
        "  std::unique_lock<std::mutex> lk(mu, std::try_to_lock);\n"
        "}\n"}});
  EXPECT_TRUE(report.findings.empty()) << Describe(report);
}

// ---------------------------------------------------------------------------
// Family 4: layering
// ---------------------------------------------------------------------------

TEST(LayeringRuleTest, FiresOnUpwardInclude) {
  LintReport report = Lint(
      {{"src/types/v.cc", "#include \"engine/metrics.h\"\n"},
       {"src/modules/m.h", "#include \"corpus/corpus.h\"\n"}});
  EXPECT_EQ(report.findings.size(), 2u) << Describe(report);
  EXPECT_EQ(RuleSet(report), std::set<std::string>{"layering"});
}

TEST(LayeringRuleTest, DownwardAndSameLayerIncludesAreSilent) {
  LintReport report = Lint(
      {{"src/kb/k.cc",
        "#include \"formats/sequence_record.h\"\n"
        "#include \"kb/entities.h\"\n"
        "#include \"common/status.h\"\n"
        "#include <vector>\n"},
       {"tests/t.cc", "#include \"engine/metrics.h\"\n"}});
  EXPECT_TRUE(report.findings.empty()) << Describe(report);
}

TEST(LayeringRuleTest, ObsSlotsBelowItsConsumersOnly) {
  // Consumers of obs (core, workflow, durability) may include it; obs may
  // reach down to engine but never back up into its consumers, and engine
  // itself must stay obs-free (the engine seam is EngineMetrics, not spans).
  LintReport silent = Lint(
      {{"src/core/a.cc", "#include \"obs/trace.h\"\n"},
       {"src/workflow/b.cc", "#include \"obs/trace.h\"\n"},
       {"src/durability/c.cc", "#include \"obs/metrics_registry.h\"\n"},
       {"src/obs/trace.cc",
        "#include \"engine/metrics.h\"\n"
        "#include \"common/status.h\"\n"}});
  EXPECT_TRUE(silent.findings.empty()) << Describe(silent);

  LintReport fires = Lint(
      {{"src/obs/trace.cc", "#include \"core/example_generator.h\"\n"},
       {"src/engine/invocation_engine.cc", "#include \"obs/trace.h\"\n"}});
  EXPECT_EQ(fires.findings.size(), 2u) << Describe(fires);
  EXPECT_EQ(RuleSet(fires), std::set<std::string>{"layering"});
}

TEST(LayeringRuleTest, NormativeDagIsAcyclic) {
  const auto& deps = LayerDependencies();
  // Every declared dependency must itself be a declared layer, and the
  // transitive closure must never reach back to the starting layer.
  for (const auto& [layer, allowed] : deps) {
    std::vector<std::string> frontier(allowed.begin(), allowed.end());
    std::set<std::string> seen;
    while (!frontier.empty()) {
      std::string next = frontier.back();
      frontier.pop_back();
      if (!seen.insert(next).second) continue;
      ASSERT_TRUE(deps.count(next)) << next << " is not a declared layer";
      EXPECT_NE(next, layer) << "cycle through " << layer;
      const auto& down = deps.at(next);
      frontier.insert(frontier.end(), down.begin(), down.end());
    }
  }
}

// ---------------------------------------------------------------------------
// Family 5: ordered-output hygiene
// ---------------------------------------------------------------------------

TEST(UnorderedIterationRuleTest, FiresInSerializationPaths) {
  LintReport report = Lint(
      {{"src/durability/codec.cc",
        "void Emit(const std::unordered_map<int, int>& index) {\n"
        "  for (const auto& [k, v] : index) { Write(k, v); }\n"
        "}\n"},
       {"src/modules/registry_io.cc",
        "void F() {\n"
        "  std::unordered_set<int> ids;\n"
        "  for (int id : ids) { Write(id); }\n"
        "}\n"}});
  EXPECT_EQ(report.findings.size(), 2u) << Describe(report);
  EXPECT_EQ(RuleSet(report), std::set<std::string>{"unordered-iteration"});
}

TEST(UnorderedIterationRuleTest, OrderedContainersAndOtherLayersAreSilent) {
  LintReport report = Lint(
      {{"src/durability/codec.cc",
        "void Emit(const std::map<int, int>& index) {\n"
        "  for (const auto& [k, v] : index) { Write(k, v); }\n"
        "}\n"},
       {"src/core/scratch.cc",
        "void G(const std::unordered_map<int, int>& m) {\n"
        "  for (const auto& [k, v] : m) { Count(k, v); }\n"
        "}\n"}});
  EXPECT_TRUE(report.findings.empty()) << Describe(report);
}

// ---------------------------------------------------------------------------
// Family 6: observability (span hygiene)
// ---------------------------------------------------------------------------

TEST(ManualSpanRuleTest, FiresOnManualBeginEndPairsInInstrumentedLayers) {
  // A manual Begin/End pair leaks the span on the early return between them.
  LintReport report = Lint(
      {{"src/core/x.cc",
        "Status F(obs::Tracer* tracer) {\n"
        "  uint64_t id = tracer->BeginSpan(obs::SpanKind::kPhase, \"g\", 0);\n"
        "  if (Step().ok()) return Status::Cancelled(\"leaks the span\");\n"
        "  tracer->EndSpan(id);\n"
        "  return Status::OK();\n"
        "}\n"}});
  EXPECT_EQ(report.findings.size(), 2u) << Describe(report);
  EXPECT_EQ(RuleSet(report), std::set<std::string>{"manual-span"});
}

TEST(ManualSpanRuleTest, ObsLayerAndTestsAreExempt) {
  // obs implements the RAII guard on top of the raw pair; tests drive the
  // Tracer API directly to pin its semantics.
  LintReport report = Lint(
      {{"src/obs/trace.cc",
        "uint64_t Tracer::BeginSpan(SpanKind k, const std::string& n,\n"
        "                           uint64_t parent) { return Open(k, n); }\n"},
       {"tests/obs_test.cc",
        "void T(obs::Tracer& tracer) {\n"
        "  uint64_t id = tracer.BeginSpan(obs::SpanKind::kRun, \"r\", 0);\n"
        "  tracer.EndSpan(id);\n"
        "}\n"}});
  EXPECT_TRUE(report.findings.empty()) << Describe(report);
}

TEST(UnnamedSpanRuleTest, FiresOnImmediateTemporary) {
  // An unnamed guard destructs at the end of the full expression: the span
  // closes on the tick it opened and covers nothing.
  LintReport report = Lint(
      {{"src/workflow/w.cc",
        "void F(obs::Tracer* tracer) {\n"
        "  obs::ScopedSpan(tracer, obs::SpanKind::kPhase, \"enact\", 0);\n"
        "  Work();\n"
        "}\n"}});
  ASSERT_EQ(report.findings.size(), 1u) << Describe(report);
  EXPECT_EQ(report.findings[0].rule, "unnamed-span");
  EXPECT_EQ(report.findings[0].line, 2);
}

TEST(UnnamedSpanRuleTest, NamedGuardsAndObsDeclarationsAreSilent) {
  LintReport report = Lint(
      {{"src/core/g.cc",
        "void F(obs::Tracer* tracer) {\n"
        "  obs::ScopedSpan phase(tracer, obs::SpanKind::kPhase, \"x\", 0);\n"
        "  Work(phase.id());\n"
        "}\n"},
       {"src/obs/trace.h",
        "class ScopedSpan {\n"
        " public:\n"
        "  ScopedSpan(Tracer* tracer, SpanKind kind, std::string name);\n"
        "  ScopedSpan(const ScopedSpan&) = delete;\n"
        "};\n"}});
  EXPECT_TRUE(report.findings.empty()) << Describe(report);
}

TEST(StringKeyedLookupRuleTest, FiresOnNameOfAndOntologyFindInHotLayers) {
  LintReport report = Lint(
      {{"src/core/a.cc",
        "void F(const Ontology& ontology, ConceptId c) {\n"
        "  std::string name = ontology.NameOf(c);\n"
        "  ConceptId d = ontology.Find(\"ProteinSequence\");\n"
        "}\n"},
       {"src/workflow/b.cc",
        "void G(const Ontology* ontology) {\n"
        "  auto id = ontology->Require(\"GOTerm\");\n"
        "}\n"}});
  ASSERT_EQ(report.findings.size(), 3u) << Describe(report);
  for (const Finding& f : report.findings) {
    EXPECT_EQ(f.rule, "string-keyed-lookup");
  }
}

TEST(StringKeyedLookupRuleTest, OntologyLayerIoFilesAndOtherReceiversSilent) {
  LintReport report = Lint(
      {// The ontology layer owns the string APIs.
       {"src/ontology/ontology.cc",
        "const std::string& Ontology::NameOf(ConceptId c) const;\n"},
       // Serialization boundaries are exempt wholesale: names ARE the
       // wire format there.
       {"src/workflow/workflow_io.cc",
        "void W(const Ontology& ontology, ConceptId c) {\n"
        "  Emit(ontology.NameOf(c));\n"
        "}\n"},
       // Find on a non-ontology receiver (registry, JSON) is fine.
       {"src/core/c.cc",
        "void H(const ModuleRegistry& registry) {\n"
        "  auto m = registry.Find(\"EBI_GetUniprotRecord\");\n"
        "}\n"},
       // Layers outside the interned hot set are out of scope.
       {"src/provenance/p.cc",
        "void P(const Ontology& ontology, ConceptId c) {\n"
        "  Log(ontology.NameOf(c));\n"
        "}\n"}});
  EXPECT_TRUE(report.findings.empty()) << Describe(report);
}

TEST(StringKeyedLookupRuleTest, AllowCommentSuppresses) {
  LintReport report = Lint(
      {{"src/workflow/w.cc",
        "void F(const Ontology& ontology, ConceptId c) {\n"
        "  // dexa-lint: allow(string-keyed-lookup) — diagnostics only\n"
        "  Diag(ontology.NameOf(c));\n"
        "}\n"}});
  EXPECT_TRUE(report.findings.empty()) << Describe(report);
  EXPECT_EQ(report.suppressed, 1u);
}

TEST(UncachedReasoningRuleTest, FiresOnDirectPrimitivesInEngineAndCore) {
  LintReport report = Lint(
      {{"src/core/a.cc",
        "bool F(const Ontology& ontology, ConceptId a, ConceptId b) {\n"
        "  return ontology.IsSubsumedBy(a, b);\n"
        "}\n"},
       {"src/engine/b.cc",
        "void G(const Ontology* ontology, ConceptId c) {\n"
        "  auto down = ontology->Descendants(c);\n"
        "  auto parts = ontology->Partitions(c);\n"
        "}\n"},
       // The cache itself answers from the compiled KB, not the ontology.
       {"src/engine/concept_cache.h",
        "bool H(const Ontology& ontology, ConceptId a, ConceptId b) {\n"
        "  return ontology.LeastCommonSubsumer(a, b) == b;\n"
        "}\n"}});
  ASSERT_EQ(report.findings.size(), 4u) << Describe(report);
  for (const Finding& f : report.findings) {
    EXPECT_EQ(f.rule, "uncached-reasoning");
  }
}

TEST(UncachedReasoningRuleTest, OtherLayersAndCacheCallsSilent) {
  LintReport report = Lint(
      {// Calls through the cache are the point of the rule.
       {"src/core/c.cc",
        "bool H(const ConceptCache& cache, ConceptId a, ConceptId b) {\n"
        "  return cache.IsSubsumedBy(a, b) && cache.Comparable(a, b);\n"
        "}\n"},
       // The ontology layer implements the primitives.
       {"src/ontology/ontology.cc",
        "bool Ontology::IsSubsumedBy(ConceptId a, ConceptId b) const;\n"},
       // Workflow/repair may reason directly (they are not hot loops).
       {"src/workflow/w.cc",
        "bool W(const Ontology& ontology, ConceptId a, ConceptId b) {\n"
        "  return ontology.IsSubsumedBy(a, b);\n"
        "}\n"}});
  EXPECT_TRUE(report.findings.empty()) << Describe(report);
}

// ---------------------------------------------------------------------------
// Family 8: io — file bytes go through the IoEnv seam
// ---------------------------------------------------------------------------

TEST(RawIoRuleTest, FiresOnDirectPosixCallsInSrc) {
  LintReport report = Lint(
      {{"src/durability/bad.cc",
        "void F(int fd, const char* p, size_t n) {\n"
        "  ::write(fd, p, n);\n"
        "  ::fsync(fd);\n"
        "}\n"}});
  ASSERT_EQ(report.findings.size(), 2u) << Describe(report);
  EXPECT_EQ(RuleSet(report), std::set<std::string>{"raw-io"});
  EXPECT_NE(report.findings[0].message.find("IoEnv"), std::string::npos);
}

TEST(RawIoRuleTest, FiresOnFilesystemRename) {
  LintReport report = Lint(
      {{"src/kbimage/swap.cc",
        "void G(const std::string& a, const std::string& b) {\n"
        "  std::filesystem::rename(a, b);\n"
        "}\n"},
       {"src/durability/swap.cc",
        "namespace fs = std::filesystem;\n"
        "void H(const std::string& a, const std::string& b) {\n"
        "  fs::rename(a, b);\n"
        "}\n"}});
  ASSERT_EQ(report.findings.size(), 2u) << Describe(report);
  EXPECT_EQ(RuleSet(report), std::set<std::string>{"raw-io"});
  EXPECT_NE(report.findings[0].message.find("IoEnv::Rename"), std::string::npos);
}

TEST(RawIoRuleTest, SeamSocketLoopTestsAndQualifiedCallsAreExempt) {
  LintReport report = Lint(
      {// The seam implementation itself owns the raw syscalls.
       {"src/common/io_env.cc", "void F(int fd) { ::fsync(fd); }\n"},
       // The serve socket loop reads and writes fds, not files.
       {"src/serve/server.cc", "void G(int fd, char* b) { ::read(fd, b, 1); }\n"},
       // Tests and benches exercise sockets and raw files deliberately.
       {"tests/x_test.cc", "void H(int fd) { ::write(fd, \"x\", 1); }\n"},
       {"bench/bench_x.cc", "void I(int fd) { ::close(fd); }\n"},
       // Qualified member / scoped calls are not the POSIX symbols.
       {"src/core/member.cc",
        "void J(File* f, char* p) { f->file_::write(p, 1); }\n"
        "void K() { Writer::rename(\"a\", \"b\"); }\n"}});
  EXPECT_TRUE(report.findings.empty()) << Describe(report);
}

TEST(RawIoRuleTest, SuppressibleWithAllowComment) {
  LintReport report = Lint(
      {{"src/core/probe.cc",
        "// dexa-lint: allow(raw-io) — feature probe, bytes discarded\n"
        "void F(int fd) { ::fsync(fd); }\n"}});
  EXPECT_TRUE(report.findings.empty()) << Describe(report);
  EXPECT_EQ(report.suppressed, 1u);
}

// ---------------------------------------------------------------------------
// Whole-program determinism taint (call graph over the symbol index)
// ---------------------------------------------------------------------------

TEST(DeterminismTaintRuleTest, FiresAcrossFilesWithFullCallChain) {
  // The source lives two hops away from the committed-byte sink, in a layer
  // the first-order wall-clock rule does not cover — only the transitive
  // taint pass can connect them.
  LintReport report = Lint(
      {{"src/formats/stamp.h",
        "inline uint64_t NowStamp() {\n"
        "  return std::chrono::system_clock::now().time_since_epoch()\n"
        "      .count();\n"
        "}\n"},
       {"src/formats/render.h",
        "inline std::string FormatStamp() {\n"
        "  return std::to_string(NowStamp());\n"
        "}\n"},
       {"src/durability/commit_codec.cc",
        "void EncodeFrame(Buffer& buffer) {\n"
        "  buffer.Add(FormatStamp());\n"
        "}\n"}});
  ASSERT_EQ(report.findings.size(), 1u) << Describe(report);
  const Finding& f = report.findings[0];
  EXPECT_EQ(f.rule, "determinism-taint");
  EXPECT_EQ(f.file, "src/durability/commit_codec.cc");
  EXPECT_EQ(f.line, 1);
  EXPECT_NE(f.message.find("EncodeFrame -> FormatStamp -> NowStamp"),
            std::string::npos)
      << f.message;
  EXPECT_NE(f.message.find("wall-clock"), std::string::npos) << f.message;
  // Flow: sink definition, two call hops, the source itself.
  ASSERT_EQ(f.flow.size(), 4u);
  EXPECT_EQ(f.flow.front().file, "src/durability/commit_codec.cc");
  EXPECT_EQ(f.flow.back().file, "src/formats/stamp.h");
  EXPECT_EQ(f.flow.back().line, 2);
}

TEST(DeterminismTaintRuleTest, SilentWhenNoPathReachesASink) {
  // Same nondeterministic helper, but every caller is outside the sink set:
  // nondeterminism that never becomes committed bytes is not a finding.
  LintReport report = Lint(
      {{"src/formats/stamp.h",
        "inline uint64_t NowStamp() {\n"
        "  return std::chrono::system_clock::now().time_since_epoch()\n"
        "      .count();\n"
        "}\n"},
       {"src/kb/loader.cc",
        "void WarmCaches() { auto t = NowStamp(); Use(t); }\n"}});
  EXPECT_TRUE(report.findings.empty()) << Describe(report);
}

TEST(DeterminismTaintRuleTest, AllowCommentAtTheSourceSeversTheChain) {
  LintReport report = Lint(
      {{"src/formats/stamp.h",
        "inline uint64_t NowStamp() {\n"
        "  // dexa-lint: allow(determinism-taint) — display-only stamp\n"
        "  return std::chrono::system_clock::now().time_since_epoch()\n"
        "      .count();\n"
        "}\n"},
       {"src/durability/commit_codec.cc",
        "void EncodeFrame(Buffer& buffer) {\n"
        "  buffer.Add(NowStamp());\n"
        "}\n"}});
  EXPECT_TRUE(report.findings.empty()) << Describe(report);
}

TEST(DeterminismTaintRuleTest, SourceInsideTheSinkFileIsAMinimalChain) {
  // serve/wire is a sink by path; entropy's first-order scope does not
  // cover serve, so the taint pass is the only gate left — and a source
  // inside the sink function itself is the degenerate one-node chain.
  LintReport report = Lint(
      {{"src/serve/wire.cc",
        "void WriteHeader(Frame& frame) {\n"
        "  std::random_device seed;\n"
        "  frame.Put(seed());\n"
        "}\n"}});
  ASSERT_EQ(report.findings.size(), 1u) << Describe(report);
  EXPECT_EQ(report.findings[0].rule, "determinism-taint");
  ASSERT_EQ(report.findings[0].flow.size(), 2u);
  EXPECT_EQ(report.findings[0].flow[1].line, 2);
}

// ---------------------------------------------------------------------------
// Family 9: lock discipline (guarded fields)
// ---------------------------------------------------------------------------

TEST(GuardedFieldRuleTest, FiresOnUnannotatedFieldOfMutexOwningClass) {
  LintReport report = Lint(
      {{"src/engine/q.h",
        "class WorkQueue {\n"
        " public:\n"
        "  void Push(int v);\n"
        " private:\n"
        "  std::mutex mutex_;\n"
        "  std::deque<int> items_;\n"
        "};\n"}});
  ASSERT_EQ(report.findings.size(), 1u) << Describe(report);
  EXPECT_EQ(report.findings[0].rule, "guarded-field");
  EXPECT_EQ(report.findings[0].line, 6);
  EXPECT_NE(report.findings[0].message.find("items_"), std::string::npos)
      << report.findings[0].message;
}

TEST(GuardedFieldRuleTest, AnnotatedExemptAndAllowListedFieldsAreSilent) {
  LintReport report = Lint(
      {{"src/serve/table.h",
        "class RunTable {\n"
        " public:\n"
        "  using Id = uint64_t;\n"
        "  static constexpr int kShards = 4;\n"
        "  void Insert(Id id);\n"
        " private:\n"
        "  mutable std::shared_mutex mutex_;\n"
        "  std::map<Id, int> runs_ DEXA_GUARDED_BY(mutex_);\n"
        "  std::atomic<uint64_t> epoch_{0};\n"
        "  std::condition_variable_any cv_;\n"
        "  // dexa-lint: allow(guarded-field) — written once before sharing\n"
        "  std::string name_;\n"
        "};\n"}});
  EXPECT_TRUE(report.findings.empty()) << Describe(report);
  EXPECT_EQ(report.suppressed, 1u);
}

TEST(GuardedFieldRuleTest, MutexFreeClassesAndOtherLayersAreOutOfScope) {
  LintReport report = Lint(
      {// No mutex, no contract to annotate.
       {"src/engine/plain.h",
        "class Plain { int x_; std::string y_; };\n"},
       // The rule's proving ground is engine + serve only.
       {"src/kb/locked.h",
        "class Table { std::mutex mutex_; std::map<int, int> rows_; };\n"}});
  EXPECT_TRUE(report.findings.empty()) << Describe(report);
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

TEST(SuppressionTest, SameLinePrecedingLineAndFileWide) {
  Sources sources = {
      {"src/core/a.cc",
       "void F() {\n"
       "  auto t = std::chrono::system_clock::now();  "
       "// dexa-lint: allow(wall-clock)\n"
       "}\n"},
      {"src/core/b.cc",
       "void G() {\n"
       "  // dexa-lint: allow(wall-clock) — reporting only\n"
       "  auto t = std::chrono::system_clock::now();\n"
       "}\n"},
      {"src/core/c.cc",
       "// dexa-lint: allow-file(entropy)\n"
       "void H() { std::random_device a; std::random_device b; }\n"}};
  LintReport report = Lint(sources);
  EXPECT_TRUE(report.findings.empty()) << Describe(report);
  EXPECT_EQ(report.suppressed, 4u);
}

TEST(SuppressionTest, AllowForOneRuleDoesNotSilenceAnother) {
  LintReport report = Lint(
      {{"src/core/a.cc",
        "// dexa-lint: allow(entropy)\n"
        "auto t = std::chrono::system_clock::now();\n"}});
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, "wall-clock");
}

// ---------------------------------------------------------------------------
// Report plumbing
// ---------------------------------------------------------------------------

TEST(ReportTest, JsonContainsFindingsAndCounts) {
  LintReport report = Lint(
      {{"src/core/a.cc", "void F() { std::random_device rd; }\n"}});
  std::string json = ReportToJson(report);
  EXPECT_NE(json.find("\"tool\": \"dexa-lint\""), std::string::npos);
  EXPECT_NE(json.find("\"files_scanned\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"entropy\""), std::string::npos);
  EXPECT_NE(json.find("src/core/a.cc"), std::string::npos);
}

TEST(ReportTest, EveryRegisteredRuleHasNameFamilySummary) {
  std::set<std::string> names;
  for (const RuleInfo& rule : Rules()) {
    EXPECT_TRUE(names.insert(rule.name).second) << "duplicate " << rule.name;
    EXPECT_STRNE(rule.family, "");
    EXPECT_STRNE(rule.summary, "");
  }
  EXPECT_EQ(names.size(), 14u) << "fourteen rules in nine families (DESIGN.md)";
}

TEST(ReportTest, JsonCarriesTaintFlows) {
  LintReport report = Lint(
      {{"src/serve/wire.cc",
        "void W(Frame& f) { std::random_device rd; f.Put(rd()); }\n"}});
  ASSERT_EQ(report.findings.size(), 1u) << Describe(report);
  std::string json = ReportToJson(report);
  EXPECT_NE(json.find("\"flow\""), std::string::npos);
  EXPECT_NE(json.find("entropy source"), std::string::npos);
}

// ---------------------------------------------------------------------------
// SARIF output
// ---------------------------------------------------------------------------

/// Cheap well-formedness: every brace/bracket closes, quotes balance.
void ExpectBalancedJson(const std::string& doc) {
  long braces = 0;
  long brackets = 0;
  size_t quotes = 0;
  bool in_string = false;
  for (size_t i = 0; i < doc.size(); ++i) {
    char c = doc[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
        ++quotes;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; ++quotes; break;
      case '{': ++braces; break;
      case '}': --braces; break;
      case '[': ++brackets; break;
      case ']': --brackets; break;
      default: break;
    }
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_EQ(quotes % 2, 0u);
  EXPECT_FALSE(in_string);
}

TEST(SarifTest, DocumentCarriesSchemaRuleCatalogAndResults) {
  LintReport report = Lint(
      {{"src/core/a.cc", "void F() { std::random_device rd; }\n"}});
  std::string sarif = ReportToSarif(report);
  ExpectBalancedJson(sarif);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("sarif-2.1.0.json"), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"dexa-lint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"entropy\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/core/a.cc\""), std::string::npos);
  // The driver catalog lists every registered rule, finding or not.
  for (const RuleInfo& rule : Rules()) {
    EXPECT_NE(sarif.find("\"id\": \"" + std::string(rule.name) + "\""),
              std::string::npos)
        << rule.name;
  }
  // Deterministic byte-for-byte.
  EXPECT_EQ(sarif, ReportToSarif(report));
}

TEST(SarifTest, TaintChainsRenderAsCodeFlows) {
  LintReport report = Lint(
      {{"src/formats/stamp.h",
        "inline uint64_t NowStamp() {\n"
        "  return std::chrono::system_clock::now().time_since_epoch()\n"
        "      .count();\n"
        "}\n"},
       {"src/durability/commit_codec.cc",
        "void EncodeFrame(Buffer& b) { b.Add(NowStamp()); }\n"}});
  ASSERT_EQ(report.findings.size(), 1u) << Describe(report);
  std::string sarif = ReportToSarif(report);
  ExpectBalancedJson(sarif);
  EXPECT_NE(sarif.find("\"codeFlows\""), std::string::npos);
  EXPECT_NE(sarif.find("\"threadFlows\""), std::string::npos);
  // The chain's hops carry locations in both files.
  size_t flows = sarif.find("\"codeFlows\"");
  EXPECT_NE(sarif.find("src/formats/stamp.h", flows), std::string::npos);
  EXPECT_NE(sarif.find("src/durability/commit_codec.cc", flows),
            std::string::npos);
}

TEST(SarifTest, CleanReportHasEmptyResults) {
  std::string sarif = ReportToSarif(Lint({{"src/core/ok.cc", "int x;\n"}}));
  ExpectBalancedJson(sarif);
  EXPECT_NE(sarif.find("\"results\": []"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Warm-run cache
// ---------------------------------------------------------------------------

TEST(CacheTest, AnalyzedFileSurvivesSerializeParseRoundTrip) {
  // One fixture exercising every serialized facet: a per-file finding, a
  // suppressed finding, a taint source, call edges, a Status declaration
  // and a discarded call.
  AnalyzedFile original = AnalyzeSource(
      "src/core/a.cc",
      "Status Flush();\n"
      "void F() {\n"
      "  std::random_device rd;\n"
      "  Flush();\n"
      "  // dexa-lint: allow(wall-clock)\n"
      "  auto t = std::chrono::system_clock::now();\n"
      "  Use(t, rd);\n"
      "}\n");
  std::string record = SerializeAnalyzedFile(original);
  AnalyzedFile parsed;
  ASSERT_TRUE(ParseAnalyzedFile(record, parsed));

  EXPECT_EQ(parsed.path, original.path);
  EXPECT_EQ(parsed.layer, original.layer);
  EXPECT_EQ(parsed.content_hash, original.content_hash);
  EXPECT_EQ(parsed.suppressed, original.suppressed);
  EXPECT_EQ(parsed.status_functions, original.status_functions);
  EXPECT_EQ(parsed.ambiguous, original.ambiguous);
  EXPECT_EQ(parsed.file_suppressions, original.file_suppressions);
  EXPECT_EQ(parsed.line_suppressions, original.line_suppressions);
  ASSERT_EQ(parsed.discards.size(), original.discards.size());
  ASSERT_EQ(parsed.findings.size(), original.findings.size());
  for (size_t i = 0; i < parsed.findings.size(); ++i) {
    EXPECT_EQ(parsed.findings[i].rule, original.findings[i].rule);
    EXPECT_EQ(parsed.findings[i].line, original.findings[i].line);
    EXPECT_EQ(parsed.findings[i].message, original.findings[i].message);
  }
  ASSERT_EQ(parsed.index.functions.size(), original.index.functions.size());
  for (size_t i = 0; i < parsed.index.functions.size(); ++i) {
    EXPECT_EQ(parsed.index.functions[i].name,
              original.index.functions[i].name);
    EXPECT_EQ(parsed.index.functions[i].calls.size(),
              original.index.functions[i].calls.size());
    EXPECT_EQ(parsed.index.functions[i].sources.size(),
              original.index.functions[i].sources.size());
  }

  // The whole-program verdict is identical either way: the parsed summary
  // is a full substitute for re-analysis.
  EXPECT_EQ(ReportToJson(FinishAnalysis({original})),
            ReportToJson(FinishAnalysis({parsed})));
}

TEST(CacheTest, ParseRejectsGarbageAndForeignVersions) {
  AnalyzedFile out;
  EXPECT_FALSE(ParseAnalyzedFile("", out));
  EXPECT_FALSE(ParseAnalyzedFile("not a cache record\n", out));
  EXPECT_FALSE(ParseAnalyzedFile("dexa-lint-cache 999\npath src/a.cc\n", out));
}

TEST(CacheTest, WarmRunMatchesColdRunAndEditsInvalidate) {
  namespace fs = std::filesystem;
  const fs::path root =
      fs::path(::testing::TempDir()) / "dexa_lint_cache_test";
  fs::remove_all(root);
  fs::create_directories(root / "src" / "core");
  const std::string rel = "src/core/a.cc";
  auto write = [&](const std::string& text) {
    std::ofstream out(root / rel, std::ios::trunc);
    out << text;
  };
  write("void F() { std::random_device rd; Use(rd); }\n");

  const std::string cache = (root / "cache").string();
  LintStats cold_stats;
  LintReport cold = LintPaths(root.string(), {rel}, cache, &cold_stats);
  EXPECT_EQ(cold_stats.cache_misses, 1u);
  EXPECT_EQ(cold_stats.cache_hits, 0u);

  LintStats warm_stats;
  LintReport warm = LintPaths(root.string(), {rel}, cache, &warm_stats);
  EXPECT_EQ(warm_stats.cache_hits, 1u);
  EXPECT_EQ(warm_stats.cache_misses, 0u);
  EXPECT_EQ(ReportToJson(cold), ReportToJson(warm));
  ASSERT_EQ(warm.findings.size(), 1u) << Describe(warm);
  EXPECT_EQ(warm.findings[0].rule, "entropy");

  // An edit changes the content hash: the stale record must not be served.
  write("void F() { int x = rand(); Use(x); }\n");
  LintStats edited_stats;
  LintReport edited = LintPaths(root.string(), {rel}, cache, &edited_stats);
  EXPECT_EQ(edited_stats.cache_misses, 1u);
  ASSERT_EQ(edited.findings.size(), 1u) << Describe(edited);
  fs::remove_all(root);
}

// ---------------------------------------------------------------------------
// The live tree
// ---------------------------------------------------------------------------

TEST(LiveTreeTest, RepositoryLintsClean) {
  const std::string root = DEXA_SOURCE_DIR;
  std::vector<std::string> files = CollectSourceFiles(
      root, {"src", "tests", "bench", "tools", "examples"});
  ASSERT_GT(files.size(), 100u) << "source collection missed the tree";
  LintReport report = LintPaths(root, files);
  EXPECT_EQ(report.files_scanned, files.size());
  EXPECT_TRUE(report.findings.empty())
      << "the live tree must lint clean:\n"
      << Describe(report);
}

}  // namespace
}  // namespace dexa::lint
