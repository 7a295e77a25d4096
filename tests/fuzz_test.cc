// Robustness sweeps: every parser in the library must handle arbitrarily
// mutated input gracefully — returning OK or a ParseError/InvalidArgument,
// never crashing or looping. Seeds parameterize deterministic mutation
// streams over genuine rendered artifacts.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/rng.h"
#include "core/engine_config.h"
#include "core/run_api.h"
#include "corpus/behaviors.h"
#include "corpus/scale.h"
#include "durability/commit_codec.h"
#include "durability/journal.h"
#include "durability/trace_io.h"
#include "engine/concept_cache.h"
#include "formats/entity_records.h"
#include "formats/kegg_flat.h"
#include "formats/reports.h"
#include "formats/sequence_record.h"
#include "formats/sniffer.h"
#include "kb/knowledge_base.h"
#include "kb/render.h"
#include "kbimage/builder.h"
#include "kbimage/compiled_kb.h"
#include "modules/registry.h"
#include "modules/registry_io.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "ontology/ontology_parser.h"
#include "pool/pool_io.h"
#include "serve/wire.h"
#include "shard/manifest.h"
#include "tests/test_util.h"
#include "tools/lint/lint.h"
#include "workflow/workflow_io.h"

namespace dexa {
namespace {

using testing_env::GetEnvironment;

/// Applies `rounds` random edits (byte flip, deletion, duplication, line
/// swap) to `text`.
std::string Mutate(std::string text, Rng& rng, int rounds) {
  for (int r = 0; r < rounds && !text.empty(); ++r) {
    switch (rng.NextBelow(4)) {
      case 0: {  // Flip a byte to a printable character.
        size_t pos = rng.NextIndex(text.size());
        text[pos] = static_cast<char>(' ' + rng.NextBelow(95));
        break;
      }
      case 1: {  // Delete a span.
        size_t pos = rng.NextIndex(text.size());
        size_t len = 1 + rng.NextIndex(8);
        text.erase(pos, len);
        break;
      }
      case 2: {  // Duplicate a span.
        size_t pos = rng.NextIndex(text.size());
        size_t len = 1 + rng.NextIndex(8);
        text.insert(pos, text.substr(pos, len));
        break;
      }
      default: {  // Truncate the tail.
        text.resize(rng.NextIndex(text.size()) + 1);
        break;
      }
    }
  }
  return text;
}

/// A parse attempt is acceptable if it succeeds or fails with a
/// well-formed error status.
template <typename T>
void ExpectGraceful(const Result<T>& result) {
  if (!result.ok()) {
    EXPECT_FALSE(result.status().ToString().empty());
  }
}

class ParserFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserFuzzTest, SequenceFormatParsersNeverCrash) {
  const auto& env = GetEnvironment();
  Rng rng(GetParam());
  const KnowledgeBase& kb = *env.corpus.kb;
  for (int i = 0; i < 40; ++i) {
    const ProteinEntity& protein =
        kb.proteins()[rng.NextIndex(kb.proteins().size())];
    SequenceData data = SequenceDataFromProtein(protein);
    std::string rendered =
        RenderSequenceData(data, static_cast<SeqFormat>(rng.NextBelow(5)));
    std::string mutated = Mutate(rendered, rng, 1 + static_cast<int>(rng.NextBelow(10)));
    ExpectGraceful(ParseFasta(mutated));
    ExpectGraceful(ParseUniprot(mutated));
    ExpectGraceful(ParseEmbl(mutated));
    ExpectGraceful(ParseGenBank(mutated));
    ExpectGraceful(ParsePdb(mutated));
    ExpectGraceful(ParseSequenceRecordAny(mutated));
    SniffFormat(mutated);  // Must not crash.
  }
}

TEST_P(ParserFuzzTest, EntityRecordParsersNeverCrash) {
  const auto& env = GetEnvironment();
  Rng rng(GetParam());
  const KnowledgeBase& kb = *env.corpus.kb;
  for (int i = 0; i < 40; ++i) {
    auto record = RetrieveRecord(
        kb, static_cast<RecordKind>(rng.NextBelow(15)),
        kb.proteins()[0].accession);
    std::string base = record.ok() ? *record : "ENTRY       x\n///\n";
    std::string mutated = Mutate(base, rng, 1 + static_cast<int>(rng.NextBelow(10)));
    ExpectGraceful(ParseKeggFlat(mutated));
    ExpectGraceful(ParseGeneRecord(mutated));
    ExpectGraceful(ParseEnzymeRecord(mutated));
    ExpectGraceful(ParseGlycanRecord(mutated));
    ExpectGraceful(ParseCompoundRecord(mutated));
    ExpectGraceful(ParsePathwayRecord(mutated));
    ExpectGraceful(ParseGoTerm(mutated));
    ExpectGraceful(ParseInterProRecord(mutated));
    ExpectGraceful(ParsePfamRecord(mutated));
    ExpectGraceful(ParseDiseaseRecord(mutated));
    ExpectGraceful(ParseAlignmentReport(mutated));
    ExpectGraceful(ParseIdentificationReport(mutated));
    ExpectGraceful(ParseStatisticsReport(mutated));
  }
}

TEST_P(ParserFuzzTest, ValueParserNeverCrashes) {
  Rng rng(GetParam());
  Value sample = Value::RecordOf(
      {{"id", Value::Str("P00001")},
       {"xs", Value::ListOf({Value::Int(1), Value::Real(2.5),
                             Value::Str("a\"b\\c")})}});
  for (int i = 0; i < 200; ++i) {
    std::string mutated =
        Mutate(sample.ToString(), rng, 1 + static_cast<int>(rng.NextBelow(6)));
    ExpectGraceful(Value::Parse(mutated));
  }
  // Nesting far past kMaxNestingDepth is a ParseError, not a stack overflow.
  EXPECT_TRUE(Value::Parse(std::string(200000, '[')).status().IsParseError());
}

TEST_P(ParserFuzzTest, DslParsersNeverCrash) {
  const auto& env = GetEnvironment();
  Rng rng(GetParam());
  std::string ontology_dsl = env.corpus.ontology->ToDsl();
  std::string workflow_dsl = RenderWorkflowDsl(
      env.workflows.items[rng.NextIndex(env.workflows.items.size())].workflow,
      *env.corpus.ontology);
  std::string pool_dump = SavePool(*env.pool);
  for (int i = 0; i < 15; ++i) {
    int rounds = 1 + static_cast<int>(rng.NextBelow(12));
    ExpectGraceful(ParseOntologyDsl(Mutate(ontology_dsl, rng, rounds)));
    ExpectGraceful(
        ParseWorkflowDsl(Mutate(workflow_dsl, rng, rounds), *env.corpus.ontology));
    ExpectGraceful(LoadPool(Mutate(pool_dump, rng, rounds), *env.corpus.ontology));
    ExpectGraceful(ParseStructuralType(
        Mutate("Record{id:String, xs:List<Double>}", rng, rounds)));
  }
  std::string deep_type;
  for (int i = 0; i < 200000; ++i) deep_type += "List<";
  EXPECT_TRUE(ParseStructuralType(deep_type).status().IsParseError());
}

TEST_P(ParserFuzzTest, AnnotationLoaderNeverCrashes) {
  const auto& env = GetEnvironment();
  Rng rng(GetParam());
  // A small slice of the real annotation dump keeps the mutation space
  // interesting without re-parsing megabytes per round.
  std::string full =
      SaveAnnotations(*env.corpus.registry, *env.corpus.ontology);
  std::string slice = full.substr(0, 4000);
  auto fresh = BuildCorpus();
  ASSERT_TRUE(fresh.ok());
  for (int i = 0; i < 15; ++i) {
    std::string mutated =
        Mutate(slice, rng, 1 + static_cast<int>(rng.NextBelow(12)));
    ExpectGraceful(
        LoadAnnotations(mutated, *fresh->ontology, *fresh->registry));
  }
}

TEST_P(ParserFuzzTest, TraceLoaderNeverCrashes) {
  const auto& env = GetEnvironment();
  Rng rng(GetParam());
  std::string slice = SaveTraces(env.provenance).substr(0, 4000);
  for (int i = 0; i < 15; ++i) {
    ExpectGraceful(
        LoadTraces(Mutate(slice, rng, 1 + static_cast<int>(rng.NextBelow(12)))));
  }
}

TEST_P(ParserFuzzTest, JournalRecoveryNeverCrashes) {
  namespace fs = std::filesystem;
  Rng rng(GetParam());

  // One genuine multi-record journal segment as the mutation substrate.
  fs::path dir = fs::path(::testing::TempDir()) /
                 ("dexa_fuzz_journal_" + std::to_string(GetParam()));
  fs::remove_all(dir);
  auto journal = RunJournal::Create(dir.string());
  ASSERT_TRUE(journal.ok()) << journal.status();
  std::vector<std::string> payloads;
  for (int i = 0; i < 12; ++i) {
    payloads.push_back("record-" + std::to_string(i) +
                       std::string(1 + rng.NextIndex(120), 'j'));
    ASSERT_TRUE(journal->Append(payloads.back()).ok());
  }
  ASSERT_TRUE(journal->Seal().ok());
  const fs::path segment = dir / "wal-00000.seg";
  std::string pristine;
  {
    std::ifstream in(segment, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    pristine = std::move(buffer).str();
  }

  for (int i = 0; i < 40; ++i) {
    std::string mutated =
        Mutate(pristine, rng, 1 + static_cast<int>(rng.NextBelow(10)));

    // The scanner never crashes: it returns OK or kCorrupted, and whatever
    // it salvages is a prefix of the original records (the CRC32 framing
    // rejects every damaged record).
    SegmentScan scan = ScanSegment(mutated);
    EXPECT_TRUE(scan.status.ok() || scan.status.IsCorrupted())
        << scan.status;
    ASSERT_LE(scan.records.size(), payloads.size());
    for (size_t k = 0; k < scan.records.size(); ++k) {
      EXPECT_EQ(scan.records[k], payloads[k]);
    }

    // Full on-disk recovery over the damaged segment agrees with the scan
    // and flags the discarded tail.
    {
      std::ofstream out(segment, std::ios::binary | std::ios::trunc);
      out << mutated;
    }
    auto recovery = RecoverJournal(dir.string());
    ASSERT_TRUE(recovery.ok()) << recovery.status();
    EXPECT_TRUE(recovery->tail_status.ok() ||
                recovery->tail_status.IsCorrupted())
        << recovery->tail_status;
    EXPECT_EQ(recovery->records.size(), scan.records.size());
    EXPECT_EQ(recovery->tail_discarded(), !scan.status.ok());
  }
}

/// Real payloads of the four journal record kinds: the records of a durable
/// annotate over a 96-module scale corpus, and of a durable enactment of a
/// corpus workflow. Each list starts with its run header.
struct CommitCodecSubstrate {
  ScaleCorpus corpus;
  std::vector<std::string> annotate;
  std::vector<std::string> enact;
};

/// The records of the journal in `dir`.
std::vector<std::string> JournalRecords(const std::string& dir) {
  auto recovery = RecoverJournal(dir);
  EXPECT_TRUE(recovery.ok()) << recovery.status();
  return recovery.ok() ? std::move(recovery->records)
                       : std::vector<std::string>{};
}

const CommitCodecSubstrate& CodecSubstrate() {
  static const CommitCodecSubstrate* substrate = [] {
    namespace fs = std::filesystem;
    auto out = std::make_unique<CommitCodecSubstrate>();
    const fs::path root = fs::path(::testing::TempDir()) / "dexa_fuzz_codec";
    fs::remove_all(root);

    auto corpus = BuildScaleCorpus({/*seed=*/7, /*modules=*/96});
    EXPECT_TRUE(corpus.ok()) << corpus.status();
    out->corpus = std::move(corpus).value();
    EngineConfig config = EngineConfig().Threads(1);
    auto engine = config.BuildEngine();
    auto cache = std::make_shared<ConceptCache>(out->corpus.ontology.get(),
                                                &engine->metrics());
    ExampleGenerator generator =
        config.MakeGenerator(cache, out->corpus.pool.get(), engine.get());
    const std::string annotate_dir = (root / "annotate").string();
    {
      auto journal = RunJournal::Create(annotate_dir);
      EXPECT_TRUE(journal.ok()) << journal.status();
      auto run = SubmitRun(MakeDurableAnnotateRun(
          generator, *out->corpus.registry, *out->corpus.ontology, *journal));
      EXPECT_TRUE(run.ok() && run->complete());
    }
    out->annotate = JournalRecords(annotate_dir);

    const auto& env = GetEnvironment();
    const std::string enact_dir = (root / "enact").string();
    for (const GeneratedWorkflow& item : env.workflows.items) {
      if (item.workflow.processors.size() < 3 ||
          !IsEnactable(item.workflow, *env.corpus.registry)) {
        continue;
      }
      auto journal = RunJournal::Create(enact_dir);
      EXPECT_TRUE(journal.ok()) << journal.status();
      InvocationEngine enact_engine;
      auto run = SubmitRun(MakeDurableEnactRun(
          item.workflow, *env.corpus.registry, item.seeds, enact_engine,
          *journal));
      EXPECT_TRUE(run.ok()) << run.status();
      break;
    }
    out->enact = JournalRecords(enact_dir);
    return out.release();
  }();
  return *substrate;
}

/// Decoding `payload` either fails with kParseError or yields a record
/// whose encoding decodes back to that same encoding.
template <typename Encode, typename Decode>
void ExpectParseErrorOrFixedPoint(std::string_view payload, Encode encode,
                                  Decode decode) {
  auto decoded = decode(payload);
  if (!decoded.ok()) {
    EXPECT_TRUE(decoded.status().IsParseError()) << decoded.status();
    return;
  }
  const std::string encoded = encode(*decoded);
  auto again = decode(encoded);
  ASSERT_TRUE(again.ok()) << again.status() << " decoding " << encoded;
  EXPECT_EQ(encode(*again), encoded);
}

TEST_P(ParserFuzzTest, CommitCodecNeverCrashes) {
  const CommitCodecSubstrate& substrate = CodecSubstrate();
  const Ontology& ontology = *substrate.corpus.ontology;
  ASSERT_EQ(substrate.annotate.size(), 97u);
  ASSERT_GE(substrate.enact.size(), 3u);  // Header and two steps or more.
  Rng rng(GetParam());
  auto encode_commit = [&](const ModuleCommit& commit) {
    return EncodeModuleCommit(commit, ontology);
  };
  auto decode_commit = [&](std::string_view payload) {
    return DecodeModuleCommit(payload, ontology);
  };
  auto pick_commit = [&](const std::vector<std::string>& records) {
    return records[1 + rng.NextIndex(records.size() - 1)];
  };

  for (int i = 0; i < 100; ++i) {
    const int rounds = 1 + static_cast<int>(rng.NextBelow(8));
    ExpectParseErrorOrFixedPoint(Mutate(substrate.annotate[0], rng, rounds),
                                 EncodeAnnotateRunHeader,
                                 DecodeAnnotateRunHeader);
    ExpectParseErrorOrFixedPoint(
        Mutate(pick_commit(substrate.annotate), rng, rounds), encode_commit,
        decode_commit);
    ExpectParseErrorOrFixedPoint(Mutate(substrate.enact[0], rng, rounds),
                                 EncodeEnactRunHeader, DecodeEnactRunHeader);
    ExpectParseErrorOrFixedPoint(
        Mutate(pick_commit(substrate.enact), rng, rounds), EncodeStepCommit,
        DecodeStepCommit);
  }

  // Raw random bytes behind a genuine kind line.
  for (int i = 0; i < 100; ++i) {
    std::string garbage(rng.NextIndex(200), '\0');
    for (char& byte : garbage) byte = static_cast<char>(rng.NextBelow(256));
    ExpectParseErrorOrFixedPoint("commit module\n" + garbage, encode_commit,
                                 decode_commit);
    ExpectParseErrorOrFixedPoint("commit step\n" + garbage, EncodeStepCommit,
                                 DecodeStepCommit);
  }
}

TEST_P(ParserFuzzTest, LintLexerNeverCrashes) {
  Rng rng(GetParam());

  // Genuine C++ as the mutation substrate: this very file, which holds
  // comments, raw strings, preprocessor lines and string literals.
  std::ifstream self(std::string(DEXA_SOURCE_DIR) + "/tests/fuzz_test.cc",
                     std::ios::binary);
  std::ostringstream buffer;
  buffer << self.rdbuf();
  const std::string pristine = std::move(buffer).str();
  ASSERT_FALSE(pristine.empty());

  for (int i = 0; i < 60; ++i) {
    std::string mutated =
        Mutate(pristine, rng, 1 + static_cast<int>(rng.NextBelow(40)));
    // Splice in hostile fragments the text mutator rarely produces:
    // truncated UTF-8, unterminated literals, NUL bytes, half directives,
    // and declarator soup aimed at the symbol indexer (dangling scope
    // qualifiers, unclosed class heads, template debris, orphan braces).
    static const std::vector<std::string> kHostile = {
        "\xC3",     "\xE2\x82", "R\"(",        "R\"verylongdelimiter",
        "\"unterm", "'x",       "#include \"", "/*",
        "//\\\n",   std::string("\x00\x01\x7f", 3),
        "#define A(", "::::",
        "A::B::",   "class {",  "struct X : ", "template <typename",
        "namespace {", "operator()(", ") { { {", "} } )",
        "for (auto& x :", "Out::Of::Line::F() {"};
    size_t pos = rng.NextIndex(mutated.size() + 1);
    mutated.insert(pos, kHostile[rng.NextBelow(kHostile.size())]);

    // The contract: arbitrary byte soup lexes to *something* — no crash,
    // no hang, token lines stay positive and monotonically plausible.
    lint::LexedSource lex = lint::LexSource(mutated);
    for (const lint::Token& t : lex.tokens) {
      EXPECT_GE(t.line, 1);
      EXPECT_FALSE(t.text.empty());
    }
    // And the full pipeline over garbage — per-file rules, symbol index,
    // call graph, taint propagation — must be equally unkillable.
    lint::AnalyzedFile summary =
        lint::AnalyzeSource("src/core/fuzzed.cc", mutated);
    lint::LintReport report = lint::FinishAnalysis({summary});
    EXPECT_EQ(report.files_scanned, 1u);

    // So must the warm-cache record codec: a damaged record either fails
    // to parse or parses into a summary the whole-program passes digest.
    std::string record = lint::SerializeAnalyzedFile(summary);
    std::string damaged =
        Mutate(record, rng, 1 + static_cast<int>(rng.NextBelow(12)));
    lint::AnalyzedFile reparsed;
    if (lint::ParseAnalyzedFile(damaged, reparsed)) {
      lint::FinishAnalysis({reparsed});
    }
  }
}

/// One genuine span tree (counters, a replayed span, characters the JSON
/// writer must escape) as the mutation substrate for the export fuzzers.
std::string SampleTraceExport() {
  obs::Tracer tracer;
  obs::ScopedSpan run(&tracer, obs::SpanKind::kRun, "fuzz \"run\"\t\\");
  for (int i = 0; i < 6; ++i) {
    obs::ScopedSpan batch(&tracer, obs::SpanKind::kBatch,
                          "m" + std::to_string(i), run.id());
    if (i % 2 == 0) batch.MarkReplayed();
    batch.Counter("examples", static_cast<uint64_t>(i));
  }
  run.Counter("commits", 6);
  run.End();
  return obs::WriteChromeTrace(tracer);
}

TEST_P(ParserFuzzTest, TraceExportReaderNeverCrashes) {
  Rng rng(GetParam());
  const std::string pristine = SampleTraceExport();

  // The pristine export round-trips.
  auto clean = obs::ReadChromeTrace(pristine);
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_EQ(clean->spans.size(), 7u);
  EXPECT_EQ(clean->spans[0].name, "fuzz \"run\"\t\\");

  // Arbitrary damage: the reader returns OK or typed kCorrupted — no
  // crash, no hang, no other error class (the export is machine-written,
  // so malformed means damaged). Mirrors JournalRecoveryNeverCrashes.
  for (int i = 0; i < 60; ++i) {
    std::string mutated =
        Mutate(pristine, rng, 1 + static_cast<int>(rng.NextBelow(10)));
    auto parsed = obs::ReadChromeTrace(mutated);
    if (!parsed.ok()) {
      EXPECT_TRUE(parsed.status().IsCorrupted()) << parsed.status();
    }
  }

  // A single interior bit flip always breaks the checksum seal.
  for (int i = 0; i < 40; ++i) {
    std::string flipped = pristine;
    flipped[rng.NextIndex(flipped.size() - 1)] ^=
        static_cast<char>(1 + rng.NextBelow(127));
    EXPECT_TRUE(obs::ReadChromeTrace(flipped).status().IsCorrupted());
  }

  // Every strict prefix is rejected as corrupted, never half-parsed.
  for (size_t cut :
       {size_t{0}, size_t{1}, pristine.size() / 2, pristine.size() - 1}) {
    EXPECT_TRUE(
        obs::ReadChromeTrace(pristine.substr(0, cut)).status().IsCorrupted())
        << "prefix of " << cut << " bytes accepted";
  }
}

TEST_P(ParserFuzzTest, MetricsExportReaderNeverCrashes) {
  Rng rng(GetParam());
  // Both sections' counters, the error-rate gauge, and the examples
  // histogram with one bucketed and one overflow observation.
  EngineMetricsSnapshot counters;
  counters.commits = 42;
  counters.cache_hits = 7;
  counters.invocations = 810;
  counters.invocation_errors = 1;
  obs::Tracer tracer;
  {
    obs::ScopedSpan run(&tracer, obs::SpanKind::kRun, "run");
    for (uint64_t examples : {3, 200}) {
      obs::ScopedSpan batch(&tracer, obs::SpanKind::kBatch, "m", run.id());
      batch.Counter("examples", examples);
    }
  }
  const std::string pristine = obs::WriteMetricsJson(counters, &tracer);

  auto clean = obs::ReadMetricsJson(pristine);
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_EQ(clean->stable_counters.at("engine.commits"), 42u);

  for (int i = 0; i < 60; ++i) {
    std::string mutated =
        Mutate(pristine, rng, 1 + static_cast<int>(rng.NextBelow(10)));
    auto parsed = obs::ReadMetricsJson(mutated);
    if (!parsed.ok()) {
      EXPECT_TRUE(parsed.status().IsCorrupted()) << parsed.status();
    }
  }

  for (int i = 0; i < 40; ++i) {
    std::string flipped = pristine;
    flipped[rng.NextIndex(flipped.size() - 1)] ^=
        static_cast<char>(1 + rng.NextBelow(127));
    EXPECT_TRUE(obs::ReadMetricsJson(flipped).status().IsCorrupted());
  }
  for (size_t cut :
       {size_t{0}, size_t{1}, pristine.size() / 2, pristine.size() - 1}) {
    EXPECT_TRUE(
        obs::ReadMetricsJson(pristine.substr(0, cut)).status().IsCorrupted())
        << "prefix of " << cut << " bytes accepted";
  }

  // The readers are not interchangeable: each rejects the other's schema.
  EXPECT_TRUE(obs::ReadMetricsJson(SampleTraceExport()).status().IsCorrupted());
  EXPECT_TRUE(obs::ReadChromeTrace(pristine).status().IsCorrupted());
}

TEST_P(ParserFuzzTest, WireCodecNeverCrashes) {
  Rng rng(GetParam());

  // Genuine protocol lines as the mutation substrate — every op the daemon
  // dispatches, including the fault-injection and deadline fields.
  const std::vector<std::string> pristine = {
      "{\"op\":\"submit\",\"kind\":\"annotate\",\"offset\":\"0\","
      "\"count\":\"8\",\"tenant\":\"alice\",\"traced\":\"1\"}",
      "{\"op\":\"submit\",\"kind\":\"enact_durable\",\"workflow\":\"3\","
      "\"io_enospc_after\":\"4096\",\"io_seed\":\"99\","
      "\"deadline_ns\":\"5000000\"}",
      "{\"op\":\"status\",\"id\":\"17\"}",
      "{\"op\":\"health\"}",
  };

  // The pristine lines round-trip byte-stably through the codec.
  for (const std::string& line : pristine) {
    auto parsed = serve::ParseWire(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    auto again = serve::ParseWire(serve::EncodeWire(*parsed));
    ASSERT_TRUE(again.ok()) << again.status();
    EXPECT_EQ(*again, *parsed);
  }

  // Truncated/mutated valid request lines: parse success (and the result
  // re-encodes stably) or a typed ParseError — never a crash or a hang.
  for (int i = 0; i < 200; ++i) {
    std::string mutated = Mutate(pristine[rng.NextIndex(pristine.size())],
                                 rng, 1 + static_cast<int>(rng.NextBelow(8)));
    auto parsed = serve::ParseWire(mutated);
    if (parsed.ok()) {
      auto again = serve::ParseWire(serve::EncodeWire(*parsed));
      ASSERT_TRUE(again.ok()) << again.status();
      EXPECT_EQ(*again, *parsed);
    } else {
      EXPECT_TRUE(parsed.status().IsParseError()) << parsed.status();
    }
  }

  // Raw random bytes — NULs, high bits, broken escapes included.
  for (int i = 0; i < 200; ++i) {
    std::string garbage(rng.NextIndex(160), '\0');
    for (char& byte : garbage) {
      byte = static_cast<char>(rng.NextBelow(256));
    }
    auto parsed = serve::ParseWire(garbage);
    if (!parsed.ok()) {
      EXPECT_TRUE(parsed.status().IsParseError()) << parsed.status();
    }
  }
}

TEST_P(ParserFuzzTest, JsonParserNeverCrashes) {
  Rng rng(GetParam());
  const std::vector<std::string> documents = {
      SampleTraceExport(),
      "{\"op\":\"submit\",\"offset\":\"0\",\"count\":8,\"traced\":true}",
      "[[[{\"a\":[null,false,-1,\"\\u0041\\n\\/\"]},{}],[]]]",
  };
  // ParseJson returns a value or a ParseError: never a crash or a hang.
  auto expect_graceful = [](const std::string& text) {
    auto parsed = ParseJson(text);
    if (!parsed.ok()) {
      EXPECT_TRUE(parsed.status().IsParseError()) << parsed.status();
    }
  };
  for (const std::string& document : documents) {
    ASSERT_TRUE(ParseJson(document).ok()) << document;
  }
  for (int i = 0; i < 200; ++i) {
    expect_graceful(Mutate(documents[rng.NextIndex(documents.size())], rng,
                           1 + static_cast<int>(rng.NextBelow(8))));
  }

  // Random bytes, half of them JSON punctuation so parses get past the
  // first token.
  static constexpr char kPunctuation[] = "{}[]\",:\\u0123456789-tfn \t";
  for (int i = 0; i < 200; ++i) {
    std::string garbage(rng.NextIndex(160), '\0');
    for (char& byte : garbage) {
      byte = rng.NextBelow(2) == 0
                 ? kPunctuation[rng.NextIndex(sizeof(kPunctuation) - 1)]
                 : static_cast<char>(rng.NextBelow(256));
    }
    expect_graceful(garbage);
  }

  // Nesting far past kMaxNestingDepth.
  EXPECT_TRUE(ParseJson(std::string(200000, '[')).status().IsParseError());
}

TEST_P(ParserFuzzTest, KbImageLoaderNeverCrashes) {
  namespace fs = std::filesystem;
  Rng rng(GetParam());

  // One genuine compiled image as the mutation substrate: a small random
  // ontology plus a scaled-down knowledge base.
  Ontology ontology{"fuzz"};
  ASSERT_TRUE(ontology.AddRoot("Thing").ok());
  ASSERT_TRUE(ontology.AddConcept("A", {"Thing"}, true).ok());
  ASSERT_TRUE(ontology.AddConcept("B", {"Thing"}).ok());
  ASSERT_TRUE(ontology.AddConcept("AB", {"A", "B"}).ok());
  KnowledgeBaseOptions kb_options;
  kb_options.num_proteins = 12;
  kb_options.num_go_terms = 6;
  kb_options.num_documents = 4;
  KnowledgeBase kb(GetParam(), kb_options);
  auto pristine = kbimage::CompileKbImage(ontology, kb);
  ASSERT_TRUE(pristine.ok()) << pristine.status();

  const fs::path path =
      fs::path(::testing::TempDir()) /
      ("dexa_fuzz_kbimage_" + std::to_string(GetParam()) + ".img");
  auto write = [&path](const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };

  // Arbitrary mutations (byte flips, deletions, duplications, swaps):
  // Load either succeeds on an untouched image or fails with a typed
  // kCorrupted — never a crash, never undefined behavior.
  for (int i = 0; i < 40; ++i) {
    std::string mutated =
        Mutate(*pristine, rng, 1 + static_cast<int>(rng.NextBelow(10)));
    write(mutated);
    auto image = kbimage::CompiledKb::Load(path.string());
    if (mutated == *pristine) {
      EXPECT_TRUE(image.ok()) << image.status();
    } else {
      ASSERT_FALSE(image.ok());
      EXPECT_TRUE(image.status().IsCorrupted()) << image.status();
    }
  }

  // Single-bit flips and truncations (the ISSUE's damage ladder) are
  // always detected by the seal, the CRCs, or the structural bounds.
  for (int i = 0; i < 40; ++i) {
    std::string flipped = *pristine;
    flipped[rng.NextIndex(flipped.size())] ^=
        static_cast<char>(1 << rng.NextBelow(8));
    if (flipped == *pristine) continue;
    write(flipped);
    EXPECT_TRUE(
        kbimage::CompiledKb::Load(path.string()).status().IsCorrupted());
  }
  for (int i = 0; i < 12; ++i) {
    write(pristine->substr(0, rng.NextIndex(pristine->size())));
    EXPECT_TRUE(
        kbimage::CompiledKb::Load(path.string()).status().IsCorrupted());
  }
  fs::remove(path);
}

TEST_P(ParserFuzzTest, ShardManifestCodecNeverCrashes) {
  Rng rng(GetParam());

  // A genuine manifest as the mutation substrate.
  ShardManifest manifest;
  manifest.shards = 4;
  manifest.modules_total = 96;
  manifest.fingerprint = 0x9E3779B97F4A7C15ull;
  manifest.kb_checksum = 0xB5297A4D;
  manifest.partition_salt = 0x5A17;
  manifest.segment_bytes = 64 * 1024;
  manifest.entries = {{25, 11}, {22, 12}, {30, 13}, {19, 14}};
  const std::string pristine = EncodeShardManifest(manifest);
  {
    auto decoded = DecodeShardManifest(pristine);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(EncodeShardManifest(*decoded), pristine);
  }

  // Arbitrary mutations: decode either succeeds — in which case the
  // canonical re-encode is a byte fixed point — or fails with a typed
  // kCorrupted. Never UB, never a crash, never an accepted manifest whose
  // re-encode drifts.
  for (int i = 0; i < 200; ++i) {
    std::string mutated =
        Mutate(pristine, rng, 1 + static_cast<int>(rng.NextBelow(10)));
    auto decoded = DecodeShardManifest(mutated);
    if (decoded.ok()) {
      const std::string encoded = EncodeShardManifest(*decoded);
      auto again = DecodeShardManifest(encoded);
      ASSERT_TRUE(again.ok()) << again.status();
      EXPECT_EQ(EncodeShardManifest(*again), encoded);
    } else {
      EXPECT_TRUE(decoded.status().IsCorrupted()) << decoded.status();
    }
  }

  // Every proper-prefix truncation is rejected (the format ends with an
  // explicit terminator line, so a cut manifest can never look complete).
  for (int i = 0; i < 40; ++i) {
    auto truncated = DecodeShardManifest(
        std::string_view(pristine).substr(0, rng.NextIndex(pristine.size())));
    ASSERT_FALSE(truncated.ok());
    EXPECT_TRUE(truncated.status().IsCorrupted()) << truncated.status();
  }

  // Raw random bytes.
  for (int i = 0; i < 100; ++i) {
    std::string garbage(rng.NextIndex(200), '\0');
    for (char& byte : garbage) {
      byte = static_cast<char>(rng.NextBelow(256));
    }
    auto decoded = DecodeShardManifest(garbage);
    if (!decoded.ok()) {
      EXPECT_TRUE(decoded.status().IsCorrupted()) << decoded.status();
    }
  }
}

/// Lists and records open at once in `value` (0 for a scalar).
int NestingDepth(const Value& value) {
  int deepest = 0;
  if (value.is_list()) {
    for (const Value& item : value.AsList()) {
      deepest = std::max(deepest, NestingDepth(item));
    }
  } else if (value.is_record()) {
    for (const auto& field : value.AsRecord()) {
      deepest = std::max(deepest, NestingDepth(field.second));
    }
  } else {
    return 0;
  }
  return deepest + 1;
}

/// List and Record types open at once in `type` (0 for a scalar type).
int NestingDepth(const StructuralType& type) {
  if (type.kind() == TypeKind::kList) return NestingDepth(type.element()) + 1;
  if (type.kind() != TypeKind::kRecord) return 0;
  int deepest = 0;
  for (const auto& field : type.fields()) {
    deepest = std::max(deepest, NestingDepth(field.second));
  }
  return deepest + 1;
}

// The depth cap of Value::Parse and ParseStructuralType must never bite on
// real data: every parameter type, pool instance and data example of the
// corpus nests far below it.
TEST(ParserDepthTest, CorpusNestsFarBelowTheCap) {
  const auto& env = GetEnvironment();
  int deepest_type = 0;
  int deepest_value = 0;
  for (const ModulePtr& module : env.corpus.registry->AllModules()) {
    for (const auto* params : {&module->spec().inputs, &module->spec().outputs}) {
      for (const Parameter& param : *params) {
        deepest_type =
            std::max(deepest_type, NestingDepth(param.structural_type));
      }
    }
    for (const DataExample& example :
         env.corpus.registry->DataExamplesOf(module->spec().id)) {
      for (const auto* values : {&example.inputs, &example.outputs}) {
        for (const Value& value : *values) {
          deepest_value = std::max(deepest_value, NestingDepth(value));
        }
      }
    }
  }
  for (ConceptId concept_id : env.corpus.ontology->AllConcepts()) {
    for (const Value& value : env.pool->InstancesOf(concept_id)) {
      deepest_value = std::max(deepest_value, NestingDepth(value));
    }
  }
  EXPECT_GE(deepest_type, 1);  // The walk reached List/Record types.
  EXPECT_LE(deepest_type, kMaxNestingDepth / 8);
  EXPECT_LE(deepest_value, kMaxNestingDepth / 8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

}  // namespace
}  // namespace dexa
