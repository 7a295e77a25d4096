// Oracle-equivalence and damage-ladder suite for the compiled KB
// (src/kbimage/). The contract under test: a CompiledKb — mapped from an
// image file (Load) or compiled in memory (Compile) — answers every
// reasoning query (subsumption, descendants, partitions, LCS, depth,
// names, covered flags) identically to the Ontology's own DFS, over the
// real myGrid ontology AND randomized ontologies wide enough for
// multi-word bitset rows; and any damaged image fails Load with a typed
// kCorrupted, never undefined behavior.

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/concept_cache.h"
#include "kb/knowledge_base.h"
#include "kbimage/builder.h"
#include "kbimage/compiled_kb.h"
#include "kbimage/format.h"
#include "ontology/mygrid.h"
#include "ontology/ontology.h"

namespace dexa {
namespace {

namespace fs = std::filesystem;

/// A tiny KB keeps compile+load fast; entity content is irrelevant to the
/// reasoning-equivalence property.
KnowledgeBaseOptions SmallKbOptions() {
  KnowledgeBaseOptions options;
  options.num_proteins = 24;
  options.num_pathways = 6;
  options.num_go_terms = 12;
  options.num_enzymes = 6;
  options.num_glycans = 4;
  options.num_ligands = 4;
  options.num_compounds = 8;
  options.num_diseases = 4;
  options.num_interpro = 4;
  options.num_pfam = 4;
  options.num_documents = 8;
  return options;
}

fs::path TempPath(const std::string& name) {
  return fs::temp_directory_path() / ("dexa_kbimage_test_" + name);
}

std::string CompileToFileAndRead(const Ontology& ontology,
                                 const KnowledgeBase& kb,
                                 const fs::path& path) {
  Status written = kbimage::WriteKbImage(ontology, kb, path.string());
  EXPECT_TRUE(written.ok()) << written;
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

std::vector<ConceptId> Ids(std::span<const ConceptId> ids) {
  return {ids.begin(), ids.end()};
}

/// Asserts every query of each of `kbs` agrees with the Ontology's DFS
/// (the oracle), across all concepts and all concept pairs.
void ExpectAgreesWithOntology(
    const Ontology& ontology,
    std::initializer_list<const kbimage::CompiledKb*> kbs) {
  const ConceptId n = static_cast<ConceptId>(ontology.size());
  for (const kbimage::CompiledKb* kb : kbs) {
    ASSERT_EQ(kb->ConceptCount(), ontology.size());
    EXPECT_EQ(kb->FindConcept("NoSuchConceptAnywhere"), kInvalidConcept);
  }
  for (ConceptId c = 0; c < n; ++c) {
    const std::vector<ConceptId> descendants = ontology.Descendants(c);
    const std::vector<ConceptId> partitions = ontology.Partitions(c);
    for (const kbimage::CompiledKb* kb : kbs) {
      EXPECT_EQ(kb->ConceptName(c), ontology.NameOf(c)) << "id " << c;
      EXPECT_EQ(kb->FindConcept(ontology.NameOf(c)), c);
      EXPECT_EQ(kb->Covered(c), ontology.Get(c).covered) << "id " << c;
      EXPECT_EQ(kb->Depth(c), ontology.Depth(c)) << "id " << c;
      EXPECT_EQ(Ids(kb->Descendants(c)), descendants) << "id " << c;
      EXPECT_EQ(Ids(kb->Partitions(c)), partitions) << "id " << c;
    }
  }
  for (ConceptId a = 0; a < n; ++a) {
    for (ConceptId b = 0; b < n; ++b) {
      const bool subsumed = ontology.IsSubsumedBy(a, b);
      const ConceptId lcs = ontology.LeastCommonSubsumer(a, b);
      for (const kbimage::CompiledKb* kb : kbs) {
        EXPECT_EQ(kb->IsSubsumedBy(a, b), subsumed) << "a=" << a << " b=" << b;
        EXPECT_EQ(kb->LeastCommonSubsumer(a, b), lcs)
            << "a=" << a << " b=" << b;
      }
    }
  }
}

/// Builds a randomized multi-parent DAG ontology: `size` concepts, each
/// non-root attached to 1-3 uniformly random earlier concepts, random
/// covered flags. Insertion order assigns ids, matching the image's
/// dense-id contract.
Ontology RandomOntology(uint64_t seed, int size) {
  Rng rng(seed);
  Ontology ontology{"random_" + std::to_string(seed)};
  std::vector<std::string> names;
  names.reserve(static_cast<size_t>(size));
  const int roots = 1 + static_cast<int>(rng.NextBelow(3));
  for (int c = 0; c < size; ++c) {
    std::string name = "C" + std::to_string(c);
    if (c < roots) {
      auto id = ontology.AddRoot(name, rng.NextBool(0.3));
      EXPECT_TRUE(id.ok()) << id.status();
    } else {
      std::vector<std::string> parents;
      const int arity = 1 + static_cast<int>(rng.NextBelow(3));
      for (int p = 0; p < arity; ++p) {
        const std::string& parent = names[rng.NextIndex(names.size())];
        bool duplicate = false;
        for (const std::string& existing : parents) {
          if (existing == parent) duplicate = true;
        }
        if (!duplicate) parents.push_back(parent);
      }
      auto id = ontology.AddConcept(name, parents, rng.NextBool(0.3));
      EXPECT_TRUE(id.ok()) << id.status();
    }
    names.push_back(std::move(name));
  }
  return ontology;
}

TEST(KbImageTest, MyGridAgreesWithOntology) {
  Ontology ontology = BuildMyGridOntology();
  KnowledgeBase kb(7, SmallKbOptions());
  const fs::path path = TempPath("mygrid.img");
  std::string bytes = CompileToFileAndRead(ontology, kb, path);
  ASSERT_FALSE(bytes.empty());

  auto image = kbimage::CompiledKb::Load(path.string());
  ASSERT_TRUE(image.ok()) << image.status();
  EXPECT_NE((*image)->checksum(), 0u);
  EXPECT_EQ((*image)->kb_seed(), 7u);
  EXPECT_EQ((*image)->ontology_name(), ontology.name());
  auto compiled = kbimage::CompiledKb::Compile(ontology);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  EXPECT_EQ((*compiled)->ontology_name(), ontology.name());
  ExpectAgreesWithOntology(ontology, {image->get(), compiled->get()});
  fs::remove(path);
}

TEST(KbImageTest, RandomizedAgreesWithOntology) {
  // Sizes cycle through one-, two- and three-word subsumption rows (12-59,
  // 72-119 and 132-179 concepts), so the multi-word bitset and LCS paths
  // are exercised too.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng sizer(seed * 977);
    const int size = 12 + static_cast<int>(sizer.NextBelow(48)) +
                     60 * static_cast<int>(seed % 3);
    Ontology ontology = RandomOntology(seed, size);
    KnowledgeBase kb(seed, SmallKbOptions());
    const fs::path path =
        TempPath("random_" + std::to_string(seed) + ".img");
    CompileToFileAndRead(ontology, kb, path);
    auto image = kbimage::CompiledKb::Load(path.string());
    ASSERT_TRUE(image.ok()) << "seed " << seed << ": " << image.status();
    auto compiled = kbimage::CompiledKb::Compile(ontology);
    ASSERT_TRUE(compiled.ok()) << "seed " << seed << ": " << compiled.status();
    ExpectAgreesWithOntology(ontology, {image->get(), compiled->get()});
    fs::remove(path);
  }
}

TEST(KbImageTest, CompileRefusesEmptyOntology) {
  auto compiled = kbimage::CompiledKb::Compile(Ontology{"empty"});
  ASSERT_FALSE(compiled.ok());
  EXPECT_TRUE(compiled.status().IsInvalidArgument()) << compiled.status();
}

TEST(KbImageTest, ConceptCacheAgreesAcrossBackends) {
  Ontology ontology = BuildMyGridOntology();
  KnowledgeBase kb(7, SmallKbOptions());
  const fs::path path = TempPath("cache.img");
  CompileToFileAndRead(ontology, kb, path);
  auto image = kbimage::CompiledKb::Load(path.string());
  ASSERT_TRUE(image.ok()) << image.status();

  std::shared_ptr<const kbimage::CompiledKb> shared(std::move(*image));
  ConceptCache image_cache(shared);
  ConceptCache compiled_cache(&ontology);
  const ConceptId n = static_cast<ConceptId>(ontology.size());
  for (ConceptId a = 0; a < n; ++a) {
    const std::vector<ConceptId> partitions = ontology.Partitions(a);
    const std::vector<ConceptId> descendants = ontology.Descendants(a);
    for (const ConceptCache* cache : {&image_cache, &compiled_cache}) {
      EXPECT_EQ(Ids(cache->Partitions(a)), partitions);
      EXPECT_EQ(Ids(cache->Descendants(a)), descendants);
    }
    for (ConceptId b = 0; b < n; ++b) {
      const bool subsumed = ontology.IsSubsumedBy(a, b);
      const bool comparable = ontology.Comparable(a, b);
      const ConceptId lcs = ontology.LeastCommonSubsumer(a, b);
      for (const ConceptCache* cache : {&image_cache, &compiled_cache}) {
        EXPECT_EQ(cache->IsSubsumedBy(a, b), subsumed);
        EXPECT_EQ(cache->Comparable(a, b), comparable);
        EXPECT_EQ(cache->LeastCommonSubsumer(a, b), lcs);
      }
    }
  }
  fs::remove(path);
}

TEST(KbImageTest, CompilationIsDeterministic) {
  Ontology ontology = BuildMyGridOntology();
  KnowledgeBase kb(7, SmallKbOptions());
  auto first = kbimage::CompileKbImage(ontology, kb);
  auto second = kbimage::CompileKbImage(ontology, kb);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(*first, *second);
}

TEST(KbImageTest, MaterializedOntologyRecompilesIdentically) {
  Ontology ontology = BuildMyGridOntology();
  KnowledgeBase kb(7, SmallKbOptions());
  const fs::path path = TempPath("roundtrip.img");
  std::string original = CompileToFileAndRead(ontology, kb, path);

  auto image = kbimage::CompiledKb::Load(path.string());
  ASSERT_TRUE(image.ok()) << image.status();
  auto materialized_ontology = (*image)->MaterializeOntology();
  ASSERT_TRUE(materialized_ontology.ok()) << materialized_ontology.status();
  auto materialized_kb = (*image)->MaterializeKnowledgeBase();
  ASSERT_TRUE(materialized_kb.ok()) << materialized_kb.status();

  // Round-trip fidelity: compiling what the image materializes reproduces
  // the original image byte-for-byte — ids, names, edges, entities.
  auto recompiled =
      kbimage::CompileKbImage(*materialized_ontology, **materialized_kb);
  ASSERT_TRUE(recompiled.ok()) << recompiled.status();
  EXPECT_EQ(*recompiled, original);
  fs::remove(path);
}

// ---- Damage ladder -------------------------------------------------------

void WriteBytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class KbImageDamageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Ontology ontology = BuildMyGridOntology();
    KnowledgeBase kb(7, SmallKbOptions());
    auto bytes = kbimage::CompileKbImage(ontology, kb);
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    bytes_ = std::move(bytes).value();
    path_ = TempPath("damage.img");
  }

  void TearDown() override { fs::remove(path_); }

  /// Writes `damaged` and asserts Load reports corruption (or a typed
  /// parse failure for header-level damage) without crashing.
  void ExpectRejected(const std::string& damaged) {
    WriteBytes(path_, damaged);
    auto image = kbimage::CompiledKb::Load(path_.string());
    ASSERT_FALSE(image.ok());
    EXPECT_TRUE(image.status().IsCorrupted()) << image.status();
  }

  std::string bytes_;
  fs::path path_;
};

TEST_F(KbImageDamageTest, PristineImageLoads) {
  WriteBytes(path_, bytes_);
  auto image = kbimage::CompiledKb::Load(path_.string());
  EXPECT_TRUE(image.ok()) << image.status();
}

TEST_F(KbImageDamageTest, SingleBitFlipAnywhereIsCorrupted) {
  // A deterministic sweep of single-bit flips across the whole file,
  // including header, section table, string table, bitsets, and seal.
  Rng rng(2026);
  for (int round = 0; round < 64; ++round) {
    std::string damaged = bytes_;
    const size_t pos = rng.NextIndex(damaged.size());
    damaged[pos] = static_cast<char>(damaged[pos] ^
                                     (1 << rng.NextBelow(8)));
    if (damaged == bytes_) continue;  // Flip landed on the same bit twice.
    ExpectRejected(damaged);
  }
}

TEST_F(KbImageDamageTest, TruncationIsCorrupted) {
  Rng rng(4096);
  for (int round = 0; round < 16; ++round) {
    const size_t keep = rng.NextIndex(bytes_.size());
    ExpectRejected(bytes_.substr(0, keep));
  }
  ExpectRejected("");
  ExpectRejected(bytes_.substr(0, sizeof(kbimage::ImageHeader) - 1));
}

TEST_F(KbImageDamageTest, TrailingGarbageIsCorrupted) {
  ExpectRejected(bytes_ + std::string(64, '\0'));
  ExpectRejected(bytes_ + "x");
}

TEST_F(KbImageDamageTest, WrongMagicIsCorrupted) {
  std::string damaged = bytes_;
  damaged[0] = 'X';
  ExpectRejected(damaged);
}

TEST_F(KbImageDamageTest, CrossVersionImageIsCorrupted) {
  // A future-version image must be refused even if the rest of the bytes
  // are intact: bump the version field.
  std::string damaged = bytes_;
  uint32_t version = 0;
  std::memcpy(&version, damaged.data() + 8, sizeof(version));
  version += 1;
  std::memcpy(damaged.data() + 8, &version, sizeof(version));
  ExpectRejected(damaged);
}

TEST_F(KbImageDamageTest, MissingFileIsError) {
  auto image = kbimage::CompiledKb::Load(
      (fs::temp_directory_path() / "dexa_kbimage_no_such_file.img").string());
  EXPECT_FALSE(image.ok());
}

}  // namespace
}  // namespace dexa
