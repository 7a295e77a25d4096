#include <fstream>
#include <sstream>
#include <string_view>

#include <gtest/gtest.h>

#include "ontology/mygrid.h"
#include "ontology/ontology.h"
#include "ontology/ontology_parser.h"

namespace dexa {
namespace {

Ontology SmallOntology() {
  Ontology onto("test");
  EXPECT_TRUE(onto.AddRoot("Thing", /*covered=*/true).ok());
  EXPECT_TRUE(onto.AddConcept("Sequence", {"Thing"}, /*covered=*/true).ok());
  EXPECT_TRUE(onto.AddConcept("Nucleotide", {"Sequence"}, true).ok());
  EXPECT_TRUE(onto.AddConcept("DNA", {"Nucleotide"}).ok());
  EXPECT_TRUE(onto.AddConcept("RNA", {"Nucleotide"}).ok());
  EXPECT_TRUE(onto.AddConcept("Protein", {"Sequence"}).ok());
  EXPECT_TRUE(onto.AddConcept("Record", {"Thing"}).ok());
  return onto;
}

TEST(OntologyTest, AddAndFind) {
  Ontology onto = SmallOntology();
  EXPECT_EQ(onto.size(), 7u);
  EXPECT_NE(onto.Find("DNA"), kInvalidConcept);
  EXPECT_EQ(onto.Find("Nope"), kInvalidConcept);
  EXPECT_TRUE(onto.Require("DNA").ok());
  EXPECT_TRUE(onto.Require("Nope").status().IsNotFound());
}

TEST(OntologyTest, FindLooksUpViewsByTheirOwnLength) {
  Ontology onto = SmallOntology();
  const std::string_view line = "in DNA \"ACGT\"";
  EXPECT_EQ(onto.Find(line.substr(3, 3)), onto.Find("DNA"));
  EXPECT_NE(onto.Find(line.substr(3, 3)), kInvalidConcept);
  // Views that name no concept: a prefix, an overlong view and the empty
  // view.
  EXPECT_EQ(onto.Find(line.substr(3, 2)), kInvalidConcept);
  EXPECT_EQ(onto.Find(line.substr(3, 4)), kInvalidConcept);
  EXPECT_EQ(onto.Find(std::string_view()), kInvalidConcept);
  EXPECT_EQ(onto.Find(std::string_view("Protein").substr(0, 4)),
            kInvalidConcept);
}

TEST(OntologyTest, RejectsDuplicatesAndMissingParents) {
  Ontology onto = SmallOntology();
  EXPECT_TRUE(onto.AddConcept("DNA", {"Thing"}).status().IsAlreadyExists());
  EXPECT_TRUE(onto.AddConcept("X", {"Missing"}).status().IsNotFound());
  EXPECT_TRUE(onto.AddConcept("", {}).status().IsInvalidArgument());
}

TEST(OntologyTest, SubsumptionIsReflexiveAndTransitive) {
  Ontology onto = SmallOntology();
  ConceptId dna = onto.Find("DNA");
  ConceptId nucleotide = onto.Find("Nucleotide");
  ConceptId sequence = onto.Find("Sequence");
  ConceptId record = onto.Find("Record");
  EXPECT_TRUE(onto.IsSubsumedBy(dna, dna));
  EXPECT_TRUE(onto.IsSubsumedBy(dna, nucleotide));
  EXPECT_TRUE(onto.IsSubsumedBy(dna, sequence));
  EXPECT_FALSE(onto.IsSubsumedBy(sequence, dna));
  EXPECT_FALSE(onto.IsSubsumedBy(dna, record));
  EXPECT_TRUE(onto.Comparable(dna, sequence));
  EXPECT_FALSE(onto.Comparable(dna, record));
}

TEST(OntologyTest, DescendantsAndAncestors) {
  Ontology onto = SmallOntology();
  ConceptId sequence = onto.Find("Sequence");
  auto descendants = onto.Descendants(sequence);
  EXPECT_EQ(descendants.size(), 5u);  // Sequence, Nucleotide, DNA, RNA, Protein.
  auto strict = onto.StrictDescendants(sequence);
  EXPECT_EQ(strict.size(), 4u);
  auto ancestors = onto.Ancestors(onto.Find("DNA"));
  EXPECT_EQ(ancestors.size(), 4u);  // DNA, Nucleotide, Sequence, Thing.
}

TEST(OntologyTest, PartitionsSkipCoveredConcepts) {
  Ontology onto = SmallOntology();
  // Sequence is covered, Nucleotide is covered: partitions are the
  // realizable concepts only.
  auto partitions = onto.Partitions(onto.Find("Sequence"));
  std::vector<std::string> names;
  for (ConceptId c : partitions) names.push_back(onto.NameOf(c));
  EXPECT_EQ(names, (std::vector<std::string>{"DNA", "RNA", "Protein"}));
  // A realizable leaf is its own single partition.
  EXPECT_EQ(onto.Partitions(onto.Find("DNA")).size(), 1u);
  // A realizable interior concept partitions into itself + children.
  ASSERT_TRUE(onto.SetCovered(onto.Find("Nucleotide"), false).ok());
  auto nucleotide = onto.Partitions(onto.Find("Nucleotide"));
  EXPECT_EQ(nucleotide.size(), 3u);
}

TEST(OntologyTest, DepthAndLcs) {
  Ontology onto = SmallOntology();
  EXPECT_EQ(onto.Depth(onto.Find("Thing")), 0);
  EXPECT_EQ(onto.Depth(onto.Find("DNA")), 3);
  ConceptId lcs = onto.LeastCommonSubsumer(onto.Find("DNA"), onto.Find("RNA"));
  EXPECT_EQ(onto.NameOf(lcs), "Nucleotide");
  lcs = onto.LeastCommonSubsumer(onto.Find("DNA"), onto.Find("Protein"));
  EXPECT_EQ(onto.NameOf(lcs), "Sequence");
  lcs = onto.LeastCommonSubsumer(onto.Find("DNA"), onto.Find("Record"));
  EXPECT_EQ(onto.NameOf(lcs), "Thing");
}

TEST(OntologyTest, RootsAndAll) {
  Ontology onto = SmallOntology();
  EXPECT_EQ(onto.Roots().size(), 1u);
  EXPECT_EQ(onto.AllConcepts().size(), 7u);
}

TEST(OntologyParserTest, RoundTripsDsl) {
  Ontology onto = SmallOntology();
  std::string dsl = onto.ToDsl();
  auto parsed = ParseOntologyDsl(dsl);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->size(), onto.size());
  EXPECT_EQ(parsed->ToDsl(), dsl);
  // Covered flags survive.
  EXPECT_TRUE(parsed->Get(parsed->Find("Nucleotide")).covered);
  EXPECT_FALSE(parsed->Get(parsed->Find("DNA")).covered);
}

TEST(OntologyParserTest, ParsesMultipleParents) {
  auto parsed = ParseOntologyDsl(
      "ontology multi\n"
      "concept A\n"
      "concept B\n"
      "concept C < A, B\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ConceptId c = parsed->Find("C");
  EXPECT_TRUE(parsed->IsSubsumedBy(c, parsed->Find("A")));
  EXPECT_TRUE(parsed->IsSubsumedBy(c, parsed->Find("B")));
}

TEST(OntologyParserTest, RejectsMalformedInput) {
  EXPECT_TRUE(ParseOntologyDsl("nonsense line\n").status().IsParseError());
  EXPECT_TRUE(ParseOntologyDsl("concept A < Missing\n").status().IsParseError());
  EXPECT_TRUE(ParseOntologyDsl("concept Two Words\n").status().IsParseError());
  EXPECT_TRUE(ParseOntologyDsl("ontology a\nontology b\n").status().IsParseError());
  // Comments and blanks are fine.
  EXPECT_TRUE(ParseOntologyDsl("# comment\n\nconcept A\n").ok());
}

TEST(MyGridTest, ExpectedPartitionCounts) {
  Ontology onto = BuildMyGridOntology();
  auto count = [&](const char* name) {
    return onto.Partitions(onto.Find(name)).size();
  };
  EXPECT_EQ(count("NucleotideSequence"), 2u);
  EXPECT_EQ(count("BiologicalSequence"), 3u);
  EXPECT_EQ(count("SequenceAccession"), 4u);
  EXPECT_EQ(count("SequenceRecord"), 5u);
  EXPECT_EQ(count("OntologyTerm"), 6u);
  EXPECT_EQ(count("Accession"), 10u);
  EXPECT_EQ(count("Record"), 15u);
}

TEST(MyGridTest, RoundTripsThroughDsl) {
  Ontology onto = BuildMyGridOntology();
  auto parsed = ParseOntologyDsl(onto.ToDsl());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->size(), onto.size());
}

TEST(MyGridTest, MatchesGoldenAsset) {
  // The shipped assets/mygrid.onto is the canonical serialized ontology;
  // code and asset must not drift apart.
  std::ifstream golden(std::string(DEXA_SOURCE_DIR) + "/assets/mygrid.onto");
  ASSERT_TRUE(golden.good()) << "assets/mygrid.onto missing";
  std::stringstream buffer;
  buffer << golden.rdbuf();
  EXPECT_EQ(BuildMyGridOntology().ToDsl(), buffer.str());
}

TEST(OntologyTest, AuditFlagsEmptyCoveredConcepts) {
  Ontology onto("audit");
  ASSERT_TRUE(onto.AddRoot("EmptyCovered", /*covered=*/true).ok());
  ASSERT_TRUE(onto.AddRoot("FineLeaf").ok());
  auto warnings = onto.Audit();
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("EmptyCovered"), std::string::npos);
}

TEST(MyGridTest, AuditIsClean) {
  EXPECT_TRUE(BuildMyGridOntology().Audit().empty());
}

}  // namespace
}  // namespace dexa
