#include "core/instance_classifier.h"

#include <span>
#include <string>
#include <utility>

#include "common/strings.h"
#include "formats/alphabet.h"
#include "formats/sniffer.h"
#include "kb/accessions.h"

namespace dexa {

namespace {

bool IsTermInstance(const std::string& s, const char* prefix) {
  return StartsWith(s, prefix) && Contains(s, " ! ");
}

}  // namespace

InstanceClassifier::InstanceClassifier(const Ontology* ontology)
    : InstanceClassifier(std::make_shared<ConceptCache>(ontology)) {}

InstanceClassifier::InstanceClassifier(
    std::shared_ptr<const ConceptCache> cache)
    : cache_(std::move(cache)) {
  CompileRecognizers();
}

void InstanceClassifier::CompileRecognizers() {
  const kbimage::CompiledKb& kb = cache_->kb();
  recognizers_.resize(kb.ConceptCount());
  for (size_t c = 0; c < recognizers_.size(); ++c) {
    // The one sanctioned name resolution: each concept's name is looked
    // at exactly once, here, to compile its recognizer.
    const std::string name(kb.ConceptName(static_cast<ConceptId>(c)));
    Recognizer& r = recognizers_[c];

    // Identifier namespaces.
    if (name == "UniprotAccession") {
      r.string_rule = StringRule::kUniprotAccession;
    } else if (name == "PDBAccession") {
      r.string_rule = StringRule::kPdbAccession;
    } else if (name == "EMBLAccession") {
      r.string_rule = StringRule::kEmblAccession;
    } else if (name == "KEGGGeneId") {
      r.string_rule = StringRule::kKeggGeneId;
    } else if (name == "EnzymeId") {
      r.string_rule = StringRule::kEnzymeId;
    } else if (name == "GlycanId") {
      r.string_rule = StringRule::kGlycanId;
    } else if (name == "LigandId") {
      r.string_rule = StringRule::kLigandId;
    } else if (name == "CompoundId") {
      r.string_rule = StringRule::kCompoundId;
    } else if (name == "PathwayId") {
      r.string_rule = StringRule::kPathwayId;
    } else if (name == "GOTermId") {
      r.string_rule = StringRule::kGoTermId;
    } else if (name == "DNASequence") {
      // Sequences: alphabet analysis, preferring the most restrictive
      // class.
      r.string_rule = StringRule::kDnaSequence;
    } else if (name == "RNASequence") {
      r.string_rule = StringRule::kRnaSequence;
    } else if (name == "ProteinSequence") {
      r.string_rule = StringRule::kProteinSequence;
    } else if (name == "GOTerm") {
      // Ontology terms: "<SOURCE>:<id> ! <label>".
      r.string_rule = StringRule::kTermPrefix;
      r.aux = "GO:";
    } else if (name == "PathwayConcept") {
      r.string_rule = StringRule::kTermPrefix;
      r.aux = "PW:";
    } else if (name == "DiseaseTerm") {
      r.string_rule = StringRule::kTermPrefix;
      r.aux = "DOID:";
    } else if (name == "AnatomyTerm") {
      r.string_rule = StringRule::kTermPrefix;
      r.aux = "UBERON:";
    } else if (name == "ChemicalTerm") {
      r.string_rule = StringRule::kTermPrefix;
      r.aux = "CHEBI:";
    } else if (name == "PhenotypeTerm") {
      r.string_rule = StringRule::kTermPrefix;
      r.aux = "HP:";
    } else if (name == "AlgorithmName") {
      // Controlled vocabularies for parameter-ish strings.
      r.string_rule = StringRule::kAlgorithmName;
    } else if (name == "DatabaseName") {
      r.string_rule = StringRule::kDatabaseName;
    } else if (name == "TextDocument") {
      r.string_rule = StringRule::kTextDocument;
    } else if (name == "PeptideMassList") {
      r.peptide_mass_list = true;
    } else {
      // Records and reports: format sniffing.
      static constexpr const char* kSniffed[] = {
          "FastaRecord",    "UniprotRecord",  "EMBLRecord",
          "GenBankRecord",  "PDBRecord",      "KEGGGeneRecord",
          "EnzymeRecord",   "GlycanRecord",   "LigandRecord",
          "CompoundRecord", "PathwayRecord",  "GORecord",
          "InterProRecord", "PfamRecord",     "DiseaseRecord",
          "AlignmentReport", "IdentificationReport", "StatisticsReport",
      };
      for (const char* sniffed : kSniffed) {
        if (name == sniffed) {
          r.string_rule = StringRule::kSniffedFormat;
          r.aux = sniffed;
          break;
        }
      }
    }

    // Numeric parameters and measures.
    static constexpr const char* kNumeric[] = {
        "ErrorTolerance", "ThresholdValue", "SequenceLength",
        "MolecularMass",  "Score",          "Fraction",
        "Count",          "Parameter",      "Measure",
        "BioinformaticsData",
    };
    for (const char* numeric : kNumeric) {
      if (name == numeric) {
        r.numeric = true;
        break;
      }
    }
  }
}

bool InstanceClassifier::Matches(const Value& value,
                                 ConceptId concept_id) const {
  if (value.is_null()) return false;
  const Recognizer& r = recognizers_[static_cast<size_t>(concept_id)];
  if (value.is_string()) {
    const std::string& s = value.AsString();
    switch (r.string_rule) {
      case StringRule::kUniprotAccession:
        return IsUniprotAccession(s);
      case StringRule::kPdbAccession:
        return IsPdbAccession(s);
      case StringRule::kEmblAccession:
        return IsEmblAccession(s);
      case StringRule::kKeggGeneId:
        return IsKeggGeneId(s);
      case StringRule::kEnzymeId:
        return IsEnzymeId(s);
      case StringRule::kGlycanId:
        return IsGlycanId(s);
      case StringRule::kLigandId:
        return IsLigandId(s);
      case StringRule::kCompoundId:
        return IsCompoundId(s);
      case StringRule::kPathwayId:
        return IsPathwayId(s);
      case StringRule::kGoTermId:
        return IsGoTermId(s);
      case StringRule::kDnaSequence:
        return !s.empty() && ClassifySequence(s) == SeqAlphabet::kDna;
      case StringRule::kRnaSequence:
        return !s.empty() && ClassifySequence(s) == SeqAlphabet::kRna;
      case StringRule::kProteinSequence:
        return !s.empty() && ClassifySequence(s) == SeqAlphabet::kProtein &&
               IsValidSequence(s, SeqAlphabet::kProtein);
      case StringRule::kSniffedFormat:
        return SniffFormat(s) == r.aux;
      case StringRule::kTermPrefix:
        return IsTermInstance(s, r.aux);
      case StringRule::kAlgorithmName: {
        static constexpr const char* kPrograms[] = {"blastp", "blastn",
                                                    "blastx", "fasta",
                                                    "ssearch"};
        for (const char* p : kPrograms) {
          if (s == p) return true;
        }
        return false;
      }
      case StringRule::kDatabaseName: {
        static constexpr const char* kDatabases[] = {
            "uniprot", "embl", "pdb", "kegg", "genbank",
            // Term sources double as database names (GetTermSource
            // outputs).
            "GO", "PW", "DOID", "UBERON", "CHEBI", "HP"};
        for (const char* d : kDatabases) {
          if (s == d) return true;
        }
        return false;
      }
      case StringRule::kTextDocument:
        // Free text: multiple words, not matching any structured grammar.
        return Contains(s, " ") && SniffFormat(s).empty();
      case StringRule::kAnyNonEmpty:
        return !s.empty();
    }
    return !s.empty();
  }
  if (value.is_double() || value.is_int()) return r.numeric;
  if (value.is_list()) {
    // A list instantiates a concept if its elements do (PeptideMassList is
    // the special list-shaped leaf: a list of masses).
    if (r.peptide_mass_list) {
      if (value.AsList().empty()) return false;
      for (const Value& v : value.AsList()) {
        if (!v.is_double()) return false;
      }
      return true;
    }
    if (value.AsList().empty()) return false;
    for (const Value& v : value.AsList()) {
      if (!Matches(v, concept_id)) return false;
    }
    return true;
  }
  return false;
}

ConceptId InstanceClassifier::Classify(const Value& value,
                                       ConceptId declared) const {
  if (value.is_null() || declared == kInvalidConcept) return kInvalidConcept;
  // Try the partitions of the declared concept, most derived first: the
  // partition list is in pre-order, so reverse iteration visits leaves
  // before their ancestors.
  const std::span<const ConceptId> partitions = cache_->Partitions(declared);
  ConceptId fallback = kInvalidConcept;
  for (auto it = partitions.rbegin(); it != partitions.rend(); ++it) {
    ConceptId candidate = *it;
    if (candidate == declared) {
      fallback = declared;  // Realizable declared concept: weakest match.
      continue;
    }
    if (Matches(value, candidate)) return candidate;
  }
  if (fallback != kInvalidConcept && Matches(value, fallback)) return fallback;
  return kInvalidConcept;
}

}  // namespace dexa
