#include "corpus/corpus.h"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "corpus/behaviors.h"
#include "corpus/builder_internal.h"
#include "corpus/term_values.h"
#include "formats/alphabet.h"
#include "formats/sniffer.h"
#include "kb/accessions.h"
#include "ontology/mygrid.h"

namespace dexa {

namespace corpus_internal {

void CorpusBuilder::Add(bool decayed, ModuleKind kind, std::string name,
                        std::vector<Parameter> inputs,
                        std::vector<Parameter> outputs,
                        SyntheticModule::Behavior behavior, int num_classes,
                        LambdaGroundTruth::ClassFn class_of,
                        bool popular_eligible) {
  ModuleSpec spec;
  spec.id = "m" + ZeroPad(static_cast<uint64_t>(next_id_++), 3);
  spec.name = std::move(name);
  spec.kind = kind;
  spec.inputs = std::move(inputs);
  spec.outputs = std::move(outputs);

  // Popularity quota: the first 44 eligible modules are famous enough for
  // every simulated user to recognize by name, the next 3 for users 1 and
  // 3, the next 4 for user 3 only (47 / 44 / 51 in Figure 5's phase 1).
  spec.popularity = 0.1;
  if (popular_eligible && !decayed) {
    if (popular_assigned_ < 44) {
      spec.popularity = 0.9;
    } else if (popular_assigned_ < 47) {
      spec.popularity = 0.7;
    } else if (popular_assigned_ < 51) {
      spec.popularity = 0.5;
    }
    ++popular_assigned_;
  }

  if (class_of == nullptr) {
    num_classes = 1;
    class_of = [](const std::vector<Value>&) { return 0; };
  }
  auto module = std::make_shared<SyntheticModule>(
      std::move(spec), std::move(behavior), num_classes, std::move(class_of));
  const std::string& id = module->spec().id;
  Status registered = corpus_->registry->Register(module);
  if (!registered.ok()) {
    Fail(registered);
    return;
  }
  if (decayed) {
    corpus_->retired_ids.push_back(id);
  } else {
    corpus_->available_ids.push_back(id);
  }
}

int IdDigitsParity(const std::string& id) {
  // Last maximal digit run in the identifier.
  int value = 0;
  bool in_digits = false;
  for (char c : id) {
    if (std::isdigit(static_cast<unsigned char>(c))) {
      if (!in_digits) value = 0;
      in_digits = true;
      value = (value * 10 + (c - '0')) % 10;
    } else {
      in_digits = false;
    }
  }
  return value % 2;
}

}  // namespace corpus_internal

namespace {

using corpus_internal::CorpusBuilder;
using corpus_internal::One;
using corpus_internal::OneList;
using corpus_internal::OneValue;

using KbPtr = std::shared_ptr<const KnowledgeBase>;

const StructuralType kStr = StructuralType::String();
const StructuralType kDouble = StructuralType::Double();
const StructuralType kStrList = StructuralType::List(StructuralType::String());
const StructuralType kDoubleList =
    StructuralType::List(StructuralType::Double());

// ----------------------------------------------------------------------
// Shared behavior factories (also used by corpus_retired.cc through the
// public behaviors.h helpers).

SyntheticModule::Behavior RetrievalBehavior(KbPtr kb, RecordKind kind) {
  return [kb, kind](const std::vector<Value>& in) {
    return One(RetrieveRecord(*kb, kind, in[0].AsString()));
  };
}

/// Behavior-class function keyed by the sniffed input format; used by the
/// Record- and SequenceRecord-input module families.
int RecordFamilyClass(const std::string& record) {
  std::string sniffed = SniffFormat(record);
  if (sniffed == "FastaRecord") return 0;
  if (sniffed == "UniprotRecord") return 1;
  if (sniffed == "EMBLRecord") return 2;
  if (sniffed == "GenBankRecord") return 3;
  if (sniffed == "PDBRecord") return 4;
  if (sniffed == "GORecord" || sniffed == "InterProRecord" ||
      sniffed == "PfamRecord") {
    return 6;  // Stanza formats share one code path.
  }
  return 5;  // KEGG flat-file family shares one code path.
}

// ----------------------------------------------------------------------
// Section A: data retrieval (51 modules).

void AddRetrievalModules(CorpusBuilder& b) {
  KbPtr kb = b.kb_ptr();

  // A1. GetBiologicalSequence x4: the Figure 7 module. Output partitions
  // {DNA,RNA,Protein} are only partially coverable (no accession namespace
  // serves RNA), one of the 19 output-coverage exceptions of Section 4.3.
  for (const char* provider : {"EBI", "DDBJ", "NCBI", "KEGG"}) {
    b.Add(false, ModuleKind::kDataRetrieval,
          std::string(provider) + "_GetBiologicalSequence",
          {b.P("accession", kStr, "SequenceAccession")},
          {b.P("sequence", kStr, "BiologicalSequence")},
          [kb](const std::vector<Value>& in) {
            return One(LookupSequenceForAccession(*kb, in[0].AsString()));
          },
          2,
          [](const std::vector<Value>& in) {
            const std::string& acc = in[0].AsString();
            return (IsUniprotAccession(acc) || IsPdbAccession(acc)) ? 0 : 1;
          },
          /*popular_eligible=*/true);
  }

  // A2. Record retrievals per database, with explicit provider rosters
  // (the KEGG-family databases are primarily served by KEGG).
  struct RetrievalRow {
    const char* function;
    RecordKind kind;
    const char* input_concept;
    std::vector<const char*> providers;
    bool popular_eligible;
  };
  const RetrievalRow kRows[] = {
      {"GetUniprotRecord", RecordKind::kUniprot, "UniprotAccession",
       {"EBI", "DDBJ", "NCBI"}, true},
      {"GetFastaRecord", RecordKind::kFasta, "UniprotAccession",
       {"EBI", "DDBJ", "NCBI"}, true},
      {"GetEMBLRecord", RecordKind::kEmbl, "EMBLAccession",
       {"EBI", "DDBJ", "NCBI"}, true},
      {"GetGenBankRecord", RecordKind::kGenBank, "EMBLAccession",
       {"NCBI", "DDBJ"}, true},
      {"GetPDBRecord", RecordKind::kPdb, "PDBAccession",
       {"EBI", "DDBJ", "NCBI"}, true},
      {"GetKEGGGeneRecord", RecordKind::kKeggGene, "KEGGGeneId",
       {"KEGG", "EBI", "DDBJ"}, true},
      {"GetEnzymeRecord", RecordKind::kEnzyme, "EnzymeId",
       {"KEGG", "EBI", "DDBJ"}, true},
      // Glycan and ligand records use formats the study users may not know
      // (Section 5's data-retrieval failures); kept obscure.
      {"GetGlycanRecord", RecordKind::kGlycan, "GlycanId",
       {"KEGG", "EBI", "DDBJ"}, false},
      {"GetLigandRecord", RecordKind::kLigand, "LigandId",
       {"EBI", "DDBJ", "NCBI", "KEGG", "ExPASy"}, false},
      {"GetCompoundRecord", RecordKind::kCompound, "CompoundId",
       {"KEGG", "EBI", "DDBJ"}, true},
      {"GetPathwayRecord", RecordKind::kPathway, "PathwayId",
       {"KEGG", "EBI", "DDBJ"}, true},
      {"GetGORecord", RecordKind::kGo, "GOTermId", {"EBI", "DDBJ"}, true},
      {"GetInterProRecord", RecordKind::kInterPro, "UniprotAccession",
       {"EBI", "DDBJ"}, true},
      {"GetPfamRecord", RecordKind::kPfam, "UniprotAccession",
       {"EBI", "DDBJ"}, true},
      {"GetDiseaseRecord", RecordKind::kDisease, "KEGGGeneId",
       {"EBI", "DDBJ"}, true},
  };
  for (const RetrievalRow& row : kRows) {
    for (const char* provider : row.providers) {
      b.Add(false, ModuleKind::kDataRetrieval,
            std::string(provider) + "_" + row.function,
            {b.P("accession", kStr, row.input_concept)},
            {b.P("record", kStr, RecordKindConcept(row.kind))},
            RetrievalBehavior(kb, row.kind), 1, nullptr, row.popular_eligible);
    }
  }

  // A3/A4. Sequence retrieval.
  for (const char* provider : {"EBI", "ExPASy"}) {
    b.Add(false, ModuleKind::kDataRetrieval,
          std::string(provider) + "_GetProteinSequence",
          {b.P("accession", kStr, "UniprotAccession")},
          {b.P("sequence", kStr, "ProteinSequence")},
          [kb](const std::vector<Value>& in) -> Result<std::vector<Value>> {
            auto protein = kb->FindProtein(in[0].AsString());
            if (!protein.ok()) return protein.status();
            return One((*protein)->sequence);
          },
          1, nullptr, /*popular_eligible=*/true);
  }
  for (const char* provider : {"KEGG", "DDBJ"}) {
    b.Add(false, ModuleKind::kDataRetrieval,
          std::string(provider) + "_GetDNASequence",
          {b.P("gene", kStr, "KEGGGeneId")},
          {b.P("sequence", kStr, "DNASequence")},
          [kb](const std::vector<Value>& in) -> Result<std::vector<Value>> {
            auto gene = kb->FindGene(in[0].AsString());
            if (!gene.ok()) return gene.status();
            return One((*gene)->dna_sequence);
          },
          1, nullptr, /*popular_eligible=*/true);
  }

  // A5. binfo: database metadata probe returning a sample accession; the
  // coarse Accession output annotation makes it an output-coverage
  // exception (Section 4.3 names it explicitly).
  b.Add(false, ModuleKind::kDataRetrieval, "binfo",
        {b.P("database", kStr, "DatabaseName")},
        {b.P("sample_entry", kStr, "Accession")},
        [kb](const std::vector<Value>& in) -> Result<std::vector<Value>> {
          const std::string& db = in[0].AsString();
          if (db == "uniprot") return One(kb->proteins()[0].accession);
          if (db == "embl" || db == "genbank") {
            return One(kb->proteins()[0].embl_accession);
          }
          if (db == "pdb") return One(kb->proteins()[0].pdb_accession);
          if (db == "kegg") return One(kb->genes()[0].gene_id);
          return Status::InvalidArgument("unknown database '" + db + "'");
        },
        1, nullptr, /*popular_eligible=*/true);
}

// ----------------------------------------------------------------------
// Section B: mapping identifiers (62 modules).

void AddMappingModules(CorpusBuilder& b) {
  KbPtr kb = b.kb_ptr();

  // B1. Record -> primary id extractors x7 (the conciseness-0.47 family:
  // 15 Record partitions, 7 documented code paths).
  auto extract_class = [](const std::vector<Value>& in) {
    return RecordFamilyClass(in[0].AsString());
  };
  auto extract_behavior = [](const std::vector<Value>& in) {
    return One(ExtractPrimaryId(in[0].AsString()));
  };
  for (const char* name :
       {"EBI_ExtractPrimaryId", "DDBJ_ExtractPrimaryId", "NCBI_ExtractPrimaryId",
        "EBI_GetRecordId", "DDBJ_GetRecordId", "EBI_RecordToAccession",
        "NCBI_RecordToAccession"}) {
    b.Add(false, ModuleKind::kMappingIdentifiers, name,
          {b.P("record", kStr, "Record")}, {b.P("id", kStr, "Accession")},
          extract_behavior, 7, extract_class, /*popular_eligible=*/true);
  }

  // B2. Ontology-term utilities x4 (conciseness 0.17: 6 OntologyTerm
  // partitions, one uniform code path).
  auto term_guard = [](const std::string& term) -> Status {
    if (TermId(term).empty()) {
      return Status::InvalidArgument("malformed ontology term '" + term + "'");
    }
    return Status::OK();
  };
  b.Add(false, ModuleKind::kMappingIdentifiers, "GetTermLabel",
        {b.P("term", kStr, "OntologyTerm")},
        {b.P("label", kStr, "TextDocument")},
        [term_guard](const std::vector<Value>& in) -> Result<std::vector<Value>> {
          DEXA_RETURN_IF_ERROR(term_guard(in[0].AsString()));
          return One(TermLabel(in[0].AsString()));
        },
        1, nullptr, /*popular_eligible=*/true);
  b.Add(false, ModuleKind::kMappingIdentifiers, "GetTermSource",
        {b.P("term", kStr, "OntologyTerm")},
        {b.P("source", kStr, "DatabaseName")},
        [term_guard](const std::vector<Value>& in) -> Result<std::vector<Value>> {
          DEXA_RETURN_IF_ERROR(term_guard(in[0].AsString()));
          return One(TermSource(in[0].AsString()));
        },
        1, nullptr, /*popular_eligible=*/true);
  b.Add(false, ModuleKind::kMappingIdentifiers, "TermToUpperLabel",
        {b.P("term", kStr, "OntologyTerm")}, {b.P("term", kStr, "OntologyTerm")},
        [term_guard](const std::vector<Value>& in) -> Result<std::vector<Value>> {
          DEXA_RETURN_IF_ERROR(term_guard(in[0].AsString()));
          const std::string& term = in[0].AsString();
          return One(TermId(term) + " ! " + ToUpper(TermLabel(term)));
        },
        1, nullptr, /*popular_eligible=*/true);
  b.Add(false, ModuleKind::kMappingIdentifiers, "TermToLowerLabel",
        {b.P("term", kStr, "OntologyTerm")}, {b.P("term", kStr, "OntologyTerm")},
        [term_guard](const std::vector<Value>& in) -> Result<std::vector<Value>> {
          DEXA_RETURN_IF_ERROR(term_guard(in[0].AsString()));
          const std::string& term = in[0].AsString();
          return One(TermId(term) + " ! " + ToLower(TermLabel(term)));
        },
        1, nullptr, /*popular_eligible=*/true);

  // B3. KEGG-style link family x10: generic cross-reference services whose
  // outputs carry the coarse Accession annotation — the remaining output-
  // coverage exceptions (get_genes_by_enzyme and link are named in the
  // paper).
  b.Add(false, ModuleKind::kMappingIdentifiers, "link",
        {b.P("entry", kStr, "SequenceAccession")},
        {b.P("linked", kStrList, "Accession")},
        [kb](const std::vector<Value>& in) -> Result<std::vector<Value>> {
          const std::string& acc = in[0].AsString();
          if (auto protein = kb->FindProtein(acc); protein.ok()) {
            return OneList({(*protein)->gene_id});
          }
          if (auto protein = kb->FindProteinByPdb(acc); protein.ok()) {
            return OneList({(*protein)->accession});
          }
          if (auto protein = kb->FindProteinByEmbl(acc); protein.ok()) {
            return OneList({(*protein)->accession});
          }
          if (auto gene = kb->FindGene(acc); gene.ok()) {
            return OneList(std::vector<std::string>((*gene)->pathway_ids));
          }
          return Status::NotFound("no cross-references for '" + acc + "'");
        },
        4,
        [](const std::vector<Value>& in) {
          const std::string& acc = in[0].AsString();
          if (IsUniprotAccession(acc)) return 0;
          if (IsPdbAccession(acc)) return 1;
          if (IsEmblAccession(acc)) return 2;
          return 3;
        },
        /*popular_eligible=*/true);

  struct LinkRow {
    const char* name;
    const char* input_concept;
  };
  // Each returns a list of cross-referenced entries under the coarse
  // "Accession" annotation.
  auto add_link = [&](const char* name, const char* input_concept,
                      std::function<Result<std::vector<std::string>>(
                          const KnowledgeBase&, const std::string&)>
                          lookup) {
    b.Add(false, ModuleKind::kMappingIdentifiers, name,
          {b.P("entry", kStr, input_concept)},
          {b.P("linked", kStrList, "Accession")},
          [kb, lookup](const std::vector<Value>& in) -> Result<std::vector<Value>> {
            auto ids = lookup(*kb, in[0].AsString());
            if (!ids.ok()) return ids.status();
            if (ids->empty()) {
              return Status::NotFound("no cross-references found");
            }
            return OneList(std::move(ids).value());
          },
          1, nullptr, /*popular_eligible=*/true);
  };

  add_link("get_genes_by_enzyme", "EnzymeId",
           [](const KnowledgeBase& kb_ref,
              const std::string& id) -> Result<std::vector<std::string>> {
             auto enzyme = kb_ref.FindEnzyme(id);
             if (!enzyme.ok()) return enzyme.status();
             return (*enzyme)->gene_ids;
           });
  add_link("get_genes_by_pathway", "PathwayId",
           [](const KnowledgeBase& kb_ref,
              const std::string& id) -> Result<std::vector<std::string>> {
             auto pathway = kb_ref.FindPathway(id);
             if (!pathway.ok()) return pathway.status();
             return (*pathway)->gene_ids;
           });
  add_link("get_compounds_by_pathway", "PathwayId",
           [](const KnowledgeBase& kb_ref,
              const std::string& id) -> Result<std::vector<std::string>> {
             auto pathway = kb_ref.FindPathway(id);
             if (!pathway.ok()) return pathway.status();
             return (*pathway)->compound_ids;
           });
  add_link("get_pathways_by_gene", "KEGGGeneId",
           [](const KnowledgeBase& kb_ref,
              const std::string& id) -> Result<std::vector<std::string>> {
             auto gene = kb_ref.FindGene(id);
             if (!gene.ok()) return gene.status();
             return (*gene)->pathway_ids;
           });
  add_link("get_pathways_by_compound", "CompoundId",
           [](const KnowledgeBase& kb_ref,
              const std::string& id) -> Result<std::vector<std::string>> {
             auto compound = kb_ref.FindCompound(id);
             if (!compound.ok()) return compound.status();
             return (*compound)->pathway_ids;
           });
  add_link("get_targets_by_ligand", "LigandId",
           [](const KnowledgeBase& kb_ref,
              const std::string& id) -> Result<std::vector<std::string>> {
             auto ligand = kb_ref.FindLigand(id);
             if (!ligand.ok()) return ligand.status();
             return (*ligand)->target_accessions;
           });
  add_link("get_enzymes_by_compound", "CompoundId",
           [](const KnowledgeBase& kb_ref,
              const std::string& id) -> Result<std::vector<std::string>> {
             std::vector<std::string> out;
             for (const EnzymeEntity& enzyme : kb_ref.enzymes()) {
               for (const std::string& c : enzyme.substrate_ids) {
                 if (c == id) out.push_back(enzyme.ec_number);
               }
               for (const std::string& c : enzyme.product_ids) {
                 if (c == id) out.push_back(enzyme.ec_number);
               }
             }
             return out;
           });
  add_link("get_genes_by_go_term", "GOTermId",
           [](const KnowledgeBase& kb_ref,
              const std::string& id) -> Result<std::vector<std::string>> {
             std::vector<std::string> out;
             for (const GeneEntity& gene : kb_ref.genes()) {
               for (const std::string& go : gene.go_term_ids) {
                 if (go == id) {
                   out.push_back(gene.gene_id);
                   break;
                 }
               }
             }
             return out;
           });
  add_link("get_orthologs", "KEGGGeneId",
           [](const KnowledgeBase& kb_ref,
              const std::string& id) -> Result<std::vector<std::string>> {
             auto gene = kb_ref.FindGene(id);
             if (!gene.ok()) return gene.status();
             auto homologs = kb_ref.Homologs((*gene)->protein_accession);
             if (!homologs.ok()) return homologs.status();
             std::vector<std::string> out;
             for (const ProteinEntity* protein : *homologs) {
               out.push_back(protein->gene_id);
             }
             return out;
           });

  // B4. Precise cross-database mappings, several providers each.
  struct MapRow {
    const char* function;
    const char* in_concept;
    const char* out_concept;
    bool list_output;
    int providers;
    std::function<Result<std::vector<std::string>>(const KnowledgeBase&,
                                                   const std::string&)>
        lookup;
  };
  auto single = [](Result<std::string> r) -> Result<std::vector<std::string>> {
    if (!r.ok()) return r.status();
    return std::vector<std::string>{std::move(r).value()};
  };
  std::vector<MapRow> rows;
  rows.push_back({"Uniprot2KeggGene", "UniprotAccession", "KEGGGeneId", false,
                  3,
                  [single](const KnowledgeBase& kb_ref, const std::string& id) {
                    auto protein = kb_ref.FindProtein(id);
                    if (!protein.ok()) return single(protein.status());
                    return single((*protein)->gene_id);
                  }});
  rows.push_back({"KeggGene2Uniprot", "KEGGGeneId", "UniprotAccession", false,
                  3,
                  [single](const KnowledgeBase& kb_ref, const std::string& id) {
                    auto gene = kb_ref.FindGene(id);
                    if (!gene.ok()) return single(gene.status());
                    return single((*gene)->protein_accession);
                  }});
  rows.push_back({"Uniprot2PDB", "UniprotAccession", "PDBAccession", false, 3,
                  [single](const KnowledgeBase& kb_ref, const std::string& id) {
                    auto protein = kb_ref.FindProtein(id);
                    if (!protein.ok()) return single(protein.status());
                    if ((*protein)->pdb_accession.empty()) {
                      return single(Status::NotFound("no structure known"));
                    }
                    return single((*protein)->pdb_accession);
                  }});
  rows.push_back({"PDB2Uniprot", "PDBAccession", "UniprotAccession", false, 3,
                  [single](const KnowledgeBase& kb_ref, const std::string& id) {
                    auto protein = kb_ref.FindProteinByPdb(id);
                    if (!protein.ok()) return single(protein.status());
                    return single((*protein)->accession);
                  }});
  rows.push_back({"Uniprot2EMBL", "UniprotAccession", "EMBLAccession", false,
                  3,
                  [single](const KnowledgeBase& kb_ref, const std::string& id) {
                    auto protein = kb_ref.FindProtein(id);
                    if (!protein.ok()) return single(protein.status());
                    return single((*protein)->embl_accession);
                  }});
  rows.push_back({"EMBL2Uniprot", "EMBLAccession", "UniprotAccession", false,
                  3,
                  [single](const KnowledgeBase& kb_ref, const std::string& id) {
                    auto protein = kb_ref.FindProteinByEmbl(id);
                    if (!protein.ok()) return single(protein.status());
                    return single((*protein)->accession);
                  }});
  rows.push_back({"Gene2Pathways", "KEGGGeneId", "PathwayId", true, 3,
                  [](const KnowledgeBase& kb_ref,
                     const std::string& id) -> Result<std::vector<std::string>> {
                    auto gene = kb_ref.FindGene(id);
                    if (!gene.ok()) return gene.status();
                    return (*gene)->pathway_ids;
                  }});
  rows.push_back({"Pathway2Genes", "PathwayId", "KEGGGeneId", true, 3,
                  [](const KnowledgeBase& kb_ref,
                     const std::string& id) -> Result<std::vector<std::string>> {
                    auto pathway = kb_ref.FindPathway(id);
                    if (!pathway.ok()) return pathway.status();
                    return (*pathway)->gene_ids;
                  }});
  rows.push_back({"Uniprot2GoIds", "UniprotAccession", "GOTermId", true, 3,
                  [](const KnowledgeBase& kb_ref,
                     const std::string& id) -> Result<std::vector<std::string>> {
                    auto protein = kb_ref.FindProtein(id);
                    if (!protein.ok()) return protein.status();
                    return (*protein)->go_term_ids;
                  }});
  rows.push_back({"GoId2Term", "GOTermId", "GOTerm", false, 3,
                  [single](const KnowledgeBase& kb_ref, const std::string& id) {
                    auto term = kb_ref.FindGoTerm(id);
                    if (!term.ok()) return single(term.status());
                    return single(MakeTermInstance("GO", (*term)->go_id.substr(3),
                                                   (*term)->name));
                  }});
  rows.push_back({"Compound2Pathways", "CompoundId", "PathwayId", true, 3,
                  [](const KnowledgeBase& kb_ref,
                     const std::string& id) -> Result<std::vector<std::string>> {
                    auto compound = kb_ref.FindCompound(id);
                    if (!compound.ok()) return compound.status();
                    return (*compound)->pathway_ids;
                  }});
  rows.push_back({"Enzyme2Genes", "EnzymeId", "KEGGGeneId", true, 2,
                  [](const KnowledgeBase& kb_ref,
                     const std::string& id) -> Result<std::vector<std::string>> {
                    auto enzyme = kb_ref.FindEnzyme(id);
                    if (!enzyme.ok()) return enzyme.status();
                    return (*enzyme)->gene_ids;
                  }});
  rows.push_back({"Ligand2Targets", "LigandId", "UniprotAccession", true, 2,
                  [](const KnowledgeBase& kb_ref,
                     const std::string& id) -> Result<std::vector<std::string>> {
                    auto ligand = kb_ref.FindLigand(id);
                    if (!ligand.ok()) return ligand.status();
                    return (*ligand)->target_accessions;
                  }});
  rows.push_back({"Gene2Enzymes", "KEGGGeneId", "EnzymeId", true, 2,
                  [](const KnowledgeBase& kb_ref,
                     const std::string& id) -> Result<std::vector<std::string>> {
                    std::vector<std::string> out;
                    for (const EnzymeEntity& enzyme : kb_ref.enzymes()) {
                      for (const std::string& gene : enzyme.gene_ids) {
                        if (gene == id) {
                          out.push_back(enzyme.ec_number);
                          break;
                        }
                      }
                    }
                    return out;
                  }});
  rows.push_back({"Pathway2Compounds", "PathwayId", "CompoundId", true, 2,
                  [](const KnowledgeBase& kb_ref,
                     const std::string& id) -> Result<std::vector<std::string>> {
                    auto pathway = kb_ref.FindPathway(id);
                    if (!pathway.ok()) return pathway.status();
                    return (*pathway)->compound_ids;
                  }});

  static const char* kProviders[] = {"EBI", "DDBJ", "NCBI"};
  for (const MapRow& row : rows) {
    for (int p = 0; p < row.providers; ++p) {
      Parameter out =
          row.list_output
              ? b.P("mapped", kStrList, row.out_concept)
              : b.P("mapped", kStr, row.out_concept);
      auto lookup = row.lookup;
      b.Add(false, ModuleKind::kMappingIdentifiers,
            std::string(kProviders[p]) + "_" + row.function,
            {b.P("id", kStr, row.in_concept)}, {out},
            [kb, lookup, list = row.list_output](
                const std::vector<Value>& in) -> Result<std::vector<Value>> {
              auto ids = lookup(*kb, in[0].AsString());
              if (!ids.ok()) return ids.status();
              if (ids->empty()) return Status::NotFound("no mapping found");
              if (list) return OneList(std::move(ids).value());
              return One((*ids)[0]);
            },
            1, nullptr, /*popular_eligible=*/true);
    }
  }
}

// ----------------------------------------------------------------------
// Section C: format transformation (53 modules).

void AddFormatModules(CorpusBuilder& b) {
  KbPtr kb = b.kb_ptr();

  // C1. Sequence extraction from any sequence record x4 (conciseness 0.4:
  // 5 partitions, two documented code paths — paragraph vs inline layouts;
  // coarse BiologicalSequence output -> output-coverage exceptions).
  auto extract_seq_class = [](const std::vector<Value>& in) {
    int family = RecordFamilyClass(in[0].AsString());
    return (family == 1 || family == 2 || family == 3) ? 0 : 1;
  };
  for (const char* name : {"EBI_ExtractSequence", "DDBJ_ExtractSequence",
                           "EBI_RecordToSequence", "NCBI_RecordToSequence"}) {
    b.Add(false, ModuleKind::kFormatTransformation, name,
          {b.P("record", kStr, "SequenceRecord")},
          {b.P("sequence", kStr, "BiologicalSequence")},
          [](const std::vector<Value>& in) {
            return One(ExtractSequenceText(in[0].AsString()));
          },
          2, extract_seq_class, /*popular_eligible=*/true);
  }

  // C2. Sniff-and-convert x8 (conciseness 0.2: 5 partitions, one generic
  // code path).
  struct AnyToRow {
    const char* name;
    SeqFormat to;
  };
  static const AnyToRow kAnyRows[] = {
      {"EBI_AnyToFasta", SeqFormat::kFasta},
      {"DDBJ_AnyToFasta", SeqFormat::kFasta},
      {"EBI_AnyToUniprot", SeqFormat::kUniprot},
      {"ExPASy_AnyToUniprot", SeqFormat::kUniprot},
      {"EBI_AnyToEMBL", SeqFormat::kEmbl},
      {"DDBJ_AnyToEMBL", SeqFormat::kEmbl},
      {"NCBI_AnyToGenBank", SeqFormat::kGenBank},
      {"EBI_AnyToPDB", SeqFormat::kPdb},
  };
  for (const AnyToRow& row : kAnyRows) {
    b.Add(false, ModuleKind::kFormatTransformation, row.name,
          {b.P("record", kStr, "SequenceRecord")},
          {b.P("converted", kStr, SeqFormatConcept(row.to))},
          [to = row.to](const std::vector<Value>& in) -> Result<std::vector<Value>> {
            auto data = ParseSequenceRecordAny(in[0].AsString());
            if (!data.ok()) return data.status();
            return One(RenderSequenceData(*data, to));
          },
          1, nullptr, /*popular_eligible=*/true);
  }

  // C3. NormalizeAccession (conciseness 0.1: 10 partitions, one code path).
  b.Add(false, ModuleKind::kFormatTransformation, "NormalizeAccession",
        {b.P("accession", kStr, "Accession")},
        {b.P("normalized", kStr, "Accession")},
        [](const std::vector<Value>& in) -> Result<std::vector<Value>> {
          std::string acc = Trim(in[0].AsString());
          if (acc.empty()) return Status::InvalidArgument("empty accession");
          return One(acc);
        },
        1, nullptr, /*popular_eligible=*/true);

  // C4. Directed pairwise converters, two providers each (34 modules).
  struct PairRow {
    SeqFormat from;
    SeqFormat to;
  };
  static const PairRow kPairs[] = {
      {SeqFormat::kUniprot, SeqFormat::kFasta},
      {SeqFormat::kUniprot, SeqFormat::kEmbl},
      {SeqFormat::kUniprot, SeqFormat::kGenBank},
      {SeqFormat::kUniprot, SeqFormat::kPdb},
      {SeqFormat::kFasta, SeqFormat::kUniprot},
      {SeqFormat::kFasta, SeqFormat::kEmbl},
      {SeqFormat::kFasta, SeqFormat::kGenBank},
      {SeqFormat::kFasta, SeqFormat::kPdb},
      {SeqFormat::kEmbl, SeqFormat::kUniprot},
      {SeqFormat::kEmbl, SeqFormat::kFasta},
      {SeqFormat::kEmbl, SeqFormat::kGenBank},
      {SeqFormat::kGenBank, SeqFormat::kUniprot},
      {SeqFormat::kGenBank, SeqFormat::kFasta},
      {SeqFormat::kGenBank, SeqFormat::kEmbl},
      {SeqFormat::kPdb, SeqFormat::kUniprot},
      {SeqFormat::kPdb, SeqFormat::kFasta},
      {SeqFormat::kEmbl, SeqFormat::kPdb},
  };
  auto format_tag = [](SeqFormat format) {
    switch (format) {
      case SeqFormat::kFasta:
        return "Fasta";
      case SeqFormat::kUniprot:
        return "Uniprot";
      case SeqFormat::kEmbl:
        return "EMBL";
      case SeqFormat::kGenBank:
        return "GenBank";
      case SeqFormat::kPdb:
        return "PDB";
    }
    return "Seq";
  };
  for (const PairRow& pair : kPairs) {
    for (const char* provider : {"EBI", "DDBJ"}) {
      // "To" (not "2") keeps converter names distinct from the id-mapping
      // family (EBI_Uniprot2EMBL maps accessions; EBI_UniprotToEMBL
      // converts records).
      std::string name = std::string(provider) + "_" + format_tag(pair.from) +
                         "To" + format_tag(pair.to);
      b.Add(false, ModuleKind::kFormatTransformation, name,
            {b.P("record", kStr, SeqFormatConcept(pair.from))},
            {b.P("converted", kStr, SeqFormatConcept(pair.to))},
            [from = pair.from,
             to = pair.to](const std::vector<Value>& in) -> Result<std::vector<Value>> {
              SeqFormat detected;
              auto data = ParseSequenceRecordAny(in[0].AsString(), &detected);
              if (!data.ok()) return data.status();
              if (detected != from) {
                return Status::InvalidArgument("input is not in the expected format");
              }
              return One(RenderSequenceData(*data, to));
            },
            1, nullptr, /*popular_eligible=*/true);
    }
  }

  // C5. Sequence-level transformations (6 modules).
  for (const char* provider : {"EBI", "EMBOSS"}) {
    b.Add(false, ModuleKind::kFormatTransformation,
          std::string(provider) + "_Transcribe",
          {b.P("dna", kStr, "DNASequence")}, {b.P("rna", kStr, "RNASequence")},
          [](const std::vector<Value>& in) -> Result<std::vector<Value>> {
            if (!IsValidSequence(in[0].AsString(), SeqAlphabet::kDna)) {
              return Status::InvalidArgument("not a DNA sequence");
            }
            return One(Transcribe(in[0].AsString()));
          },
          1, nullptr, /*popular_eligible=*/true);
    b.Add(false, ModuleKind::kFormatTransformation,
          std::string(provider) + "_ReverseTranscribe",
          {b.P("rna", kStr, "RNASequence")}, {b.P("dna", kStr, "DNASequence")},
          [](const std::vector<Value>& in) -> Result<std::vector<Value>> {
            if (!IsValidSequence(in[0].AsString(), SeqAlphabet::kRna)) {
              return Status::InvalidArgument("not an RNA sequence");
            }
            return One(ReverseTranscribe(in[0].AsString()));
          },
          1, nullptr, /*popular_eligible=*/true);
    b.Add(false, ModuleKind::kFormatTransformation,
          std::string(provider) + "_ReverseComplement",
          {b.P("dna", kStr, "DNASequence")}, {b.P("dna", kStr, "DNASequence")},
          [](const std::vector<Value>& in) -> Result<std::vector<Value>> {
            if (!IsValidSequence(in[0].AsString(), SeqAlphabet::kDna)) {
              return Status::InvalidArgument("not a DNA sequence");
            }
            return One(ReverseComplementDna(in[0].AsString()));
          },
          1, nullptr, /*popular_eligible=*/true);
  }
}

}  // namespace

Result<Corpus> BuildCorpus(const CorpusOptions& options) {
  Corpus corpus;
  corpus.kb = options.prebuilt_kb != nullptr
                  ? options.prebuilt_kb
                  : std::make_shared<KnowledgeBase>(options.seed);
  corpus.ontology = options.prebuilt_ontology != nullptr
                        ? options.prebuilt_ontology
                        : std::make_shared<Ontology>(BuildMyGridOntology());
  corpus.registry = std::make_shared<ModuleRegistry>();

  CorpusBuilder builder(&corpus);
  AddRetrievalModules(builder);
  AddMappingModules(builder);
  AddFormatModules(builder);
  corpus_internal::AddFilterModules(builder);
  corpus_internal::AddAnalysisModules(builder);
  corpus_internal::AddRetiredModules(builder);
  if (!builder.status().ok()) return builder.status();

  if (corpus.available_ids.size() != 252) {
    return Status::Internal(
        "corpus calibration bug: expected 252 available modules, built " +
        std::to_string(corpus.available_ids.size()));
  }
  if (corpus.retired_ids.size() != 72) {
    return Status::Internal(
        "corpus calibration bug: expected 72 decayed modules, built " +
        std::to_string(corpus.retired_ids.size()));
  }
  return corpus;
}

Status RetireDecayedModules(Corpus& corpus) {
  for (const std::string& id : corpus.retired_ids) {
    auto module = corpus.registry->Find(id);
    if (!module.ok()) return module.status();
    (*module)->Retire();
  }
  return Status::OK();
}

}  // namespace dexa
