#include "kbimage/compiled_kb.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/crc32.h"
#include "common/io_env.h"
#include "common/rng.h"
#include "kbimage/builder.h"
#include "kbimage/entity_codec.h"
#include "kbimage/format.h"
#include "kbimage/seal.h"

namespace dexa::kbimage {

namespace {

/// True when `p` (an address inside the mapping) satisfies the format's
/// section alignment, so reinterpreting it as a u32/u64 array is safe
/// under the fatal UBSan alignment check.
bool Aligned(const char* p) {
  return reinterpret_cast<uintptr_t>(p) % kSectionAlign == 0;
}

/// Row `c` of an id-list CSR. The image stores ids as u32 and ConceptId is
/// int32_t; a signed/unsigned pair of one width may alias, and Parse
/// bounded every id below the concept count, so the values are unchanged.
std::span<const ConceptId> CsrRow(const uint32_t* offsets, const uint32_t* ids,
                                  ConceptId c) {
  const size_t i = static_cast<size_t>(c);
  return {reinterpret_cast<const ConceptId*>(ids + offsets[i]),
          offsets[i + 1] - offsets[i]};
}

}  // namespace

CompiledKb::~CompiledKb() = default;

Result<std::unique_ptr<CompiledKb>> CompiledKb::Load(const std::string& path,
                                                     IoEnv* io) {
  IoEnv& env = io != nullptr ? *io : IoEnv::Real();
  auto region = env.MapReadOnly(path);
  if (!region.ok()) {
    if (region.status().IsNotFound()) {
      return Status::NotFound("cannot open KB image '" + path + "'");
    }
    return region.status();
  }
  if (region->size() < sizeof(ImageHeader)) {
    return Status::Corrupted("KB image '" + path +
                             "' is shorter than its header");
  }

  std::unique_ptr<CompiledKb> kb(new CompiledKb());
  kb->map_ = std::move(*region);
  Status parsed = kb->Parse();
  if (!parsed.ok()) return parsed;
  return kb;
}

Result<std::unique_ptr<CompiledKb>> CompiledKb::Compile(
    const Ontology& ontology) {
  const KnowledgeBase no_entities{KnowledgeBaseData{}};
  auto image = CompileKbImage(ontology, no_entities);
  if (!image.ok()) return image.status();
  // operator new[] aligns for any fundamental type, which covers the
  // format's 8-byte section alignment.
  char* bytes = new char[image->size()];
  std::memcpy(bytes, image->data(), image->size());

  std::unique_ptr<CompiledKb> kb(new CompiledKb());
  kb->map_ = MmapRegion(bytes, image->size(), /*unmap=*/false);
  Status parsed = kb->Parse();
  if (!parsed.ok()) return parsed;
  return kb;
}

const char* CompiledKb::Section(uint32_t id, size_t* size) const {
  if (id >= sections_.size() || sections_[id].data == nullptr) return nullptr;
  *size = sections_[id].size;
  return sections_[id].data;
}

Status CompiledKb::Parse() {
  const char* base = static_cast<const char*>(map_.data());

  ImageHeader header;
  std::memcpy(&header, base, sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corrupted("KB image magic mismatch (not a dexa KB image)");
  }
  if (header.version != kFormatVersion) {
    return Status::Corrupted("KB image format version " +
                             std::to_string(header.version) +
                             " is not the supported version " +
                             std::to_string(kFormatVersion));
  }
  for (uint8_t byte : header.reserved) {
    // The seal only covers bytes past the header, so the reserved pad is
    // checked explicitly — every header byte has exactly one validator.
    if (byte != 0) {
      return Status::Corrupted("KB image header reserved bytes are not zero");
    }
  }
  if (header.file_size != map_.size()) {
    return Status::Corrupted("KB image truncated: header declares " +
                             std::to_string(header.file_size) +
                             " bytes, file has " +
                             std::to_string(map_.size()));
  }
  // Whole-image seal first: any byte of any section (or the table) that
  // changed since compile time fails here, before anything is trusted.
  // The per-section CRCs live inside the sealed range, so a matching
  // seal implies every CRC matches too — the CRC sweep runs only on
  // seal failure, to name the damaged section (cold start pays one scan,
  // not two; see bench_kb_coldstart).
  const size_t table_bytes =
      static_cast<size_t>(header.sections) * sizeof(SectionEntry);
  if (sizeof(ImageHeader) + table_bytes > map_.size()) {
    return Status::Corrupted("KB image section table exceeds the file");
  }
  const uint64_t seal = SealHash64(std::string_view(
      base + sizeof(ImageHeader), map_.size() - sizeof(ImageHeader)));
  const bool sealed = seal == header.seal;
  for (uint32_t i = 0; i < header.sections; ++i) {
    SectionEntry entry;
    std::memcpy(&entry, base + sizeof(ImageHeader) + i * sizeof(SectionEntry),
                sizeof(entry));
    if (entry.offset % kSectionAlign != 0 || entry.offset > map_.size() ||
        entry.size > map_.size() - entry.offset) {
      return Status::Corrupted("KB image section " + std::to_string(entry.id) +
                               " lies outside the file or is misaligned");
    }
    const char* payload = base + entry.offset;
    if (!sealed &&
        Crc32(std::string_view(payload, entry.size)) != entry.crc32) {
      return Status::Corrupted("KB image section " + std::to_string(entry.id) +
                               " CRC32 mismatch");
    }
    if (entry.id < sections_.size()) {
      sections_[entry.id] = {payload, entry.size};
    }
  }
  if (!sealed) {
    // Damage outside any section payload (the table itself, or padding).
    return Status::Corrupted("KB image seal mismatch (SealHash64 " +
                             std::to_string(seal) + " vs sealed " +
                             std::to_string(header.seal) + ")");
  }
  seal_ = header.seal;

  // -- Meta ----------------------------------------------------------
  size_t size = 0;
  const char* meta = Section(kMeta, &size);
  if (meta == nullptr || size != 24) {
    return Status::Corrupted("KB image meta section missing or malformed");
  }
  std::memcpy(&kb_seed_, meta, 8);
  std::memcpy(&ontology_name_ref_, meta + 8, 4);
  std::memcpy(&concept_count_, meta + 12, 4);
  std::memcpy(&words_per_row_, meta + 16, 4);
  const size_t n = concept_count_;
  if (n == 0 || words_per_row_ != (n + 63) / 64) {
    return Status::Corrupted("KB image meta declares inconsistent geometry");
  }

  // -- Strings -------------------------------------------------------
  const char* strings = Section(kStrings, &size);
  if (strings == nullptr) {
    return Status::Corrupted("KB image string table missing");
  }
  auto table = StringTableView::Parse(strings, size);
  if (!table.ok()) return table.status();
  strings_ = *table;
  if (!strings_.Valid(ontology_name_ref_)) {
    return Status::Corrupted("KB image ontology name ref dangles");
  }

  // -- Concepts ------------------------------------------------------
  const char* concepts = Section(kConcepts, &size);
  const size_t fixed = 4 + n * 8 + (n + 1) * 8;
  if (concepts == nullptr || size < fixed || !Aligned(concepts)) {
    return Status::Corrupted("KB image concept section missing or too small");
  }
  uint32_t stored_count = 0;
  std::memcpy(&stored_count, concepts, 4);
  if (stored_count != n) {
    return Status::Corrupted("KB image concept count disagrees with meta");
  }
  // The count is followed by u32 arrays only, so the +4 offset keeps
  // 4-byte alignment for every array that follows.
  concept_name_refs_ = reinterpret_cast<const uint32_t*>(concepts + 4);
  concept_covered_ = concept_name_refs_ + n;
  parent_offsets_ = concept_covered_ + n;
  child_offsets_ = parent_offsets_ + (n + 1);
  parent_ids_ = child_offsets_ + (n + 1);
  const uint32_t parent_total = parent_offsets_[n];
  const uint32_t child_total = child_offsets_[n];
  if (size != fixed + (static_cast<size_t>(parent_total) + child_total) * 4) {
    return Status::Corrupted("KB image concept edge arrays are truncated");
  }
  child_ids_ = parent_ids_ + parent_total;
  for (size_t c = 0; c < n; ++c) {
    if (!strings_.Valid(concept_name_refs_[c])) {
      return Status::Corrupted("KB image concept name ref dangles");
    }
    if (parent_offsets_[c] > parent_offsets_[c + 1] ||
        child_offsets_[c] > child_offsets_[c + 1]) {
      return Status::Corrupted("KB image concept edge offsets not monotone");
    }
  }
  for (uint32_t i = 0; i < parent_total; ++i) {
    if (parent_ids_[i] >= n) {
      return Status::Corrupted("KB image parent id out of range");
    }
  }
  for (uint32_t i = 0; i < child_total; ++i) {
    if (child_ids_[i] >= n) {
      return Status::Corrupted("KB image child id out of range");
    }
  }

  // -- Subsumption bitsets ------------------------------------------
  const char* subsumption = Section(kSubsumption, &size);
  if (subsumption == nullptr || size != n * words_per_row_ * 8 ||
      !Aligned(subsumption)) {
    return Status::Corrupted("KB image subsumption matrix missing or mis-sized");
  }
  subsumption_ = reinterpret_cast<const uint64_t*>(subsumption);

  // -- Descendants / partitions -------------------------------------
  const struct {
    uint32_t id;
    const uint32_t** offsets;
    const uint32_t** ids;
    const char* what;
  } spans[] = {
      {kDescendants, &descendant_offsets_, &descendant_ids_, "descendant"},
      {kPartitions, &partition_offsets_, &partition_ids_, "partition"},
  };
  for (const auto& span : spans) {
    const char* data = Section(span.id, &size);
    if (data == nullptr || size < (n + 1) * 4 || !Aligned(data)) {
      return Status::Corrupted(std::string("KB image ") + span.what +
                               " section missing or too small");
    }
    *span.offsets = reinterpret_cast<const uint32_t*>(data);
    *span.ids = *span.offsets + (n + 1);
    const uint32_t total = (*span.offsets)[n];
    if (size != (n + 1) * 4 + static_cast<size_t>(total) * 4) {
      return Status::Corrupted(std::string("KB image ") + span.what +
                               " ids are truncated");
    }
    for (size_t c = 0; c < n; ++c) {
      if ((*span.offsets)[c] > (*span.offsets)[c + 1]) {
        return Status::Corrupted(std::string("KB image ") + span.what +
                                 " offsets not monotone");
      }
    }
    for (uint32_t i = 0; i < total; ++i) {
      if ((*span.ids)[i] >= n) {
        return Status::Corrupted(std::string("KB image ") + span.what +
                                 " id out of range");
      }
    }
  }

  // -- LCS matrix / depths ------------------------------------------
  const char* lcs = Section(kLcs, &size);
  if (lcs == nullptr || size != n * n * 4 || !Aligned(lcs)) {
    return Status::Corrupted("KB image LCS matrix missing or mis-sized");
  }
  lcs_ = reinterpret_cast<const uint32_t*>(lcs);
  for (size_t i = 0; i < n * n; ++i) {
    // 0xFFFFFFFF is kInvalidConcept: concepts under different roots have
    // no common subsumer, and the matrix stores the sentinel verbatim.
    if (lcs_[i] >= n && lcs_[i] != static_cast<uint32_t>(kInvalidConcept)) {
      return Status::Corrupted("KB image LCS entry out of range");
    }
  }
  const char* depths = Section(kDepths, &size);
  if (depths == nullptr || size != n * 4 || !Aligned(depths)) {
    return Status::Corrupted("KB image depth array missing or mis-sized");
  }
  depths_ = reinterpret_cast<const uint32_t*>(depths);

  if (Section(kEntities, &size) == nullptr) {
    return Status::Corrupted("KB image entity section missing");
  }

  by_name_.resize(n);
  for (size_t c = 0; c < n; ++c) by_name_[c] = static_cast<ConceptId>(c);
  std::stable_sort(by_name_.begin(), by_name_.end(),
                   [this](ConceptId a, ConceptId b) {
                     return ConceptName(a) < ConceptName(b);
                   });
  return Status::OK();
}

std::string_view CompiledKb::ConceptName(ConceptId c) const {
  return strings_.Get(concept_name_refs_[static_cast<size_t>(c)]);
}

ConceptId CompiledKb::FindConcept(std::string_view name) const {
  auto it = std::lower_bound(by_name_.begin(), by_name_.end(), name,
                             [this](ConceptId c, std::string_view key) {
                               return ConceptName(c) < key;
                             });
  return it != by_name_.end() && ConceptName(*it) == name ? *it
                                                          : kInvalidConcept;
}

bool CompiledKb::Covered(ConceptId c) const {
  return concept_covered_[static_cast<size_t>(c)] != 0;
}

bool CompiledKb::IsSubsumedBy(ConceptId a, ConceptId b) const {
  const size_t row = static_cast<size_t>(a) * words_per_row_;
  const size_t bit = static_cast<size_t>(b);
  return (subsumption_[row + bit / 64] >> (bit % 64)) & 1;
}

std::span<const ConceptId> CompiledKb::Descendants(ConceptId c) const {
  return CsrRow(descendant_offsets_, descendant_ids_, c);
}

std::span<const ConceptId> CompiledKb::Partitions(ConceptId c) const {
  return CsrRow(partition_offsets_, partition_ids_, c);
}

ConceptId CompiledKb::LeastCommonSubsumer(ConceptId a, ConceptId b) const {
  return static_cast<ConceptId>(
      lcs_[static_cast<size_t>(a) * concept_count_ + static_cast<size_t>(b)]);
}

int CompiledKb::Depth(ConceptId c) const {
  return static_cast<int>(depths_[static_cast<size_t>(c)]);
}

std::string_view CompiledKb::ontology_name() const {
  return strings_.Get(ontology_name_ref_);
}

Result<Ontology> CompiledKb::MaterializeOntology() const {
  Ontology ontology{std::string(ontology_name())};
  const size_t n = concept_count_;
  for (size_t c = 0; c < n; ++c) {
    const std::string name(ConceptName(static_cast<ConceptId>(c)));
    const bool covered = Covered(static_cast<ConceptId>(c));
    const uint32_t begin = parent_offsets_[c];
    const uint32_t end = parent_offsets_[c + 1];
    if (begin == end) {
      auto added = ontology.AddRoot(name, covered);
      if (!added.ok()) return added.status();
      if (*added != static_cast<ConceptId>(c)) {
        return Status::Corrupted("KB image concept ids are not dense");
      }
      continue;
    }
    std::vector<std::string> parents;
    parents.reserve(end - begin);
    for (uint32_t i = begin; i < end; ++i) {
      // Parents always precede children in insertion order, so the id
      // check below also guards against forward references.
      if (parent_ids_[i] >= c) {
        return Status::Corrupted(
            "KB image parent does not precede its child");
      }
      parents.emplace_back(ConceptName(static_cast<ConceptId>(parent_ids_[i])));
    }
    auto added = ontology.AddConcept(name, parents, covered);
    if (!added.ok()) return added.status();
    if (*added != static_cast<ConceptId>(c)) {
      return Status::Corrupted("KB image concept ids are not dense");
    }
  }
  return ontology;
}

Result<std::shared_ptr<KnowledgeBase>> CompiledKb::MaterializeKnowledgeBase()
    const {
  size_t size = 0;
  const char* data = Section(kEntities, &size);
  EntityReader ar(&strings_, data, size);
  KnowledgeBaseData out;
  out.seed = kb_seed_;
  ReadEntityVec(ar, out.proteins,
                [](EntityReader& r, ProteinEntity& e) { ProteinFields(r, e); });
  ReadEntityVec(ar, out.genes,
                [](EntityReader& r, GeneEntity& e) { GeneFields(r, e); });
  ReadEntityVec(ar, out.pathways,
                [](EntityReader& r, PathwayEntity& e) { PathwayFields(r, e); });
  ReadEntityVec(ar, out.go_terms,
                [](EntityReader& r, GoTermEntity& e) { GoTermFields(r, e); });
  ReadEntityVec(ar, out.enzymes,
                [](EntityReader& r, EnzymeEntity& e) { EnzymeFields(r, e); });
  ReadEntityVec(ar, out.glycans,
                [](EntityReader& r, GlycanEntity& e) { GlycanFields(r, e); });
  ReadEntityVec(ar, out.ligands,
                [](EntityReader& r, LigandEntity& e) { LigandFields(r, e); });
  ReadEntityVec(ar, out.compounds,
                [](EntityReader& r, CompoundEntity& e) { CompoundFields(r, e); });
  ReadEntityVec(ar, out.diseases,
                [](EntityReader& r, DiseaseEntity& e) { DiseaseFields(r, e); });
  ReadEntityVec(ar, out.interpro,
                [](EntityReader& r, InterProEntity& e) { InterProFields(r, e); });
  ReadEntityVec(ar, out.pfam,
                [](EntityReader& r, PfamEntity& e) { PfamFields(r, e); });
  ReadEntityVec(ar, out.documents,
                [](EntityReader& r, DocumentEntity& e) { DocumentFields(r, e); });
  if (!ar.ok() || !ar.exhausted()) {
    return Status::Corrupted(
        "KB image entity stream is malformed (overrun or dangling ref)");
  }
  return std::make_shared<KnowledgeBase>(std::move(out));
}

}  // namespace dexa::kbimage
