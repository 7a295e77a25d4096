#include "kbimage/builder.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "kbimage/entity_codec.h"
#include "kbimage/format.h"
#include "kbimage/seal.h"
#include "kbimage/string_table.h"

namespace dexa::kbimage {

namespace {

void AppendU32(std::string& out, uint32_t v) {
  char bytes[4];
  std::memcpy(bytes, &v, sizeof(v));
  out.append(bytes, sizeof(bytes));
}

void AppendU64(std::string& out, uint64_t v) {
  char bytes[8];
  std::memcpy(bytes, &v, sizeof(v));
  out.append(bytes, sizeof(bytes));
}

void AppendIdVec(std::string& out, const std::vector<ConceptId>& ids) {
  for (ConceptId id : ids) AppendU32(out, static_cast<uint32_t>(id));
}

std::string BuildConceptsSection(const Ontology& ontology,
                                 StringTable& strings) {
  const size_t n = ontology.size();
  std::string out;
  AppendU32(out, static_cast<uint32_t>(n));
  for (size_t c = 0; c < n; ++c) {
    AppendU32(out, strings.Intern(ontology.NameOf(static_cast<ConceptId>(c))));
  }
  for (size_t c = 0; c < n; ++c) {
    AppendU32(out, ontology.Get(static_cast<ConceptId>(c)).covered ? 1 : 0);
  }
  uint32_t offset = 0;
  for (size_t c = 0; c < n; ++c) {
    AppendU32(out, offset);
    offset +=
        static_cast<uint32_t>(ontology.Get(static_cast<ConceptId>(c)).parents.size());
  }
  AppendU32(out, offset);
  offset = 0;
  for (size_t c = 0; c < n; ++c) {
    AppendU32(out, offset);
    offset +=
        static_cast<uint32_t>(ontology.Get(static_cast<ConceptId>(c)).children.size());
  }
  AppendU32(out, offset);
  for (size_t c = 0; c < n; ++c) {
    AppendIdVec(out, ontology.Get(static_cast<ConceptId>(c)).parents);
  }
  for (size_t c = 0; c < n; ++c) {
    AppendIdVec(out, ontology.Get(static_cast<ConceptId>(c)).children);
  }
  return out;
}

/// The subsumption closure of the concept DAG: row `a`, bit `b` set iff
/// a ⊑ b, plus each concept's depth. Ids are insertion order and
/// AddConcept requires every parent to exist, so parents precede their
/// children and one pass in id order sees each parent's row and depth
/// before its children's.
struct Closure {
  uint32_t words_per_row = 0;
  std::vector<uint64_t> rows;  // n × words_per_row
  std::vector<uint32_t> depths;

  const uint64_t* Row(size_t c) const { return &rows[c * words_per_row]; }
};

Closure BuildClosure(const Ontology& ontology, uint32_t words_per_row) {
  const size_t n = ontology.size();
  Closure closure;
  closure.words_per_row = words_per_row;
  closure.rows.assign(n * words_per_row, 0);
  closure.depths.assign(n, 0);
  for (size_t c = 0; c < n; ++c) {
    uint64_t* row = &closure.rows[c * words_per_row];
    row[c / 64] |= uint64_t{1} << (c % 64);
    for (ConceptId p : ontology.Get(static_cast<ConceptId>(c)).parents) {
      const size_t parent = static_cast<size_t>(p);
      const uint64_t* parent_row = closure.Row(parent);
      for (uint32_t w = 0; w < words_per_row; ++w) row[w] |= parent_row[w];
      closure.depths[c] =
          std::max(closure.depths[c], closure.depths[parent] + 1);
    }
  }
  return closure;
}

std::string BuildSubsumptionSection(const Closure& closure) {
  std::string out;
  out.reserve(closure.rows.size() * 8);
  for (uint64_t word : closure.rows) AppendU64(out, word);
  return out;
}

std::string BuildIdListSection(const Ontology& ontology,
                               std::vector<ConceptId> (Ontology::*fn)(ConceptId)
                                   const) {
  const size_t n = ontology.size();
  std::string offsets;
  std::string flat;
  uint32_t total = 0;
  for (size_t c = 0; c < n; ++c) {
    AppendU32(offsets, total);
    const std::vector<ConceptId> ids =
        (ontology.*fn)(static_cast<ConceptId>(c));
    total += static_cast<uint32_t>(ids.size());
    AppendIdVec(flat, ids);
  }
  AppendU32(offsets, total);
  return offsets + flat;
}

/// LCS(a, b) is the deepest set bit of row_a & row_b; scanning bits in
/// ascending id order and keeping only strictly deeper ones sends ties to
/// the smallest id (Ontology::LeastCommonSubsumer's rule). No common bit
/// leaves the kInvalidConcept sentinel.
std::string BuildLcsSection(const Closure& closure) {
  const size_t n = closure.depths.size();
  std::vector<uint32_t> lcs(n * n, static_cast<uint32_t>(kInvalidConcept));
  for (size_t a = 0; a < n; ++a) {
    const uint64_t* row_a = closure.Row(a);
    for (size_t b = a; b < n; ++b) {
      const uint64_t* row_b = closure.Row(b);
      uint32_t best = static_cast<uint32_t>(kInvalidConcept);
      for (uint32_t w = 0; w < closure.words_per_row; ++w) {
        for (uint64_t common = row_a[w] & row_b[w]; common != 0;
             common &= common - 1) {
          const uint32_t x = w * 64 + static_cast<uint32_t>(
                                          std::countr_zero(common));
          if (best == static_cast<uint32_t>(kInvalidConcept) ||
              closure.depths[x] > closure.depths[best]) {
            best = x;
          }
        }
      }
      lcs[a * n + b] = best;
      lcs[b * n + a] = best;
    }
  }
  std::string out;
  out.reserve(lcs.size() * 4);
  for (uint32_t id : lcs) AppendU32(out, id);
  return out;
}

std::string BuildDepthsSection(const Closure& closure) {
  std::string out;
  out.reserve(closure.depths.size() * 4);
  for (uint32_t depth : closure.depths) AppendU32(out, depth);
  return out;
}

std::string BuildEntitiesSection(const KnowledgeBase& kb,
                                 StringTable& strings) {
  std::string out;
  EntityWriter ar(&strings, &out);
  WriteEntityVec(ar, kb.proteins(),
                 [](EntityWriter& w, const ProteinEntity& e) { ProteinFields(w, e); });
  WriteEntityVec(ar, kb.genes(),
                 [](EntityWriter& w, const GeneEntity& e) { GeneFields(w, e); });
  WriteEntityVec(ar, kb.pathways(),
                 [](EntityWriter& w, const PathwayEntity& e) { PathwayFields(w, e); });
  WriteEntityVec(ar, kb.go_terms(),
                 [](EntityWriter& w, const GoTermEntity& e) { GoTermFields(w, e); });
  WriteEntityVec(ar, kb.enzymes(),
                 [](EntityWriter& w, const EnzymeEntity& e) { EnzymeFields(w, e); });
  WriteEntityVec(ar, kb.glycans(),
                 [](EntityWriter& w, const GlycanEntity& e) { GlycanFields(w, e); });
  WriteEntityVec(ar, kb.ligands(),
                 [](EntityWriter& w, const LigandEntity& e) { LigandFields(w, e); });
  WriteEntityVec(ar, kb.compounds(),
                 [](EntityWriter& w, const CompoundEntity& e) { CompoundFields(w, e); });
  WriteEntityVec(ar, kb.diseases(),
                 [](EntityWriter& w, const DiseaseEntity& e) { DiseaseFields(w, e); });
  WriteEntityVec(ar, kb.interpro(),
                 [](EntityWriter& w, const InterProEntity& e) { InterProFields(w, e); });
  WriteEntityVec(ar, kb.pfam(),
                 [](EntityWriter& w, const PfamEntity& e) { PfamFields(w, e); });
  WriteEntityVec(ar, kb.documents(),
                 [](EntityWriter& w, const DocumentEntity& e) { DocumentFields(w, e); });
  return out;
}

}  // namespace

Result<std::string> CompileKbImage(const Ontology& ontology,
                                   const KnowledgeBase& kb) {
  const size_t n = ontology.size();
  if (n == 0) {
    return Status::InvalidArgument("cannot compile an empty ontology");
  }
  const uint32_t words_per_row = static_cast<uint32_t>((n + 63) / 64);
  const Closure closure = BuildClosure(ontology, words_per_row);

  StringTable strings;
  // Intern in a fixed order (meta, concepts, entities) so recompiling
  // identical inputs reproduces identical refs, bytes, and seal.
  const uint32_t ontology_name_ref = strings.Intern(ontology.name());

  struct Payload {
    uint32_t id;
    std::string bytes;
  };
  std::vector<Payload> payloads;
  payloads.push_back({kConcepts, BuildConceptsSection(ontology, strings)});
  payloads.push_back({kSubsumption, BuildSubsumptionSection(closure)});
  payloads.push_back(
      {kDescendants, BuildIdListSection(ontology, &Ontology::Descendants)});
  payloads.push_back(
      {kPartitions, BuildIdListSection(ontology, &Ontology::Partitions)});
  payloads.push_back({kLcs, BuildLcsSection(closure)});
  payloads.push_back({kDepths, BuildDepthsSection(closure)});
  payloads.push_back({kEntities, BuildEntitiesSection(kb, strings)});

  std::string meta;
  AppendU64(meta, kb.seed());
  AppendU32(meta, ontology_name_ref);
  AppendU32(meta, static_cast<uint32_t>(n));
  AppendU32(meta, words_per_row);
  AppendU32(meta, 0);  // reserved
  payloads.insert(payloads.begin(), {kMeta, std::move(meta)});
  // The string table serializes after every other section interned into
  // it; its position in the file is still right after kMeta.
  payloads.insert(payloads.begin() + 1, {kStrings, strings.Serialize()});

  const size_t table_bytes = payloads.size() * sizeof(SectionEntry);
  size_t cursor = sizeof(ImageHeader) + table_bytes;
  cursor = (cursor + kSectionAlign - 1) & ~(kSectionAlign - 1);

  std::vector<SectionEntry> table;
  table.reserve(payloads.size());
  for (const Payload& p : payloads) {
    SectionEntry entry;
    entry.id = p.id;
    entry.crc32 = Crc32(p.bytes);
    entry.offset = cursor;
    entry.size = p.bytes.size();
    table.push_back(entry);
    cursor += p.bytes.size();
    cursor = (cursor + kSectionAlign - 1) & ~(kSectionAlign - 1);
  }

  ImageHeader header;
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kFormatVersion;
  header.sections = static_cast<uint32_t>(payloads.size());
  header.file_size = cursor;

  std::string image;
  image.reserve(cursor);
  image.append(reinterpret_cast<const char*>(&header), sizeof(header));
  for (const SectionEntry& entry : table) {
    image.append(reinterpret_cast<const char*>(&entry), sizeof(entry));
  }
  for (size_t i = 0; i < payloads.size(); ++i) {
    image.append(table[i].offset - image.size(), '\0');
    image += payloads[i].bytes;
  }
  image.append(cursor - image.size(), '\0');

  // Seal everything after the header, then patch the header in place.
  header.seal = SealHash64(
      std::string_view(image).substr(sizeof(ImageHeader)));
  std::memcpy(image.data(), &header, sizeof(header));
  return image;
}

Status WriteKbImage(const Ontology& ontology, const KnowledgeBase& kb,
                    const std::string& path, IoEnv* io) {
  auto image = CompileKbImage(ontology, kb);
  if (!image.ok()) return image.status();
  return WriteFileAtomic(io != nullptr ? *io : IoEnv::Real(), path, *image);
}

}  // namespace dexa::kbimage
