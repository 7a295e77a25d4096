#ifndef DEXA_KBIMAGE_COMPILED_KB_H_
#define DEXA_KBIMAGE_COMPILED_KB_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/io_env.h"
#include "common/result.h"
#include "kb/knowledge_base.h"
#include "kbimage/format.h"
#include "kbimage/string_table.h"
#include "ontology/ontology.h"

namespace dexa::kbimage {

/// The reasoner: a read-only view over a compiled KB image, keyed
/// exclusively by dense ConceptId (the ontology's insertion index — the
/// image stores ids verbatim). Names cross this boundary only at the
/// edges: FindConcept to intern a name once, ConceptName to render output.
///
/// Two ways in, one reader. Load maps an image file (`dexa compile-kb`);
/// Compile builds the same bytes in memory from an Ontology. Both run
/// the same Parse, which validates the whole damage ladder up front —
/// magic, version, size, SealHash64 seal, per-section CRC-32, structural
/// bounds — and any mismatch is a typed kCorrupted (never undefined
/// behavior; fuzz_test pins this the same way it pins journal recovery).
/// After that, every query is an in-place read of the image:
///
///   * IsSubsumedBy  — one bitset word load + mask;
///   * Descendants / Partitions — a span over a precomputed id list, in
///     the Ontology's exact deterministic order;
///   * LeastCommonSubsumer / Depth — matrix / array lookup.
///
/// Every answer equals the Ontology's own DFS answer (kbimage_test keeps
/// the Ontology as the differential oracle).
///
/// Thread safety: deep-immutable after Load/Compile; concurrent readers
/// need no synchronization.
class CompiledKb {
 public:
  [[nodiscard]] static Result<std::unique_ptr<CompiledKb>> Load(
      const std::string& path, IoEnv* io = nullptr);

  /// Compiles `ontology` in memory (CompileKbImage with an empty
  /// KnowledgeBase) and parses the bytes exactly as Load does. The only
  /// failure is an empty ontology (kInvalidArgument).
  [[nodiscard]] static Result<std::unique_ptr<CompiledKb>> Compile(
      const Ontology& ontology);

  ~CompiledKb();

  CompiledKb(const CompiledKb&) = delete;
  CompiledKb& operator=(const CompiledKb&) = delete;

  // -- Reasoning -----------------------------------------------------
  /// SealHash64 seal of the image. Durable runs started with --kb-image
  /// pin this in their run header so a resume refuses a swapped KB.
  uint64_t checksum() const { return seal_; }
  size_t ConceptCount() const { return concept_count_; }

  /// Name of `c`; the image owns the storage for its own lifetime.
  std::string_view ConceptName(ConceptId c) const;

  /// Interns a concept name; kInvalidConcept when absent. Boundary-only.
  ConceptId FindConcept(std::string_view name) const;

  /// True if `c`'s domain is covered by its sub-concepts (Section 3.2).
  bool Covered(ConceptId c) const;

  /// a ⊑ b, reflexive (Ontology::IsSubsumedBy semantics).
  bool IsSubsumedBy(ConceptId a, ConceptId b) const;

  /// Descendants of `c` including `c`, in Ontology::Descendants'
  /// pre-order child-rank order. Valid for the image's lifetime.
  std::span<const ConceptId> Descendants(ConceptId c) const;

  /// Partition set of `c` (realizable descendants, Section 3.1), in
  /// Ontology::Partitions order. Valid for the image's lifetime.
  std::span<const ConceptId> Partitions(ConceptId c) const;

  /// Deterministic least common subsumer (max depth, ties → smallest
  /// id); kInvalidConcept when `a` and `b` share no ancestor.
  ConceptId LeastCommonSubsumer(ConceptId a, ConceptId b) const;

  /// Longest parent-chain length to a root.
  int Depth(ConceptId c) const;

  // -- Image metadata ------------------------------------------------
  uint64_t kb_seed() const { return kb_seed_; }
  std::string_view ontology_name() const;
  size_t image_bytes() const { return map_.size(); }

  /// Rebuilds a full in-memory Ontology from the concept section. The
  /// reconstruction inserts concepts in stored id order, so it
  /// reproduces the original ids, names, edge order, and covered flags
  /// exactly (the backend-equivalence property).
  [[nodiscard]] Result<Ontology> MaterializeOntology() const;

  /// Decodes the entity section into a KnowledgeBase (deserialization +
  /// index build only — the expensive generative build is skipped; this
  /// is where the compiled image wins its cold-start budget).
  [[nodiscard]] Result<std::shared_ptr<KnowledgeBase>>
  MaterializeKnowledgeBase() const;

 private:
  CompiledKb() = default;

  [[nodiscard]] Status Parse();

  const char* Section(uint32_t id, size_t* size) const;

  /// The image bytes: a read-only file mapping (Load) or a heap copy
  /// (Compile).
  MmapRegion map_;

  // Parsed views into the image, indexed by SectionId (ids past
  // kEntities are not part of format version 1 and are ignored).
  struct SectionView {
    const char* data = nullptr;
    size_t size = 0;
  };
  std::array<SectionView, kEntities + 1> sections_{};
  StringTableView strings_;
  uint64_t seal_ = 0;
  uint64_t kb_seed_ = 0;
  uint32_t ontology_name_ref_ = 0;
  uint32_t concept_count_ = 0;
  uint32_t words_per_row_ = 0;

  const uint32_t* concept_name_refs_ = nullptr;
  const uint32_t* concept_covered_ = nullptr;
  const uint64_t* subsumption_ = nullptr;
  const uint32_t* descendant_offsets_ = nullptr;
  const uint32_t* descendant_ids_ = nullptr;
  const uint32_t* partition_offsets_ = nullptr;
  const uint32_t* partition_ids_ = nullptr;
  const uint32_t* lcs_ = nullptr;
  const uint32_t* depths_ = nullptr;
  const uint32_t* parent_offsets_ = nullptr;
  const uint32_t* parent_ids_ = nullptr;
  const uint32_t* child_offsets_ = nullptr;
  const uint32_t* child_ids_ = nullptr;

  /// Concept ids sorted by (name, id), for the FindConcept boundary.
  std::vector<ConceptId> by_name_;
};

}  // namespace dexa::kbimage

#endif  // DEXA_KBIMAGE_COMPILED_KB_H_
