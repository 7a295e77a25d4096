#ifndef DEXA_ONTOLOGY_ONTOLOGY_H_
#define DEXA_ONTOLOGY_ONTOLOGY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace dexa {

/// Index of a concept within its Ontology. Stable for the ontology's
/// lifetime; concepts are never removed.
using ConceptId = int32_t;

inline constexpr ConceptId kInvalidConcept = -1;

/// A node in the subsumption hierarchy.
///
/// `covered` implements the realization rule of Section 3.2 of the paper:
/// a concept whose domain is entirely covered by the domains of its
/// sub-concepts has no *realization* (no instance that belongs to it but to
/// none of its strict sub-concepts), so no data example is created for it —
/// it is represented by the data examples of its sub-concepts.
struct Concept {
  ConceptId id = kInvalidConcept;
  std::string name;
  std::vector<ConceptId> parents;
  std::vector<ConceptId> children;
  bool covered = false;
};

/// A domain ontology: a DAG of concepts under the subsumption ("is-a")
/// relationship, in the style of the myGrid ontology used by the paper for
/// annotating module parameters.
///
/// The class offers the reasoning primitives the data-example heuristic
/// needs: subsumption tests, descendant/ancestor enumeration, and the
/// partition set of a concept (its realizable sub-concepts, Section 3.1).
class Ontology {
 public:
  explicit Ontology(std::string name = "ontology") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Adds a root concept (no parents). Fails with AlreadyExists if the name
  /// is taken.
  [[nodiscard]] Result<ConceptId> AddRoot(const std::string& name, bool covered = false);

  /// Adds a concept subsumed by `parents` (all must exist). Fails with
  /// AlreadyExists / NotFound accordingly.
  [[nodiscard]] Result<ConceptId> AddConcept(const std::string& name,
                               const std::vector<std::string>& parents,
                               bool covered = false);

  /// Marks/unmarks a concept's domain as covered by its sub-concepts.
  [[nodiscard]] Status SetCovered(ConceptId c, bool covered);

  size_t size() const { return concepts_.size(); }

  /// Returns the concept with `id`; `id` must be valid.
  const Concept& Get(ConceptId id) const { return concepts_.at(static_cast<size_t>(id)); }

  /// Looks a concept up by name; kInvalidConcept if absent.
  ConceptId Find(std::string_view name) const;

  /// Like Find but fails loudly; convenient for builders over known schemas.
  [[nodiscard]] Result<ConceptId> Require(const std::string& name) const;

  const std::string& NameOf(ConceptId id) const { return Get(id).name; }

  /// True iff `a` is subsumed by `b` (a ⊑ b), reflexively.
  bool IsSubsumedBy(ConceptId a, ConceptId b) const;

  /// True iff a ⊑ b or b ⊑ a.
  bool Comparable(ConceptId a, ConceptId b) const;

  /// All concepts subsumed by `c`, including `c` itself, in a deterministic
  /// (pre-order, child-rank) order.
  std::vector<ConceptId> Descendants(ConceptId c) const;

  /// Descendants(c) minus c itself.
  std::vector<ConceptId> StrictDescendants(ConceptId c) const;

  /// All concepts subsuming `c`, including `c` itself.
  std::vector<ConceptId> Ancestors(ConceptId c) const;

  /// Concepts with no children among Descendants(c).
  std::vector<ConceptId> LeavesUnder(ConceptId c) const;

  /// The partition set of `c` (Section 3.1): every realizable concept in
  /// the subtree rooted at `c`, i.e. every descendant (including `c`) that
  /// is not `covered`. Each element identifies one equivalence partition of
  /// the domain of a parameter annotated with `c`.
  std::vector<ConceptId> Partitions(ConceptId c) const;

  /// Depth of `c`: length of the longest parent chain to a root.
  int Depth(ConceptId c) const;

  /// A least common subsumer of `a` and `b`: a common ancestor of maximal
  /// depth (ties broken by smallest id, deterministically).
  ConceptId LeastCommonSubsumer(ConceptId a, ConceptId b) const;

  /// Root concepts (no parents).
  std::vector<ConceptId> Roots() const;

  /// All concept ids in insertion order.
  std::vector<ConceptId> AllConcepts() const;

  /// Serializes to the dexa ontology DSL (see ontology_parser.h).
  std::string ToDsl() const;

  /// Consistency audit. Returns human-readable warnings for modeling
  /// smells that break partition semantics:
  ///  * a covered concept with no children (its domain can never be
  ///    instantiated: no realization and no sub-concept instances);
  ///  * a concept subsuming itself through a parent cycle (impossible to
  ///    build through AddConcept, but reachable via future mutation APIs —
  ///    checked defensively).
  std::vector<std::string> Audit() const;

 private:
  std::string name_;
  std::vector<Concept> concepts_;
  /// std::hash<std::string>'s hash, also over views, so Find looks a view
  /// up without building a string.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };
  std::unordered_map<std::string, ConceptId, NameHash, std::equal_to<>>
      by_name_;
};

}  // namespace dexa

#endif  // DEXA_ONTOLOGY_ONTOLOGY_H_
