#ifndef DEXA_ENGINE_CONCEPT_CACHE_H_
#define DEXA_ENGINE_CONCEPT_CACHE_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <utility>

#include "engine/metrics.h"
#include "kbimage/compiled_kb.h"
#include "ontology/ontology.h"

namespace dexa {

/// The handle the annotation pipeline reasons through: Subsumes,
/// Descendants, Partitions and least-common-subsumer (Section 3 of the
/// paper), answered by one shared compiled KB (kbimage::CompiledKb) — a
/// mapped image file, or the ontology compiled in memory at construction.
/// Every answer is a table read, so the handle memoizes nothing; it keeps
/// the name ConceptCache because the benchmark (perfbench/) builds it by
/// that name.
///
/// Each lookup counts as one engine `cache_queries` and one `cache_hits`
/// when constructed with metrics, so the engine ledger keeps reading the
/// query volume and a hit ratio of 1.
///
/// Thread safety: the KB is deep-immutable and the counters are engine
/// atomics, so all lookups may be called concurrently.
class ConceptCache {
 public:
  /// Compiles `ontology` in memory; the cache does not keep the pointer.
  /// A non-empty ontology always compiles, so a failure (an empty
  /// ontology) is a caller bug and aborts.
  explicit ConceptCache(const Ontology* ontology,
                        EngineMetrics* metrics = nullptr)
      : ConceptCache(CompileOrDie(*ontology), metrics) {}

  /// Reasons over an already loaded or compiled KB (e.g. --kb-image).
  explicit ConceptCache(std::shared_ptr<const kbimage::CompiledKb> kb,
                        EngineMetrics* metrics = nullptr)
      : kb_(std::move(kb)), metrics_(metrics) {}

  ConceptCache(const ConceptCache&) = delete;
  ConceptCache& operator=(const ConceptCache&) = delete;

  const kbimage::CompiledKb& kb() const { return *kb_; }

  /// a ⊑ b (reflexive).
  bool IsSubsumedBy(ConceptId a, ConceptId b) const {
    CountQuery();
    return kb_->IsSubsumedBy(a, b);
  }

  /// a ⊑ b or b ⊑ a; composed from two subsumption queries.
  bool Comparable(ConceptId a, ConceptId b) const {
    return IsSubsumedBy(a, b) || IsSubsumedBy(b, a);
  }

  /// Descendants of `c` including `c`, in Ontology::Descendants order.
  /// The span stays valid for the KB's lifetime.
  std::span<const ConceptId> Descendants(ConceptId c) const {
    CountQuery();
    return kb_->Descendants(c);
  }

  /// Realizable descendants of `c` (Section 3.1), in Ontology::Partitions
  /// order. The span stays valid for the KB's lifetime.
  std::span<const ConceptId> Partitions(ConceptId c) const {
    CountQuery();
    return kb_->Partitions(c);
  }

  ConceptId LeastCommonSubsumer(ConceptId a, ConceptId b) const {
    CountQuery();
    return kb_->LeastCommonSubsumer(a, b);
  }

 private:
  static std::shared_ptr<const kbimage::CompiledKb> CompileOrDie(
      const Ontology& ontology) {
    auto kb = kbimage::CompiledKb::Compile(ontology);
    if (!kb.ok()) {
      std::fprintf(stderr, "ConceptCache: %s\n",
                   kb.status().ToString().c_str());
      std::abort();
    }
    return std::move(kb).value();
  }

  void CountQuery() const {
    if (metrics_ == nullptr) return;
    metrics_->Add(EngineCounter::cache_queries);
    metrics_->Add(EngineCounter::cache_hits);
  }

  const std::shared_ptr<const kbimage::CompiledKb> kb_;
  EngineMetrics* const metrics_;
};

}  // namespace dexa

#endif  // DEXA_ENGINE_CONCEPT_CACHE_H_
