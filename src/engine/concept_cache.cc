#include "engine/concept_cache.h"

#include <mutex>
#include <utility>

namespace dexa {

namespace {

/// Packs an ordered concept pair into one map key. ConceptIds are
/// non-negative 32-bit indices, so the pair fits losslessly.
uint64_t PairKey(ConceptId a, ConceptId b) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint64_t>(static_cast<uint32_t>(b));
}

}  // namespace

void ConceptCache::CountHit() const {
  hits_.fetch_add(1, std::memory_order_relaxed);
  if (metrics_ != nullptr) metrics_->Add(EngineCounter::cache_hits);
}

void ConceptCache::CountMiss() const {
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (metrics_ == nullptr) return;
  metrics_->Add(EngineCounter::cache_misses);
  // A miss against a compiled image is answered by a bitset word load /
  // precomputed-span copy rather than a DFS.
  if (view_->backend() == KbBackend::kImage) {
    metrics_->Add(EngineCounter::bitset_queries);
  }
}

void ConceptCache::CountQuery() const {
  queries_.fetch_add(1, std::memory_order_relaxed);
  if (metrics_ != nullptr) metrics_->Add(EngineCounter::cache_queries);
}

bool ConceptCache::IsSubsumedBy(ConceptId a, ConceptId b) const {
  CountQuery();
  const uint64_t key = PairKey(a, b);
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    auto it = subsumes_.find(key);
    if (it != subsumes_.end()) {
      CountHit();
      return it->second;
    }
  }
  CountMiss();
  const bool answer = view_->IsSubsumedBy(a, b);
  std::unique_lock<std::shared_mutex> lock(mutex_);
  return subsumes_.try_emplace(key, answer).first->second;
}

bool ConceptCache::Comparable(ConceptId a, ConceptId b) const {
  return IsSubsumedBy(a, b) || IsSubsumedBy(b, a);
}

const std::vector<ConceptId>& ConceptCache::Descendants(ConceptId c) const {
  CountQuery();
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    auto it = descendants_.find(c);
    if (it != descendants_.end()) {
      CountHit();
      return it->second;
    }
  }
  CountMiss();
  std::vector<ConceptId> answer = view_->Descendants(c);
  std::unique_lock<std::shared_mutex> lock(mutex_);
  return descendants_.try_emplace(c, std::move(answer)).first->second;
}

const std::vector<ConceptId>& ConceptCache::Partitions(ConceptId c) const {
  CountQuery();
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    auto it = partitions_.find(c);
    if (it != partitions_.end()) {
      CountHit();
      return it->second;
    }
  }
  CountMiss();
  std::vector<ConceptId> answer = view_->Partitions(c);
  std::unique_lock<std::shared_mutex> lock(mutex_);
  return partitions_.try_emplace(c, std::move(answer)).first->second;
}

ConceptId ConceptCache::LeastCommonSubsumer(ConceptId a, ConceptId b) const {
  CountQuery();
  // LCS is symmetric; normalize the key so both orders share one entry.
  const uint64_t key = a <= b ? PairKey(a, b) : PairKey(b, a);
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    auto it = lcs_.find(key);
    if (it != lcs_.end()) {
      CountHit();
      return it->second;
    }
  }
  CountMiss();
  const ConceptId answer = view_->LeastCommonSubsumer(a, b);
  std::unique_lock<std::shared_mutex> lock(mutex_);
  return lcs_.try_emplace(key, answer).first->second;
}

}  // namespace dexa
