#include "ontology/ontology.h"

#include <algorithm>
#include <functional>

namespace dexa {

Result<ConceptId> Ontology::AddRoot(const std::string& name, bool covered) {
  return AddConcept(name, {}, covered);
}

Result<ConceptId> Ontology::AddConcept(const std::string& name,
                                       const std::vector<std::string>& parents,
                                       bool covered) {
  if (name.empty()) {
    return Status::InvalidArgument("concept name must be non-empty");
  }
  if (by_name_.count(name) > 0) {
    return Status::AlreadyExists("concept '" + name + "' already exists");
  }
  std::vector<ConceptId> parent_ids;
  parent_ids.reserve(parents.size());
  for (const std::string& p : parents) {
    ConceptId pid = Find(p);
    if (pid == kInvalidConcept) {
      return Status::NotFound("parent concept '" + p + "' not found");
    }
    parent_ids.push_back(pid);
  }
  ConceptId id = static_cast<ConceptId>(concepts_.size());
  Concept c;
  c.id = id;
  c.name = name;
  c.parents = parent_ids;
  c.covered = covered;
  concepts_.push_back(std::move(c));
  for (ConceptId pid : parent_ids) {
    concepts_[static_cast<size_t>(pid)].children.push_back(id);
  }
  by_name_.emplace(name, id);
  return id;
}

Status Ontology::SetCovered(ConceptId c, bool covered) {
  if (c < 0 || static_cast<size_t>(c) >= concepts_.size()) {
    return Status::NotFound("no such concept id");
  }
  concepts_[static_cast<size_t>(c)].covered = covered;
  return Status::OK();
}

ConceptId Ontology::Find(std::string_view name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? kInvalidConcept : it->second;
}

Result<ConceptId> Ontology::Require(const std::string& name) const {
  ConceptId id = Find(name);
  if (id == kInvalidConcept) {
    return Status::NotFound("concept '" + name + "' not found in ontology '" +
                            name_ + "'");
  }
  return id;
}

bool Ontology::IsSubsumedBy(ConceptId a, ConceptId b) const {
  if (a == b) return true;
  // Walk a's ancestors upward (DAG-safe DFS).
  std::vector<ConceptId> stack = {a};
  std::vector<bool> seen(concepts_.size(), false);
  while (!stack.empty()) {
    ConceptId cur = stack.back();
    stack.pop_back();
    if (cur == b) return true;
    if (seen[static_cast<size_t>(cur)]) continue;
    seen[static_cast<size_t>(cur)] = true;
    for (ConceptId p : Get(cur).parents) stack.push_back(p);
  }
  return false;
}

bool Ontology::Comparable(ConceptId a, ConceptId b) const {
  return IsSubsumedBy(a, b) || IsSubsumedBy(b, a);
}

std::vector<ConceptId> Ontology::Descendants(ConceptId c) const {
  std::vector<ConceptId> out;
  std::vector<bool> seen(concepts_.size(), false);
  // Pre-order DFS visiting children in rank order for determinism.
  std::function<void(ConceptId)> visit = [&](ConceptId cur) {
    if (seen[static_cast<size_t>(cur)]) return;
    seen[static_cast<size_t>(cur)] = true;
    out.push_back(cur);
    for (ConceptId child : Get(cur).children) visit(child);
  };
  visit(c);
  return out;
}

std::vector<ConceptId> Ontology::StrictDescendants(ConceptId c) const {
  std::vector<ConceptId> all = Descendants(c);
  all.erase(std::remove(all.begin(), all.end(), c), all.end());
  return all;
}

std::vector<ConceptId> Ontology::Ancestors(ConceptId c) const {
  std::vector<ConceptId> out;
  std::vector<bool> seen(concepts_.size(), false);
  std::function<void(ConceptId)> visit = [&](ConceptId cur) {
    if (seen[static_cast<size_t>(cur)]) return;
    seen[static_cast<size_t>(cur)] = true;
    out.push_back(cur);
    for (ConceptId p : Get(cur).parents) visit(p);
  };
  visit(c);
  return out;
}

std::vector<ConceptId> Ontology::LeavesUnder(ConceptId c) const {
  std::vector<ConceptId> out;
  for (ConceptId d : Descendants(c)) {
    if (Get(d).children.empty()) out.push_back(d);
  }
  return out;
}

std::vector<ConceptId> Ontology::Partitions(ConceptId c) const {
  std::vector<ConceptId> out;
  for (ConceptId d : Descendants(c)) {
    if (!Get(d).covered) out.push_back(d);
  }
  return out;
}

int Ontology::Depth(ConceptId c) const {
  int best = 0;
  for (ConceptId p : Get(c).parents) best = std::max(best, Depth(p) + 1);
  return best;
}

ConceptId Ontology::LeastCommonSubsumer(ConceptId a, ConceptId b) const {
  std::vector<ConceptId> anc_a = Ancestors(a);
  std::vector<bool> is_anc_a(concepts_.size(), false);
  for (ConceptId x : anc_a) is_anc_a[static_cast<size_t>(x)] = true;
  ConceptId best = kInvalidConcept;
  int best_depth = -1;
  for (ConceptId x : Ancestors(b)) {
    if (!is_anc_a[static_cast<size_t>(x)]) continue;
    int d = Depth(x);
    if (d > best_depth || (d == best_depth && x < best)) {
      best = x;
      best_depth = d;
    }
  }
  return best;
}

std::vector<ConceptId> Ontology::Roots() const {
  std::vector<ConceptId> out;
  for (const Concept& c : concepts_) {
    if (c.parents.empty()) out.push_back(c.id);
  }
  return out;
}

std::vector<ConceptId> Ontology::AllConcepts() const {
  std::vector<ConceptId> out;
  out.reserve(concepts_.size());
  for (const Concept& c : concepts_) out.push_back(c.id);
  return out;
}

std::vector<std::string> Ontology::Audit() const {
  std::vector<std::string> warnings;
  for (const Concept& concept_node : concepts_) {
    if (concept_node.covered && concept_node.children.empty()) {
      warnings.push_back("covered concept '" + concept_node.name +
                         "' has no sub-concepts: its domain is empty");
    }
    for (ConceptId parent : concept_node.parents) {
      if (parent == concept_node.id ||
          IsSubsumedBy(parent, concept_node.id)) {
        warnings.push_back("concept '" + concept_node.name +
                           "' participates in a subsumption cycle");
        break;
      }
    }
  }
  return warnings;
}

std::string Ontology::ToDsl() const {
  std::string out = "ontology " + name_ + "\n";
  for (const Concept& c : concepts_) {
    out += "concept " + c.name;
    if (!c.parents.empty()) {
      out += " <";
      for (size_t i = 0; i < c.parents.size(); ++i) {
        out += (i == 0 ? " " : ", ");
        out += NameOf(c.parents[i]);
      }
    }
    if (c.covered) out += " [covered]";
    out += "\n";
  }
  return out;
}

}  // namespace dexa
