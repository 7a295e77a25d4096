#ifndef DEXA_MODULES_REGISTRY_H_
#define DEXA_MODULES_REGISTRY_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "modules/data_example.h"
#include "modules/module.h"

namespace dexa {

/// A module's position in its registry: dense, in registration order.
using ModuleIndex = uint32_t;

/// The scientific module registry of the paper's architecture (Figure 3):
/// stores modules with their parameter annotations (in the ModuleSpec) and,
/// once generated, the data examples `∆(m)` that annotate each module's
/// behavior. Experiment designers query it to explore, understand and
/// compare modules.
///
/// Storage is dense: module k and its example set sit in slot k of two
/// vectors, and ids and names map to that slot. Hot loops (annotate, its
/// replay, the shard merge) walk AvailableIndices() and use the index
/// calls; the string-keyed calls are one id lookup plus the index call, for
/// the edges (CLI, wire, journal decode).
class ModuleRegistry {
 public:
  ModuleRegistry() = default;

  ModuleRegistry(const ModuleRegistry&) = delete;
  ModuleRegistry& operator=(const ModuleRegistry&) = delete;

  /// Registers a module at index size(); fails with AlreadyExists on a
  /// duplicate id or name. Registering may reallocate the slots, so it
  /// invalidates references returned by At, DataExamplesOf and
  /// DataExamplesAt.
  [[nodiscard]] Status Register(ModulePtr module);

  size_t size() const { return modules_.size(); }

  /// Lookup by module id; NotFound if absent.
  [[nodiscard]] Result<ModulePtr> Find(const std::string& id) const;

  /// Lookup by module name (names are unique in dexa corpora).
  [[nodiscard]] Result<ModulePtr> FindByName(const std::string& name) const;

  /// The index of module `id`; NotFound if absent.
  [[nodiscard]] Result<ModuleIndex> IndexOf(const std::string& id) const;

  /// The module at `index` (< size()).
  const ModulePtr& At(ModuleIndex index) const { return modules_[index]; }

  /// All modules in registration order.
  std::vector<ModulePtr> AllModules() const { return modules_; }

  /// Only modules whose provider still supplies them.
  std::vector<ModulePtr> AvailableModules() const;

  /// The indices of AvailableModules(), in registration order.
  std::vector<ModuleIndex> AvailableIndices() const;

  /// Only withdrawn modules.
  std::vector<ModulePtr> RetiredModules() const;

  /// Attaches the generated data examples for module `id`; overwrites any
  /// previous annotation. NotFound if the module is not registered.
  [[nodiscard]] Status SetDataExamples(const std::string& id, DataExampleSet examples);

  /// SetDataExamples for the module at `index` (< size()).
  void SetDataExamplesAt(ModuleIndex index, DataExampleSet examples) {
    examples_[index] = std::move(examples);
  }

  /// The data examples annotating module `id`; empty set if none recorded.
  const DataExampleSet& DataExamplesOf(const std::string& id) const;

  /// The data examples of the module at `index` (< size()).
  const DataExampleSet& DataExamplesAt(ModuleIndex index) const {
    return examples_[index];
  }

  /// True if `id` has a (non-empty) data-example annotation.
  bool HasDataExamples(const std::string& id) const {
    return !DataExamplesOf(id).empty();
  }

 private:
  std::vector<ModulePtr> modules_;
  std::vector<DataExampleSet> examples_;
  std::unordered_map<std::string, ModuleIndex> by_id_;
  std::unordered_map<std::string, ModuleIndex> by_name_;
};

}  // namespace dexa

#endif  // DEXA_MODULES_REGISTRY_H_
