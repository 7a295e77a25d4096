#include "modules/registry.h"

#include <limits>

namespace dexa {

Status ModuleRegistry::Register(ModulePtr module) {
  if (module == nullptr) {
    return Status::InvalidArgument("cannot register a null module");
  }
  const std::string& id = module->spec().id;
  const std::string& name = module->spec().name;
  if (by_id_.count(id) > 0) {
    return Status::AlreadyExists("module id '" + id + "' already registered");
  }
  if (by_name_.count(name) > 0) {
    return Status::AlreadyExists("module name '" + name +
                                 "' already registered");
  }
  if (modules_.size() >= std::numeric_limits<ModuleIndex>::max()) {
    return Status::ResourceExhausted("module registry is full");
  }
  const auto index = static_cast<ModuleIndex>(modules_.size());
  by_id_.emplace(id, index);
  by_name_.emplace(name, index);
  modules_.push_back(std::move(module));
  examples_.emplace_back();
  return Status::OK();
}

Result<ModuleIndex> ModuleRegistry::IndexOf(const std::string& id) const {
  auto it = by_id_.find(id);
  if (it == by_id_.end()) {
    return Status::NotFound("module id '" + id + "' not registered");
  }
  return it->second;
}

Result<ModulePtr> ModuleRegistry::Find(const std::string& id) const {
  DEXA_ASSIGN_OR_RETURN(const ModuleIndex index, IndexOf(id));
  return modules_[index];
}

Result<ModulePtr> ModuleRegistry::FindByName(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("module name '" + name + "' not registered");
  }
  return modules_[it->second];
}

std::vector<ModulePtr> ModuleRegistry::AvailableModules() const {
  std::vector<ModulePtr> out;
  for (const ModulePtr& module : modules_) {
    if (module->available()) out.push_back(module);
  }
  return out;
}

std::vector<ModuleIndex> ModuleRegistry::AvailableIndices() const {
  std::vector<ModuleIndex> out;
  out.reserve(modules_.size());
  for (size_t k = 0; k < modules_.size(); ++k) {
    if (modules_[k]->available()) out.push_back(static_cast<ModuleIndex>(k));
  }
  return out;
}

std::vector<ModulePtr> ModuleRegistry::RetiredModules() const {
  std::vector<ModulePtr> out;
  for (const ModulePtr& module : modules_) {
    if (!module->available()) out.push_back(module);
  }
  return out;
}

Status ModuleRegistry::SetDataExamples(const std::string& id,
                                       DataExampleSet examples) {
  DEXA_ASSIGN_OR_RETURN(const ModuleIndex index, IndexOf(id));
  SetDataExamplesAt(index, std::move(examples));
  return Status::OK();
}

const DataExampleSet& ModuleRegistry::DataExamplesOf(
    const std::string& id) const {
  static const DataExampleSet* empty = new DataExampleSet();
  auto it = by_id_.find(id);
  return it == by_id_.end() ? *empty : examples_[it->second];
}

}  // namespace dexa
