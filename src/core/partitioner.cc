#include "core/partitioner.h"

#include <span>

namespace dexa {

size_t ModulePartitions::TotalCount() const {
  return InputCount() + OutputCount();
}

size_t ModulePartitions::InputCount() const {
  size_t total = 0;
  for (const ParameterPartitions& p : inputs) total += p.partitions.size();
  return total;
}

size_t ModulePartitions::OutputCount() const {
  size_t total = 0;
  for (const ParameterPartitions& p : outputs) total += p.partitions.size();
  return total;
}

ParameterPartitions DomainPartitioner::Partition(const Parameter& param) const {
  ParameterPartitions out;
  out.annotated_concept = param.semantic_type;
  if (param.semantic_type != kInvalidConcept) {
    const std::span<const ConceptId> partitions =
        cache_->Partitions(param.semantic_type);
    out.partitions.assign(partitions.begin(), partitions.end());
  }
  return out;
}

ModulePartitions DomainPartitioner::PartitionModule(
    const ModuleSpec& spec) const {
  ModulePartitions out;
  out.inputs.reserve(spec.inputs.size());
  for (const Parameter& param : spec.inputs) {
    out.inputs.push_back(Partition(param));
  }
  out.outputs.reserve(spec.outputs.size());
  for (const Parameter& param : spec.outputs) {
    out.outputs.push_back(Partition(param));
  }
  return out;
}

}  // namespace dexa
