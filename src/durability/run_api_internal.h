#ifndef DEXA_DURABILITY_RUN_API_INTERNAL_H_
#define DEXA_DURABILITY_RUN_API_INTERNAL_H_

#include "common/result.h"
#include "core/run_api.h"

namespace dexa::internal {

// The bodies of the durable run families, called only by the SubmitRun
// facade (durability/run_api.cc) once it has validated the request: both
// read a RunRequest with `journal` set.

/// AnnotateRegistry with a write-ahead journal: every module's annotation
/// is appended to the journal (through a per-run ordered CommitStream)
/// before it is committed to the registry, in registration order.
[[nodiscard]] Result<AnnotateReport> AnnotateDurableImpl(
    const RunRequest& request);

/// EnactResilient with a write-ahead journal: every completed step is
/// appended before its outputs feed downstream processors.
[[nodiscard]] Result<ResilientEnactmentResult> EnactDurableImpl(
    const RunRequest& request);

}  // namespace dexa::internal

#endif  // DEXA_DURABILITY_RUN_API_INTERNAL_H_
