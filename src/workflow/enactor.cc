#include "workflow/enactor.h"

#include "obs/trace.h"

namespace dexa {

Result<EnactmentResult> Enact(const Workflow& workflow,
                              const ModuleRegistry& registry,
                              const std::vector<Value>& inputs,
                              InvocationEngine& engine,
                              const EnactHooks& hooks) {
  if (hooks.replayed != nullptr &&
      hooks.replayed->size() != workflow.processors.size()) {
    return Status::InvalidArgument(
        "replay vector has " + std::to_string(hooks.replayed->size()) +
        " slots for " + std::to_string(workflow.processors.size()) +
        " processors");
  }
  if (inputs.size() != workflow.inputs.size()) {
    return Status::InvalidArgument(
        "workflow '" + workflow.name + "' expects " +
        std::to_string(workflow.inputs.size()) + " inputs, got " +
        std::to_string(inputs.size()));
  }
  auto order = TopologicalOrder(workflow);
  if (!order.ok()) return order.status();

  EnactmentResult result;
  std::vector<std::vector<Value>> produced(workflow.processors.size());
  // Processors that ran to completion; a skipped processor poisons its
  // consumers transitively.
  std::vector<bool> ran(workflow.processors.size(), false);

  // Ok(value) when the source is live, NotFound when it comes from a
  // skipped processor, other errors on structural problems.
  auto resolve = [&](const PortSource& source) -> Result<Value> {
    if (source.from_workflow_input()) {
      if (source.port < 0 ||
          static_cast<size_t>(source.port) >= inputs.size()) {
        return Status::InvalidArgument("workflow input index out of range");
      }
      return inputs[static_cast<size_t>(source.port)];
    }
    if (source.processor < 0 ||
        static_cast<size_t>(source.processor) >= produced.size()) {
      return Status::InvalidArgument("source processor index out of range");
    }
    if (!ran[static_cast<size_t>(source.processor)]) {
      return Status::NotFound("source processor was skipped");
    }
    const auto& values = produced[static_cast<size_t>(source.processor)];
    if (source.port < 0 || static_cast<size_t>(source.port) >= values.size()) {
      return Status::InvalidArgument("source output port out of range");
    }
    return values[static_cast<size_t>(source.port)];
  };

  auto note_decayed = [&](const std::string& module_id) {
    for (const std::string& known : result.decayed_modules) {
      if (known == module_id) return;
    }
    result.decayed_modules.push_back(module_id);
  };

  obs::Tracer* tracer = hooks.tracer;
  // The span keeps its historical name: it is trace format
  // (docs/OBSERVABILITY.md), and renaming it would change every enact trace.
  obs::ScopedSpan run(tracer, obs::SpanKind::kRun,
                      "enact_resilient:" + workflow.name);
  obs::ScopedSpan enact_phase(tracer, obs::SpanKind::kPhase, "enact",
                              run.id());
  const EngineMetricsSnapshot run_before = engine.metrics().Snapshot();

  for (int p : *order) {
    const Processor& processor =
        workflow.processors[static_cast<size_t>(p)];
    auto module = registry.Find(processor.module_id);
    if (!module.ok()) return module.status();

    // The topological loop is sequential, so per-step span order and the
    // per-step counter deltas below are schedule-independent.
    obs::ScopedSpan step(tracer, obs::SpanKind::kInvocation, processor.name,
                         enact_phase.id());

    if (hooks.replayed != nullptr) {
      const std::optional<InvocationRecord>& committed =
          (*hooks.replayed)[static_cast<size_t>(p)];
      if (committed.has_value()) {
        // Step already committed by a previous (crashed) run: serve its
        // outputs and provenance from the journal, never re-invoke.
        step.MarkReplayed();
        result.invocations.push_back(*committed);
        produced[static_cast<size_t>(p)] = committed->outputs;
        ran[static_cast<size_t>(p)] = true;
        continue;
      }
    }

    std::vector<Value> module_inputs;
    module_inputs.reserve(processor.input_sources.size());
    bool upstream_skipped = false;
    for (const PortSource& source : processor.input_sources) {
      auto value = resolve(source);
      if (value.ok()) {
        module_inputs.push_back(std::move(value).value());
        continue;
      }
      if (value.status().IsNotFound()) {
        upstream_skipped = true;
        break;
      }
      return value.status();
    }
    if (upstream_skipped) {
      step.Counter("skipped", 1);
      result.skipped_processors.push_back(processor.name);
      continue;
    }

    const EngineMetricsSnapshot step_before = engine.metrics().Snapshot();
    auto outputs =
        engine.Invoke(**module, module_inputs, EnginePhase::kEnact);
    step.CounterDeltas(step_before, engine.metrics().Snapshot());
    if (!outputs.ok()) {
      const Status& status = outputs.status();
      if (status.IsPermanentFailure()) {
        // The module decayed under us: skip this step (and, transitively,
        // its consumers) and report it as a repair candidate.
        note_decayed(processor.module_id);
        step.Counter("skipped", 1);
        result.skipped_processors.push_back(processor.name);
        continue;
      }
      if (status.IsRetryable()) {
        // Transient fault the retry policy could not outlast: the step is
        // lost this run, but the module itself is not condemned.
        step.Counter("skipped", 1);
        result.skipped_processors.push_back(processor.name);
        continue;
      }
      // Structural (InvalidArgument, ...) or internal: a real failure.
      return Status(status.code(),
                    "workflow '" + workflow.name + "', processor '" +
                        processor.name + "': " + status.message());
    }

    InvocationRecord record;
    record.workflow_id = workflow.id;
    record.processor_name = processor.name;
    record.module_id = processor.module_id;
    record.inputs = module_inputs;
    record.outputs = *outputs;
    if (hooks.on_commit) {
      // Write-ahead point: the step's outputs become visible to downstream
      // consumers only once the commit is durable.
      Status committed = hooks.on_commit(p, record);
      if (!committed.ok()) return committed;
    }
    result.invocations.push_back(std::move(record));

    produced[static_cast<size_t>(p)] = std::move(outputs).value();
    ran[static_cast<size_t>(p)] = true;
  }
  enact_phase.End();
  run.CounterDeltas(run_before, engine.metrics().Snapshot());

  for (const WorkflowOutput& output : workflow.outputs) {
    auto value = resolve(output.source);
    if (value.ok()) {
      result.outputs.push_back(std::move(value).value());
      continue;
    }
    if (value.status().IsNotFound()) {
      result.outputs.push_back(Value::Null());
      ++result.missing_outputs;
      continue;
    }
    return value.status();
  }
  return result;
}

Result<Workflow> ExtractSubWorkflow(
    const Workflow& workflow, const ModuleRegistry& registry,
    const std::vector<int>& processor_indices) {
  std::vector<bool> selected(workflow.processors.size(), false);
  for (int p : processor_indices) {
    if (p < 0 || static_cast<size_t>(p) >= workflow.processors.size()) {
      return Status::InvalidArgument("processor index out of range");
    }
    selected[static_cast<size_t>(p)] = true;
  }

  Workflow sub;
  sub.id = workflow.id + "#sub";
  sub.name = workflow.name + " (sub-workflow)";

  // Old processor index -> new index.
  std::vector<int> remap(workflow.processors.size(), -1);
  for (size_t p = 0; p < workflow.processors.size(); ++p) {
    if (!selected[p]) continue;
    remap[p] = static_cast<int>(sub.processors.size());
    sub.processors.push_back(workflow.processors[p]);
  }

  // Rewire inputs; dangling sources become new workflow inputs.
  for (Processor& processor : sub.processors) {
    for (PortSource& source : processor.input_sources) {
      if (!source.from_workflow_input() &&
          selected[static_cast<size_t>(source.processor)]) {
        source.processor = remap[static_cast<size_t>(source.processor)];
        continue;
      }
      // Dangling: materialize as a new workflow input with the source's
      // parameter description.
      Parameter param;
      if (source.from_workflow_input()) {
        param = workflow.inputs[static_cast<size_t>(source.port)];
      } else {
        const Processor& producer =
            workflow.processors[static_cast<size_t>(source.processor)];
        auto module = registry.Find(producer.module_id);
        if (!module.ok()) return module.status();
        param = (*module)->spec().outputs[static_cast<size_t>(source.port)];
        param.name = producer.name + "." + param.name;
      }
      source.processor = PortSource::kWorkflowInputSource;
      source.port = static_cast<int>(sub.inputs.size());
      sub.inputs.push_back(std::move(param));
    }
  }

  // Every output port of a selected processor that fed an excluded
  // processor or a workflow output becomes a sub-workflow output; if none
  // qualify, expose every output of every selected processor.
  auto add_output = [&](int old_processor, int port) {
    int new_processor = remap[static_cast<size_t>(old_processor)];
    for (const WorkflowOutput& existing : sub.outputs) {
      if (existing.source.processor == new_processor &&
          existing.source.port == port) {
        return;
      }
    }
    WorkflowOutput output;
    output.name = workflow.processors[static_cast<size_t>(old_processor)].name +
                  "_out" + std::to_string(port);
    output.source.processor = new_processor;
    output.source.port = port;
    sub.outputs.push_back(std::move(output));
  };

  for (size_t p = 0; p < workflow.processors.size(); ++p) {
    if (selected[p]) continue;
    for (const PortSource& source : workflow.processors[p].input_sources) {
      if (!source.from_workflow_input() &&
          selected[static_cast<size_t>(source.processor)]) {
        add_output(source.processor, source.port);
      }
    }
  }
  for (const WorkflowOutput& output : workflow.outputs) {
    if (!output.source.from_workflow_input() &&
        selected[static_cast<size_t>(output.source.processor)]) {
      add_output(output.source.processor, output.source.port);
    }
  }
  if (sub.outputs.empty()) {
    for (size_t p = 0; p < workflow.processors.size(); ++p) {
      if (!selected[p]) continue;
      auto module = registry.Find(workflow.processors[p].module_id);
      if (!module.ok()) return module.status();
      for (size_t port = 0; port < (*module)->spec().outputs.size(); ++port) {
        add_output(static_cast<int>(p), static_cast<int>(port));
      }
    }
  }
  return sub;
}

}  // namespace dexa
