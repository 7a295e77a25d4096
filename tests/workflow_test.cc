#include <gtest/gtest.h>

#include "corpus/synthetic_module.h"
#include "ontology/mygrid.h"
#include "workflow/enactor.h"
#include "workflow/workflow.h"

namespace dexa {
namespace {

/// Minimal test harness: Upper (doc -> doc), Exclaim (doc -> doc),
/// Concat (doc, doc -> doc), Fail (doc -> doc, always InvalidArgument).
class WorkflowFixture : public ::testing::Test {
 protected:
  WorkflowFixture() : onto_(BuildMyGridOntology()) {
    Register("up", "Upper", [](const std::vector<Value>& in) {
      std::string s = in[0].AsString();
      for (char& c : s) c = static_cast<char>(std::toupper(c));
      return Result<std::vector<Value>>(std::vector<Value>{Value::Str(s)});
    });
    Register("ex", "Exclaim", [](const std::vector<Value>& in) {
      return Result<std::vector<Value>>(
          std::vector<Value>{Value::Str(in[0].AsString() + "!")});
    });
    Register("fail", "Fail",
             [](const std::vector<Value>&) -> Result<std::vector<Value>> {
               return Status::InvalidArgument("always fails");
             });
    // Concat has two inputs.
    ModuleSpec spec;
    spec.id = "cat";
    spec.name = "Concat";
    spec.inputs = {Doc("a"), Doc("b")};
    spec.outputs = {Doc("out")};
    EXPECT_TRUE(registry_
                    .Register(std::make_shared<SyntheticModule>(
                        spec,
                        [](const std::vector<Value>& in)
                            -> Result<std::vector<Value>> {
                          return std::vector<Value>{Value::Str(
                              in[0].AsString() + in[1].AsString())};
                        }))
                    .ok());
  }

  Parameter Doc(const std::string& name) {
    Parameter param;
    param.name = name;
    param.structural_type = StructuralType::String();
    param.semantic_type = onto_.Find("TextDocument");
    return param;
  }

  void Register(const std::string& id, const std::string& name,
                SyntheticModule::Behavior behavior) {
    ModuleSpec spec;
    spec.id = id;
    spec.name = name;
    spec.inputs = {Doc("in")};
    spec.outputs = {Doc("out")};
    ASSERT_TRUE(registry_
                    .Register(std::make_shared<SyntheticModule>(
                        spec, std::move(behavior)))
                    .ok());
  }

  /// Enacts `wf` on the shared serial engine.
  Result<EnactmentResult> Run(const Workflow& wf,
                              const std::vector<Value>& inputs) {
    return Enact(wf, registry_, inputs, InvocationEngine::Serial());
  }

  /// in -> Upper -> Exclaim -> out
  Workflow Chain() {
    Workflow wf;
    wf.id = "w1";
    wf.name = "chain";
    wf.inputs = {Doc("seed")};
    Processor upper;
    upper.name = "step1";
    upper.module_id = "up";
    upper.input_sources = {{PortSource::kWorkflowInputSource, 0}};
    Processor exclaim;
    exclaim.name = "step2";
    exclaim.module_id = "ex";
    exclaim.input_sources = {{0, 0}};
    wf.processors = {upper, exclaim};
    wf.outputs = {{"result", {1, 0}}};
    return wf;
  }

  Ontology onto_;
  ModuleRegistry registry_;
};

TEST_F(WorkflowFixture, ValidatesCleanWorkflow) {
  Workflow wf = Chain();
  EXPECT_TRUE(ValidateWorkflow(wf, registry_, onto_).ok());
  EXPECT_EQ(wf.ReferencedModuleIds(),
            (std::vector<std::string>{"up", "ex"}));
}

TEST_F(WorkflowFixture, RejectsUnknownModule) {
  Workflow wf = Chain();
  wf.processors[0].module_id = "ghost";
  EXPECT_TRUE(ValidateWorkflow(wf, registry_, onto_).IsNotFound());
}

TEST_F(WorkflowFixture, RejectsArityMismatch) {
  Workflow wf = Chain();
  wf.processors[0].input_sources.push_back(
      {PortSource::kWorkflowInputSource, 0});
  EXPECT_TRUE(ValidateWorkflow(wf, registry_, onto_).IsInvalidArgument());
}

TEST_F(WorkflowFixture, RejectsBadPortReferences) {
  Workflow wf = Chain();
  wf.processors[1].input_sources[0].port = 5;
  EXPECT_TRUE(ValidateWorkflow(wf, registry_, onto_).IsInvalidArgument());
  wf = Chain();
  wf.outputs[0].source.processor = 9;
  EXPECT_FALSE(ValidateWorkflow(wf, registry_, onto_).ok());
}

TEST_F(WorkflowFixture, RejectsCycles) {
  Workflow wf = Chain();
  wf.processors[0].input_sources[0] = {1, 0};  // step1 <- step2 <- step1.
  EXPECT_TRUE(ValidateWorkflow(wf, registry_, onto_).IsInvalidArgument());
  EXPECT_FALSE(TopologicalOrder(wf).ok());
}

TEST_F(WorkflowFixture, RejectsSemanticMismatch) {
  Workflow wf = Chain();
  wf.inputs[0].semantic_type = onto_.Find("UniprotAccession");
  // TextDocument input fed with a UniprotAccession source: the source must
  // be subsumed by the destination, and these are incomparable.
  EXPECT_TRUE(ValidateWorkflow(wf, registry_, onto_).IsInvalidArgument());
}

TEST_F(WorkflowFixture, SubsumedSourceIsAccepted) {
  Workflow wf = Chain();
  // Destination generalized to the root concept: any source fits.
  // (Simulates GetBiologicalSequence-style wiring of Figure 7.)
  wf.inputs[0].semantic_type = onto_.Find("TextDocument");
  EXPECT_TRUE(ValidateWorkflow(wf, registry_, onto_).ok());
}

TEST_F(WorkflowFixture, EnactsChain) {
  auto result = Run(Chain(), {Value::Str("abc")});
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->complete());
  ASSERT_EQ(result->outputs.size(), 1u);
  EXPECT_EQ(result->outputs[0].AsString(), "ABC!");
  ASSERT_EQ(result->invocations.size(), 2u);
  EXPECT_EQ(result->invocations[0].processor_name, "step1");
  EXPECT_EQ(result->invocations[0].outputs[0].AsString(), "ABC");
  EXPECT_EQ(result->invocations[1].module_id, "ex");
}

TEST_F(WorkflowFixture, EnactChecksInputArity) {
  EXPECT_TRUE(Run(Chain(), {}).status().IsInvalidArgument());
}

TEST_F(WorkflowFixture, EnactPropagatesModuleErrors) {
  Workflow wf = Chain();
  wf.processors[1].module_id = "fail";
  auto result = Run(wf, {Value::Str("abc")});
  EXPECT_TRUE(result.status().IsInvalidArgument());
  EXPECT_NE(result.status().message().find("step2"), std::string::npos);
}

TEST_F(WorkflowFixture, EnactSkipsRetiredModule) {
  (*registry_.Find("ex"))->Retire();
  auto result = Run(Chain(), {Value::Str("abc")});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->complete());
  EXPECT_EQ(result->skipped_processors, (std::vector<std::string>{"step2"}));
  EXPECT_EQ(result->decayed_modules, (std::vector<std::string>{"ex"}));
  EXPECT_EQ(result->missing_outputs, 1u);
  EXPECT_FALSE(IsEnactable(Chain(), registry_));
  EXPECT_EQ(UnavailableModules(Chain(), registry_),
            (std::vector<std::string>{"ex"}));
}

TEST_F(WorkflowFixture, DiamondDataflow) {
  // seed -> Upper -> Concat(upper, exclaim(seed)) : diamond shape.
  Workflow wf;
  wf.id = "w2";
  wf.name = "diamond";
  wf.inputs = {Doc("seed")};
  Processor upper;
  upper.name = "u";
  upper.module_id = "up";
  upper.input_sources = {{PortSource::kWorkflowInputSource, 0}};
  Processor exclaim;
  exclaim.name = "e";
  exclaim.module_id = "ex";
  exclaim.input_sources = {{PortSource::kWorkflowInputSource, 0}};
  Processor concat;
  concat.name = "c";
  concat.module_id = "cat";
  concat.input_sources = {{0, 0}, {1, 0}};
  wf.processors = {upper, exclaim, concat};
  wf.outputs = {{"result", {2, 0}}};
  ASSERT_TRUE(ValidateWorkflow(wf, registry_, onto_).ok());
  auto result = Run(wf, {Value::Str("ab")});
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->complete());
  EXPECT_EQ(result->outputs[0].AsString(), "ABab!");
}

TEST_F(WorkflowFixture, ExtractSubWorkflow) {
  Workflow wf = Chain();
  // Extract only step2: its dangling input becomes a workflow input.
  auto sub = ExtractSubWorkflow(wf, registry_, {1});
  ASSERT_TRUE(sub.ok()) << sub.status();
  EXPECT_EQ(sub->processors.size(), 1u);
  ASSERT_EQ(sub->inputs.size(), 1u);
  EXPECT_EQ(sub->inputs[0].name, "step1.out");
  ASSERT_EQ(sub->outputs.size(), 1u);
  auto result = Run(*sub, {Value::Str("X")});
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->complete());
  EXPECT_EQ(result->outputs[0].AsString(), "X!");
}

TEST_F(WorkflowFixture, ExtractSubWorkflowKeepsInternalLinks) {
  Workflow wf = Chain();
  auto sub = ExtractSubWorkflow(wf, registry_, {0, 1});
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->processors.size(), 2u);
  EXPECT_EQ(sub->inputs.size(), 1u);  // Only the original seed.
  auto result = Run(*sub, {Value::Str("x")});
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->complete());
  EXPECT_EQ(result->outputs[0].AsString(), "X!");
}

}  // namespace
}  // namespace dexa
