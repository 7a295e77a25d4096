#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/synthetic_module.h"
#include "modules/data_example.h"
#include "modules/module.h"
#include "modules/registry.h"
#include "modules/registry_io.h"
#include "ontology/mygrid.h"

namespace dexa {
namespace {

ModulePtr MakeEchoModule(const Ontology& onto, const std::string& id = "m1",
                         const std::string& name = "Echo") {
  ModuleSpec spec;
  spec.id = id;
  spec.name = name;
  spec.kind = ModuleKind::kFormatTransformation;
  Parameter in;
  in.name = "in";
  in.structural_type = StructuralType::String();
  in.semantic_type = onto.Find("TextDocument");
  Parameter out = in;
  out.name = "out";
  spec.inputs = {in};
  spec.outputs = {out};
  return std::make_shared<SyntheticModule>(
      spec, [](const std::vector<Value>& inputs) -> Result<std::vector<Value>> {
        return std::vector<Value>{inputs[0]};
      });
}

TEST(ModuleTest, InvokeChecksArity) {
  Ontology onto = BuildMyGridOntology();
  ModulePtr echo = MakeEchoModule(onto);
  EXPECT_TRUE(echo->Invoke({}).status().IsInvalidArgument());
  EXPECT_TRUE(echo->Invoke({Value::Str("a"), Value::Str("b")})
                  .status()
                  .IsInvalidArgument());
}

TEST(ModuleTest, InvokeChecksStructuralTypes) {
  Ontology onto = BuildMyGridOntology();
  ModulePtr echo = MakeEchoModule(onto);
  EXPECT_TRUE(echo->Invoke({Value::Int(1)}).status().IsInvalidArgument());
  auto ok = echo->Invoke({Value::Str("hello")});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ((*ok)[0].AsString(), "hello");
}

TEST(ModuleTest, NullRejectedForRequiredInputs) {
  Ontology onto = BuildMyGridOntology();
  ModulePtr echo = MakeEchoModule(onto);
  EXPECT_TRUE(echo->Invoke({Value::Null()}).status().IsInvalidArgument());
}

TEST(ModuleTest, RetiredModuleIsDecayed) {
  Ontology onto = BuildMyGridOntology();
  ModulePtr echo = MakeEchoModule(onto);
  EXPECT_TRUE(echo->available());
  echo->Retire();
  EXPECT_FALSE(echo->available());
  EXPECT_TRUE(echo->Invoke({Value::Str("x")}).status().IsDecayed());
}

TEST(ModuleTest, GroundTruthExposed) {
  Ontology onto = BuildMyGridOntology();
  ModuleSpec spec = MakeEchoModule(onto)->spec();
  spec.id = "m2";
  spec.name = "Classified";
  auto module = std::make_shared<SyntheticModule>(
      spec,
      [](const std::vector<Value>& inputs) -> Result<std::vector<Value>> {
        return std::vector<Value>{inputs[0]};
      },
      2, [](const std::vector<Value>& inputs) {
        return inputs[0].AsString().size() % 2 == 0 ? 0 : 1;
      });
  ASSERT_NE(module->ground_truth(), nullptr);
  EXPECT_EQ(module->ground_truth()->num_classes(), 2);
  EXPECT_EQ(module->ground_truth()->ClassOf({Value::Str("ab")}), 0);
  EXPECT_EQ(module->ground_truth()->ClassOf({Value::Str("abc")}), 1);
}

TEST(ModuleKindTest, Names) {
  EXPECT_STREQ(ModuleKindName(ModuleKind::kFormatTransformation),
               "Format transformation");
  EXPECT_STREQ(ModuleKindName(ModuleKind::kDataRetrieval), "Data retrieval");
  EXPECT_STREQ(ModuleKindName(ModuleKind::kMappingIdentifiers),
               "Mapping identifiers");
  EXPECT_STREQ(ModuleKindName(ModuleKind::kFiltering), "Filtering");
  EXPECT_STREQ(ModuleKindName(ModuleKind::kDataAnalysis), "Data analysis");
}

TEST(DataExampleTest, EqualityAndRendering) {
  DataExample a;
  a.inputs = {Value::Str("P00001")};
  a.outputs = {Value::Str("record")};
  DataExample b = a;
  EXPECT_TRUE(a == b);
  b.outputs[0] = Value::Str("other");
  EXPECT_FALSE(a == b);
  EXPECT_EQ(RenderDataExample(a), "Input: \"P00001\" -> Output: \"record\"");
}

TEST(RegistryTest, RegisterAndLookup) {
  Ontology onto = BuildMyGridOntology();
  ModuleRegistry registry;
  ASSERT_TRUE(registry.Register(MakeEchoModule(onto)).ok());
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_TRUE(registry.Find("m1").ok());
  EXPECT_TRUE(registry.FindByName("Echo").ok());
  EXPECT_TRUE(registry.Find("nope").status().IsNotFound());
  EXPECT_TRUE(registry.FindByName("nope").status().IsNotFound());
  EXPECT_TRUE(registry.Register(nullptr).IsInvalidArgument());
}

TEST(RegistryTest, RejectsDuplicates) {
  Ontology onto = BuildMyGridOntology();
  ModuleRegistry registry;
  ASSERT_TRUE(registry.Register(MakeEchoModule(onto)).ok());
  EXPECT_TRUE(registry.Register(MakeEchoModule(onto))
                  .IsAlreadyExists());
  // Same name, different id is also rejected.
  EXPECT_TRUE(registry.Register(MakeEchoModule(onto, "m9", "Echo"))
                  .IsAlreadyExists());
}

TEST(RegistryTest, AvailabilityPartition) {
  Ontology onto = BuildMyGridOntology();
  ModuleRegistry registry;
  ModulePtr a = MakeEchoModule(onto, "a", "A");
  ModulePtr b = MakeEchoModule(onto, "b", "B");
  ASSERT_TRUE(registry.Register(a).ok());
  ASSERT_TRUE(registry.Register(b).ok());
  b->Retire();
  EXPECT_EQ(registry.AllModules().size(), 2u);
  EXPECT_EQ(registry.AvailableModules().size(), 1u);
  EXPECT_EQ(registry.RetiredModules().size(), 1u);
  EXPECT_EQ(registry.RetiredModules()[0]->spec().id, "b");
}

TEST(RegistryTest, DataExampleStorage) {
  Ontology onto = BuildMyGridOntology();
  ModuleRegistry registry;
  ASSERT_TRUE(registry.Register(MakeEchoModule(onto)).ok());
  EXPECT_FALSE(registry.HasDataExamples("m1"));
  EXPECT_TRUE(registry.DataExamplesOf("m1").empty());

  DataExample example;
  example.inputs = {Value::Str("x")};
  example.outputs = {Value::Str("x")};
  ASSERT_TRUE(registry.SetDataExamples("m1", {example}).ok());
  EXPECT_TRUE(registry.HasDataExamples("m1"));
  EXPECT_EQ(registry.DataExamplesOf("m1").size(), 1u);
  EXPECT_TRUE(registry.SetDataExamples("nope", {}).IsNotFound());
}

TEST(RegistryTest, IndexesFollowRegistrationOrder) {
  Ontology onto = BuildMyGridOntology();
  ModuleRegistry registry;
  std::vector<ModulePtr> modules;
  for (int k = 0; k < 6; ++k) {
    modules.push_back(MakeEchoModule(onto, "m" + std::to_string(k),
                                     "Echo" + std::to_string(k)));
    ASSERT_TRUE(registry.Register(modules.back()).ok());
  }

  // IndexOf is the registration position, and At the module there.
  for (ModuleIndex k = 0; k < modules.size(); ++k) {
    auto index = registry.IndexOf(modules[k]->spec().id);
    ASSERT_TRUE(index.ok()) << index.status();
    EXPECT_EQ(*index, k);
    EXPECT_EQ(registry.At(k), modules[k]);
  }
  EXPECT_TRUE(registry.IndexOf("nope").status().IsNotFound());

  // The index and string setters and getters reach the same slot.
  DataExample example;
  example.inputs = {Value::Str("x")};
  example.outputs = {Value::Str("x")};
  registry.SetDataExamplesAt(2, {example});
  EXPECT_EQ(registry.DataExamplesOf("m2"), DataExampleSet{example});
  EXPECT_TRUE(registry.HasDataExamples("m2"));
  ASSERT_TRUE(registry.SetDataExamples("m4", {example, example}).ok());
  EXPECT_EQ(registry.DataExamplesAt(4).size(), 2u);
  EXPECT_TRUE(registry.DataExamplesAt(3).empty());
  EXPECT_FALSE(registry.HasDataExamples("m3"));

  // Retired modules drop out of both availability views, in order.
  modules[1]->Retire();
  modules[4]->Retire();
  EXPECT_EQ(registry.AvailableIndices(),
            (std::vector<ModuleIndex>{0, 2, 3, 5}));
  std::vector<std::string> available;
  for (const ModulePtr& module : registry.AvailableModules()) {
    available.push_back(module->spec().id);
  }
  EXPECT_EQ(available, (std::vector<std::string>{"m0", "m2", "m3", "m5"}));

  // Duplicate ids and names are refused and take no slot.
  EXPECT_TRUE(registry.Register(MakeEchoModule(onto, "m3", "Other"))
                  .IsAlreadyExists());
  EXPECT_TRUE(registry.Register(MakeEchoModule(onto, "m9", "Echo3"))
                  .IsAlreadyExists());
  ASSERT_TRUE(registry.Register(MakeEchoModule(onto, "m6", "Echo6")).ok());
  EXPECT_EQ(registry.size(), 7u);
  EXPECT_EQ(*registry.IndexOf("m6"), 6u);
}

// The data-example block rendering is the journal's commit encoding and
// the annotations file's body, so its bytes are pinned: this constant was
// captured before AppendDataExamples rendered values straight into its
// buffer. It holds every escape, a long escape-free run, and nested list
// and record values.
TEST(RegistryIoTest, DataExampleRenderingIsPinned) {
  Ontology onto = BuildMyGridOntology();
  std::string longs;
  for (int i = 0; i < 12; ++i) longs += "ACGTTGCA-" + std::to_string(i) + " ";
  DataExample first;
  first.inputs = {
      Value::Str("q\"b\\s\nn\tt\rr"), Value::Str(longs),
      Value::ListOf(
          {Value::Int(-7), Value::Real(2.5), Value::Real(3.0),
           Value::ListOf({Value::Bool(true), Value::Null(), Value::Str("")}),
           Value::RecordOf({{"k\"ey", Value::Str("v\\al\n")},
                            {"n", Value::ListOf({Value::Int(1)})}})})};
  first.input_partitions = {onto.Find("TextDocument"), kInvalidConcept,
                            kInvalidConcept};
  first.outputs = {Value::RecordOf({{"seq", Value::Str(longs + "tail")},
                                    {"tab\t", Value::Bool(false)}}),
                   Value::Str("plain")};
  DataExample second;
  second.inputs = {Value::Str("x")};

  std::string rendered;
  AppendDataExamples(rendered, {first, second}, onto);
  EXPECT_EQ(rendered,
            "example\n"
            "in TextDocument \"q\\\"b\\\\s\\nn\\tt\\rr\"\n"
            "in - \"ACGTTGCA-0 ACGTTGCA-1 ACGTTGCA-2 ACGTTGCA-3 ACGTTGCA-4 "
            "ACGTTGCA-5 ACGTTGCA-6 ACGTTGCA-7 ACGTTGCA-8 ACGTTGCA-9 "
            "ACGTTGCA-10 ACGTTGCA-11 \"\n"
            "in - [-7, 2.5, 3.0, [true, null, \"\"], {\"k\\\"ey\": "
            "\"v\\\\al\\n\", \"n\": [1]}]\n"
            "out {\"seq\": \"ACGTTGCA-0 ACGTTGCA-1 ACGTTGCA-2 ACGTTGCA-3 "
            "ACGTTGCA-4 ACGTTGCA-5 ACGTTGCA-6 ACGTTGCA-7 ACGTTGCA-8 "
            "ACGTTGCA-9 ACGTTGCA-10 ACGTTGCA-11 tail\", \"tab\\t\": false}\n"
            "out \"plain\"\n"
            "end\n"
            "example\n"
            "in - \"x\"\n"
            "end\n");
  // Value::AppendTo appends what ToString returns.
  for (const Value& value : first.inputs) {
    std::string appended = "prefix ";
    value.AppendTo(appended);
    EXPECT_EQ(appended, "prefix " + value.ToString());
  }
}

}  // namespace
}  // namespace dexa
