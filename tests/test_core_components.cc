// Unit tests for KGMeta, the method selector and the JSON parser.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/json.h"
#include "core/kgmeta.h"
#include "core/method_selector.h"
#include "sparql/engine.h"

namespace kgnet::core {
namespace {

// --------------------------------------------------------------- KGMeta --

ModelInfo NcModel(const std::string& uri, double acc, double infer_us) {
  ModelInfo m;
  m.uri = uri;
  m.task = gml::TaskType::kNodeClassification;
  m.method = "RGCN";
  m.target_type_iri = "http://x/Paper";
  m.label_predicate_iri = "http://x/venue";
  m.accuracy = acc;
  m.inference_us = infer_us;
  m.cardinality = 100;
  m.sampler_label = "d1h1";
  m.train_seconds = 1.5;
  m.train_memory_bytes = 1 << 20;
  m.mrr = 0.5;
  return m;
}

ModelInfo LpModel(const std::string& uri) {
  ModelInfo m;
  m.uri = uri;
  m.task = gml::TaskType::kLinkPrediction;
  m.method = "TransE";
  m.source_type_iri = "http://x/Author";
  m.destination_type_iri = "http://x/Affil";
  m.task_predicate_iri = "http://x/affiliatedWith";
  m.accuracy = 0.25;
  m.mrr = 0.125;
  m.inference_us = 7.5;
  m.cardinality = 42;
  m.sampler_label = "d2h1";
  m.train_seconds = 0.75;
  m.train_memory_bytes = 4096;
  return m;
}

/// `info` as a registrable model with an empty serving bundle.
std::shared_ptr<const TrainedModel> Record(ModelInfo info) {
  return std::make_shared<TrainedModel>(TrainedModel{std::move(info), {}});
}

TEST(KgMetaTest, RegisterGetRoundTrip) {
  KgMeta meta;
  ModelInfo in = NcModel(KgnetVocab::Name("model/m1"), 0.9, 10.0);
  ASSERT_TRUE(meta.RegisterModel(Record(in)).ok());
  auto out = meta.Get(in.uri);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->task, in.task);
  EXPECT_EQ(out->method, "RGCN");
  EXPECT_EQ(out->target_type_iri, in.target_type_iri);
  EXPECT_EQ(out->label_predicate_iri, in.label_predicate_iri);
  EXPECT_NEAR(out->accuracy, 0.9, 1e-9);
  EXPECT_NEAR(out->inference_us, 10.0, 1e-9);
  EXPECT_EQ(out->cardinality, 100u);
  EXPECT_EQ(out->sampler_label, "d1h1");
}

TEST(KgMetaTest, DuplicateRegistrationRejected) {
  KgMeta meta;
  ModelInfo m = NcModel("u", 0.5, 1);
  ASSERT_TRUE(meta.RegisterModel(Record(m)).ok());
  EXPECT_EQ(meta.RegisterModel(Record(m)).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(KgMetaTest, DeleteRemovesAllTriples) {
  KgMeta meta;
  ASSERT_TRUE(meta.RegisterModel(Record(NcModel("u1", 0.5, 1))).ok());
  ASSERT_TRUE(meta.RegisterModel(Record(NcModel("u2", 0.6, 1))).ok());
  EXPECT_EQ(meta.NumModels(), 2u);
  ASSERT_TRUE(meta.DeleteModel("u1").ok());
  EXPECT_EQ(meta.NumModels(), 1u);
  EXPECT_FALSE(meta.Get("u1").ok());
  EXPECT_EQ(meta.DeleteModel("u1").code(), StatusCode::kNotFound);
}

TEST(KgMetaTest, FindModelsFiltersByConstraints) {
  KgMeta meta;
  ASSERT_TRUE(meta.RegisterModel(Record(NcModel("u1", 0.5, 1))).ok());
  ModelInfo other = NcModel("u2", 0.6, 1);
  other.target_type_iri = "http://x/Author";
  ASSERT_TRUE(meta.RegisterModel(Record(other)).ok());
  ASSERT_TRUE(meta.RegisterModel(Record(LpModel("u3"))).ok());

  ModelInfo pattern;
  pattern.task = gml::TaskType::kNodeClassification;
  pattern.target_type_iri = "http://x/Paper";
  auto found = meta.FindModels(pattern);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].uri, "u1");

  ModelInfo lp_pattern;
  lp_pattern.task = gml::TaskType::kLinkPrediction;
  lp_pattern.source_type_iri = "http://x/Author";
  EXPECT_EQ(meta.FindModels(lp_pattern).size(), 1u);

  // Empty constraints match all NC models.
  ModelInfo all_nc;
  all_nc.task = gml::TaskType::kNodeClassification;
  EXPECT_EQ(meta.FindModels(all_nc).size(), 2u);
}

/// The triples about `uri`, by predicate, read by a SPARQL SELECT over the
/// KGMeta graph.
std::map<std::string, rdf::Term> TriplesAbout(KgMeta* meta,
                                              const std::string& uri) {
  sparql::QueryEngine engine(&meta->mutable_store());
  auto r = engine.ExecuteString("SELECT ?p ?o WHERE { <" + uri + "> ?p ?o . }");
  EXPECT_TRUE(r.ok()) << r.status();
  std::map<std::string, rdf::Term> out;
  if (r.ok())
    for (const auto& row : r->rows) out.emplace(row[0].lexical, row[1]);
  return out;
}

/// Every field of `m` appears as its Figure 7 triple, and no other triple
/// is about `m.uri`.
void ExpectFigure7Triples(KgMeta* meta, const ModelInfo& m) {
  const std::map<std::string, rdf::Term> triples = TriplesAbout(meta, m.uri);
  size_t expected = 0;
  auto object = [&](const std::string& pred) {
    ++expected;
    auto it = triples.find(pred);
    EXPECT_TRUE(it != triples.end()) << m.uri << " lacks " << pred;
    return it == triples.end() ? rdf::Term::Undef() : it->second;
  };
  auto iri = [&](const std::string& pred, const std::string& want) {
    EXPECT_EQ(object(pred), rdf::Term::Iri(want)) << pred;
  };
  auto literal = [&](const std::string& pred, const std::string& want) {
    EXPECT_EQ(object(pred), rdf::Term::Literal(want)) << pred;
  };
  auto number = [&](const std::string& pred, double want) {
    double have = -1;
    EXPECT_TRUE(object(pred).AsDouble(&have)) << pred;
    EXPECT_EQ(have, want) << pred;
  };
  if (m.task == gml::TaskType::kNodeClassification) {
    iri(std::string(rdf::kRdfType), KgnetVocab::NodeClassifier());
    iri(KgnetVocab::TargetNode(), m.target_type_iri);
    iri(KgnetVocab::NodeLabel(), m.label_predicate_iri);
  } else {
    iri(std::string(rdf::kRdfType), KgnetVocab::LinkPredictor());
    iri(KgnetVocab::SourceNode(), m.source_type_iri);
    iri(KgnetVocab::DestinationNode(), m.destination_type_iri);
    iri(KgnetVocab::TaskPredicate(), m.task_predicate_iri);
  }
  literal(KgnetVocab::GmlMethod(), m.method);
  literal(KgnetVocab::Sampler(), m.sampler_label);
  number(KgnetVocab::Accuracy(), m.accuracy);
  number(KgnetVocab::Mrr(), m.mrr);
  number(KgnetVocab::InferenceTime(), m.inference_us);
  number(KgnetVocab::Cardinality(), static_cast<double>(m.cardinality));
  number(KgnetVocab::TrainTime(), m.train_seconds);
  number(KgnetVocab::MemoryUsed(), static_cast<double>(m.train_memory_bytes));
  EXPECT_EQ(triples.size(), expected) << m.uri;
}

TEST(KgMetaTest, KgMetaIsQueryableViaSparql) {
  KgMeta meta;
  const ModelInfo nc = NcModel(KgnetVocab::Name("model/m9"), 0.77, 3);
  const ModelInfo lp = LpModel(KgnetVocab::Name("model/m10"));
  ASSERT_TRUE(meta.RegisterModel(Record(nc)).ok());
  ASSERT_TRUE(meta.RegisterModel(Record(lp)).ok());
  sparql::QueryEngine engine(&meta.mutable_store());
  auto r = engine.ExecuteString(
      "PREFIX kgnet: <https://www.kgnet.com/>\n"
      "SELECT ?m ?acc WHERE { ?m a kgnet:NodeClassifier . "
      "?m kgnet:modelAccuracy ?acc . }");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->NumRows(), 1u);
  EXPECT_EQ(r->rows[0][0].lexical, KgnetVocab::Name("model/m9"));
  double acc;
  EXPECT_TRUE(r->rows[0][1].AsDouble(&acc));
  EXPECT_NEAR(acc, 0.77, 1e-9);
  ExpectFigure7Triples(&meta, nc);
  ExpectFigure7Triples(&meta, lp);
}

// Register and delete change the held record and the graph together; a
// replacing registration swaps both and keeps the model's place.
TEST(KgMetaTest, RegisterAndDeleteChangeRecordAndTriplesTogether) {
  KgMeta meta;
  ModelInfo a = NcModel("urn:a", 0.5, 1);
  auto added = meta.RegisterModel(Record(a));
  ASSERT_TRUE(added.ok()) << added.status();
  EXPECT_EQ(*added, 11u);
  EXPECT_EQ(meta.store().size(), 11u);
  ASSERT_TRUE(meta.RegisterModel(Record(NcModel("urn:b", 0.5, 1))).ok());

  a.accuracy = 0.625;
  a.method = "GCN";
  auto replaced = meta.RegisterModel(Record(a), /*replace=*/true);
  ASSERT_TRUE(replaced.ok()) << replaced.status();
  EXPECT_EQ(*replaced, 11u);
  EXPECT_EQ(meta.store().size(), 22u);
  EXPECT_EQ(meta.Get("urn:a")->accuracy, 0.625);
  ExpectFigure7Triples(&meta, a);
  ModelInfo all_nc;
  all_nc.task = gml::TaskType::kNodeClassification;
  const std::vector<ModelInfo> found = meta.FindModels(all_nc);
  ASSERT_EQ(found.size(), 2u);
  EXPECT_EQ(found[0].uri, "urn:a");

  EXPECT_EQ(meta.RegisterModel(Record(ModelInfo{})).status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(meta.DeleteModel("urn:a").ok());
  EXPECT_EQ(meta.store().size(), 11u);
  EXPECT_TRUE(TriplesAbout(&meta, "urn:a").empty());
  EXPECT_EQ(meta.GetModel("urn:a").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(meta.ListModelUris(), std::vector<std::string>{"urn:b"});
}

// -------------------------------------------------------- MethodSelector --

GraphSummary MediumGraph() {
  GraphSummary s;
  s.num_nodes = 10000;
  s.num_edges = 50000;
  s.num_relations = 20;
  s.num_classes = 10;
  s.feature_dim = 32;
  return s;
}

TEST(MethodSelectorTest, RgcnEstimateDominatesSamplingInMemory) {
  gml::TrainConfig c;
  auto rgcn = MethodSelector::Estimate(gml::GmlMethod::kRgcn, MediumGraph(), c);
  auto saint =
      MethodSelector::Estimate(gml::GmlMethod::kGraphSaint, MediumGraph(), c);
  auto morse =
      MethodSelector::Estimate(gml::GmlMethod::kMorse, MediumGraph(), c);
  EXPECT_GT(rgcn.memory_bytes, saint.memory_bytes);
  EXPECT_GT(saint.memory_bytes, morse.memory_bytes);
}

TEST(MethodSelectorTest, EstimatesScaleWithGraphSize) {
  gml::TrainConfig c;
  GraphSummary small = MediumGraph();
  GraphSummary big = MediumGraph();
  big.num_nodes *= 10;
  big.num_edges *= 10;
  for (auto m : {gml::GmlMethod::kGcn, gml::GmlMethod::kRgcn,
                 gml::GmlMethod::kTransE}) {
    auto es = MethodSelector::Estimate(m, small, c);
    auto eb = MethodSelector::Estimate(m, big, c);
    EXPECT_GT(eb.memory_bytes, es.memory_bytes) << gml::GmlMethodName(m);
    EXPECT_GT(eb.seconds, es.seconds) << gml::GmlMethodName(m);
  }
}

TEST(MethodSelectorTest, UnconstrainedPicksHighestPrior) {
  gml::TrainConfig c;
  TaskBudget budget;  // unconstrained, ModelScore priority
  auto sel = MethodSelector::Select(gml::TaskType::kNodeClassification,
                                    MediumGraph(), c, budget);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->method, gml::GmlMethod::kShadowSaint);
  EXPECT_TRUE(sel->within_budget);
  EXPECT_EQ(sel->candidates.size(), 5u);
}

TEST(MethodSelectorTest, TightMemoryBudgetExcludesRgcn) {
  gml::TrainConfig c;
  auto rgcn = MethodSelector::Estimate(gml::GmlMethod::kRgcn, MediumGraph(), c);
  TaskBudget budget;
  budget.max_memory_bytes = rgcn.memory_bytes / 2;
  auto sel = MethodSelector::Select(gml::TaskType::kNodeClassification,
                                    MediumGraph(), c, budget);
  ASSERT_TRUE(sel.ok());
  EXPECT_NE(sel->method, gml::GmlMethod::kRgcn);
}

TEST(MethodSelectorTest, TimePriorityPicksFastest) {
  gml::TrainConfig c;
  TaskBudget budget;
  budget.priority = BudgetPriority::kTime;
  auto sel = MethodSelector::Select(gml::TaskType::kLinkPrediction,
                                    MediumGraph(), c, budget);
  ASSERT_TRUE(sel.ok());
  double best_seconds = sel->candidates.front().seconds;
  for (const auto& cand : sel->candidates)
    EXPECT_GE(cand.seconds, best_seconds);
}

TEST(MethodSelectorTest, ImpossibleBudgetFallsBackToCheapest) {
  gml::TrainConfig c;
  TaskBudget budget;
  budget.max_memory_bytes = 1;  // nothing fits
  auto sel = MethodSelector::Select(gml::TaskType::kNodeClassification,
                                    MediumGraph(), c, budget);
  ASSERT_TRUE(sel.ok());
  EXPECT_FALSE(sel->within_budget);
}

TEST(MethodSelectorTest, ParseBudgetStrings) {
  EXPECT_EQ(*ParseMemoryBudget("50GB"), size_t(50e9));
  EXPECT_EQ(*ParseMemoryBudget("512MB"), size_t(512e6));
  EXPECT_EQ(*ParseMemoryBudget("100"), 100u);
  EXPECT_FALSE(ParseMemoryBudget("abc").ok());
  EXPECT_FALSE(ParseMemoryBudget("5XB").ok());
  EXPECT_DOUBLE_EQ(*ParseTimeBudget("1h"), 3600.0);
  EXPECT_DOUBLE_EQ(*ParseTimeBudget("15m"), 900.0);
  EXPECT_DOUBLE_EQ(*ParseTimeBudget("90s"), 90.0);
  EXPECT_DOUBLE_EQ(*ParseTimeBudget("2.5"), 2.5);
  EXPECT_FALSE(ParseTimeBudget("yesterday").ok());
}

// ------------------------------------------------------------------ JSON --

TEST(JsonTest, ParsesStandardJson) {
  auto v = ParseJson(R"({"a": 1, "b": [true, null, "s"], "c": {"d": -2.5}})");
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_DOUBLE_EQ(v->Find("a")->AsNumber(), 1.0);
  EXPECT_EQ(v->Find("b")->AsArray().size(), 3u);
  EXPECT_TRUE(v->Find("b")->AsArray()[0].AsBool());
  EXPECT_DOUBLE_EQ(v->Find("c")->Find("d")->AsNumber(), -2.5);
}

TEST(JsonTest, ParsesPaperStyleRelaxedSyntax) {
  // Figure 8 of the paper: unquoted keys, single quotes, prefixed-name
  // values, unit-suffixed numbers.
  auto v = ParseJson(
      "{Name: 'MAG_Paper-Venue_Classifier',\n"
      " GML-Task:{ TaskType: kgnet:NodeClassifier,\n"
      "   TargetNode: dblp:publication,\n"
      "   NodeLable: dblp:venue},\n"
      " Task Budget:{ MaxMemory:50GB, MaxTime:1h,\n"
      "   Priority:ModelScore} }");
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(v->GetString("Name"), "MAG_Paper-Venue_Classifier");
  const JsonValue* task = v->FindRelaxed("GML-Task");
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(task->GetString("TaskType"), "kgnet:NodeClassifier");
  EXPECT_EQ(task->GetString("NodeLable"), "dblp:venue");
  const JsonValue* budget = v->FindRelaxed("TaskBudget");
  ASSERT_NE(budget, nullptr);
  EXPECT_EQ(budget->GetString("MaxMemory"), "50GB");
  EXPECT_EQ(budget->GetString("MaxTime"), "1h");
}

TEST(JsonTest, RelaxedKeyLookup) {
  auto v = ParseJson("{\"GML-Task\": 1}");
  ASSERT_TRUE(v.ok());
  EXPECT_NE(v->FindRelaxed("gmltask"), nullptr);
  EXPECT_NE(v->FindRelaxed("GML_task"), nullptr);
  EXPECT_EQ(v->FindRelaxed("other"), nullptr);
}

TEST(JsonTest, RejectsMalformed) {
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("{a: }").ok());
  EXPECT_FALSE(ParseJson("[1, 2").ok());
  EXPECT_FALSE(ParseJson("{a: 1} trailing").ok());
  EXPECT_FALSE(ParseJson("{'unterminated: 1}").ok());
}

}  // namespace
}  // namespace kgnet::core
