// End-to-end integration tests for the KGNet platform: the paper's query
// lifecycle — TrainGML INSERT (Figure 8), SPARQL-ML SELECT with a node
// classifier (Figure 2), link prediction SELECT (Figure 10), model DELETE
// (Figure 9) — plus the two rewrite plans (Figures 11/12) and entity
// similarity.
#include <gtest/gtest.h>

#include <memory>

#include "common/cancel.h"
#include "core/kgnet.h"
#include "workload/dblp_gen.h"

namespace kgnet::core {
namespace {

using workload::DblpSchema;

constexpr char kPrefixes[] =
    "PREFIX dblp: <https://dblp.org/rdf/>\n"
    "PREFIX kgnet: <https://www.kgnet.com/>\n";

/// `info` as a registrable model with an empty serving bundle.
std::shared_ptr<const TrainedModel> Record(ModelInfo info) {
  return std::make_shared<TrainedModel>(TrainedModel{std::move(info), {}});
}

class SparqlMlE2eTest : public ::testing::Test {
 protected:
  SparqlMlE2eTest() {
    workload::DblpOptions opts;
    opts.num_papers = 200;
    opts.num_authors = 100;
    opts.num_venues = 4;
    opts.num_affiliations = 8;
    opts.noise = 0.05;
    opts.periphery_scale = 0.5;
    opts.seed = 31;
    EXPECT_TRUE(workload::GenerateDblp(opts, &kg_.store()).ok());
  }

  /// Trains a paper-venue classifier through the TrainGML query path.
  std::string TrainVenueClassifier(const std::string& method = "") {
    std::string hyper =
        ", Hyperparameters: {Epochs: 60, HiddenDim: 16, EmbedDim: 16, "
        "Patience: 25}";
    std::string m = method.empty() ? "" : ", Method: '" + method + "'";
    auto r = kg_.Execute(std::string(kPrefixes) +
                         "INSERT INTO <kgnet> { ?s ?p ?o } WHERE { "
                         "SELECT * FROM kgnet.TrainGML(\n"
                         "{Name: 'DBLP_Paper-Venue',\n"
                         " GML-Task: {TaskType: kgnet:NodeClassifier,\n"
                         "  TargetNode: dblp:Publication,\n"
                         "  NodeLabel: dblp:publishedIn},\n"
                         " TaskBudget: {MaxMemory: 10GB, MaxTime: 2m,"
                         " Priority: ModelScore}" +
                         hyper + m + "})}");
    EXPECT_TRUE(r.ok()) << r.status();
    if (!r.ok()) return "";
    EXPECT_EQ(r->columns[0], "model");
    return r->rows[0][0].lexical;
  }

  KgNet kg_;
};

TEST_F(SparqlMlE2eTest, PlainSparqlStillWorks) {
  auto r = kg_.Execute(std::string(kPrefixes) +
                       "SELECT ?p WHERE { ?p a dblp:Publication . } LIMIT 7");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->NumRows(), 7u);
}

TEST_F(SparqlMlE2eTest, TrainGmlInsertRegistersModel) {
  const std::string uri = TrainVenueClassifier();
  ASSERT_FALSE(uri.empty());
  EXPECT_EQ(kg_.service().kgmeta().NumModels(), 1u);
  auto info = kg_.service().kgmeta().Get(uri);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->target_type_iri, DblpSchema::Publication());
  EXPECT_EQ(info->label_predicate_iri, DblpSchema::PublishedIn());
  EXPECT_GT(info->accuracy, 0.3);
  EXPECT_EQ(info->sampler_label, "d1h1");
  EXPECT_GT(info->cardinality, 0u);
  // The trained artifact is servable.
  EXPECT_TRUE(kg_.service().kgmeta().GetModel(uri).ok());
}

TEST_F(SparqlMlE2eTest, CancelledTrainGmlRegistersNothing) {
  // A tripped cancel token (here: a draining server's hard-cancel)
  // aborts training at the next epoch boundary and the pipeline
  // registers nothing — unlike the time budget, which keeps the
  // partially trained model.
  common::CancelSource source;
  source.Cancel(common::CancelReason::kDrain);
  auto r = kg_.service().Execute(
      std::string(kPrefixes) +
          "INSERT INTO <kgnet> { ?s ?p ?o } WHERE { "
          "SELECT * FROM kgnet.TrainGML(\n"
          "{Name: 'DBLP_Paper-Venue',\n"
          " GML-Task: {TaskType: kgnet:NodeClassifier,\n"
          "  TargetNode: dblp:Publication,\n"
          "  NodeLabel: dblp:publishedIn},\n"
          " TaskBudget: {MaxMemory: 10GB, MaxTime: 2m,"
          " Priority: ModelScore},"
          " Hyperparameters: {Epochs: 60, HiddenDim: 16, EmbedDim: 16,"
          " Patience: 25}})}",
      nullptr, source.token());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(kg_.service().kgmeta().NumModels(), 0u);
}

TEST_F(SparqlMlE2eTest, Figure2VenueQueryPredictsForEveryPaper) {
  TrainVenueClassifier();
  ExecutionStats stats;
  auto r = kg_.Execute(std::string(kPrefixes) +
                           "SELECT ?title ?venue WHERE {\n"
                           " ?paper a dblp:Publication .\n"
                           " ?paper dblp:title ?title .\n"
                           " ?paper ?NodeClassifier ?venue .\n"
                           " ?NodeClassifier a kgnet:NodeClassifier .\n"
                           " ?NodeClassifier kgnet:TargetNode "
                           "dblp:Publication .\n"
                           " ?NodeClassifier kgnet:NodeLabel "
                           "dblp:publishedIn . }",
                       &stats);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->NumRows(), 200u);
  // Every returned venue is one of the 4 real venue IRIs.
  int venue_col = r->ColumnIndex("venue");
  ASSERT_GE(venue_col, 0);
  size_t predicted = 0;
  for (const auto& row : r->rows) {
    if (row[venue_col].lexical.find("venue") != std::string::npos)
      ++predicted;
  }
  EXPECT_EQ(predicted, 200u);
  // With 200 papers the optimizer should pick the dictionary plan: 1 call.
  EXPECT_EQ(stats.plan, RewritePlan::kDictionary);
  EXPECT_EQ(stats.http_calls, 1u);
}

TEST_F(SparqlMlE2eTest, PredictionsBeatChanceAgainstGroundTruth) {
  TrainVenueClassifier();
  auto r = kg_.Execute(std::string(kPrefixes) +
                       "SELECT ?paper ?venue WHERE {\n"
                       " ?paper a dblp:Publication .\n"
                       " ?paper ?clf ?venue .\n"
                       " ?clf a kgnet:NodeClassifier .\n"
                       " ?clf kgnet:TargetNode dblp:Publication . }");
  ASSERT_TRUE(r.ok()) << r.status();
  // Compare with the ground-truth publishedIn edges in the KG.
  size_t correct = 0;
  const auto& dict = kg_.store().dict();
  rdf::TermId label = dict.FindIri(DblpSchema::PublishedIn());
  for (const auto& row : r->rows) {
    rdf::TermId paper = dict.FindIri(row[0].lexical);
    rdf::TermId venue = dict.FindIri(row[1].lexical);
    if (paper != rdf::kNullTermId && venue != rdf::kNullTermId &&
        kg_.store().Contains(rdf::Triple(paper, label, venue)))
      ++correct;
  }
  // 4 balanced venues: chance = 25%. The trained model must beat this
  // substantially even counting train nodes.
  EXPECT_GT(static_cast<double>(correct) / r->NumRows(), 0.5);
}

TEST_F(SparqlMlE2eTest, BothPlansReturnSameRows) {
  TrainVenueClassifier();
  const std::string query = std::string(kPrefixes) +
                            "SELECT ?paper ?venue WHERE {\n"
                            " ?paper a dblp:Publication .\n"
                            " ?paper ?clf ?venue .\n"
                            " ?clf a kgnet:NodeClassifier .\n"
                            " ?clf kgnet:TargetNode dblp:Publication . }";
  ExecutionStats s1, s2;
  auto per = kg_.service().ExecuteWithPlan(query, RewritePlan::kPerInstance,
                                           &s1);
  auto dict = kg_.service().ExecuteWithPlan(query, RewritePlan::kDictionary,
                                            &s2);
  ASSERT_TRUE(per.ok()) << per.status();
  ASSERT_TRUE(dict.ok()) << dict.status();
  ASSERT_EQ(per->NumRows(), dict->NumRows());
  // Same predictions, row by row (order preserved by identical BGP).
  for (size_t i = 0; i < per->NumRows(); ++i)
    EXPECT_EQ(per->rows[i][1].lexical, dict->rows[i][1].lexical);
  // Figure 11 vs 12: per-instance costs one call per paper, dictionary one.
  EXPECT_EQ(s1.http_calls, 200u);
  EXPECT_EQ(s2.http_calls, 1u);
}

TEST_F(SparqlMlE2eTest, Figure9DeleteRemovesModel) {
  const std::string uri = TrainVenueClassifier();
  ASSERT_FALSE(uri.empty());
  auto del = kg_.Execute(std::string(kPrefixes) +
                         "DELETE {?NodeClassifier ?p ?o} WHERE {\n"
                         " ?NodeClassifier a kgnet:NodeClassifier .\n"
                         " ?NodeClassifier kgnet:TargetNode "
                         "dblp:Publication .\n"
                         " ?NodeClassifier kgnet:NodeLabel "
                         "dblp:publishedIn . }");
  ASSERT_TRUE(del.ok()) << del.status();
  EXPECT_EQ(del->num_deleted, 1u);
  EXPECT_EQ(kg_.service().kgmeta().NumModels(), 0u);
  EXPECT_FALSE(kg_.service().kgmeta().GetModel(uri).ok());
  // Queries now fail with a clear error: no model matches.
  auto r = kg_.Execute(std::string(kPrefixes) +
                       "SELECT ?venue WHERE {\n"
                       " ?paper a dblp:Publication .\n"
                       " ?paper ?clf ?venue .\n"
                       " ?clf a kgnet:NodeClassifier . }");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(SparqlMlE2eTest, Figure10LinkPredictionQuery) {
  // Train an author-affiliation link predictor programmatically.
  TrainTaskSpec spec;
  spec.task = gml::TaskType::kLinkPrediction;
  spec.target_type_iri = DblpSchema::Person();
  spec.destination_type_iri = DblpSchema::Affiliation();
  spec.task_predicate_iri = DblpSchema::PrimaryAffiliation();
  spec.config.epochs = 20;
  spec.config.embed_dim = 16;
  spec.config.lr = 0.05f;
  spec.model_name = "author-affiliation";
  auto outcome = kg_.TrainTask(spec);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->sampler_label, "d2h1");

  auto r = kg_.Execute(std::string(kPrefixes) +
                       "SELECT ?author ?affiliation WHERE {\n"
                       " ?author a dblp:Person .\n"
                       " ?author ?LinkPredictor ?affiliation .\n"
                       " ?LinkPredictor a kgnet:LinkPredictor .\n"
                       " ?LinkPredictor kgnet:SourceNode dblp:Person .\n"
                       " ?LinkPredictor kgnet:DestinationNode "
                       "dblp:Affiliation .\n"
                       " ?LinkPredictor kgnet:TopK-Links 1 . } LIMIT 20");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->NumRows(), 20u);
  // Predicted objects are affiliation IRIs.
  for (const auto& row : r->rows)
    EXPECT_NE(row[1].lexical.find("affiliation"), std::string::npos)
        << row[1].lexical;
}

TEST_F(SparqlMlE2eTest, EntitySimilaritySearch) {
  TrainTaskSpec spec;
  spec.task = gml::TaskType::kLinkPrediction;
  spec.target_type_iri = DblpSchema::Person();
  spec.destination_type_iri = DblpSchema::Affiliation();
  spec.task_predicate_iri = DblpSchema::PrimaryAffiliation();
  spec.config.epochs = 10;
  spec.config.embed_dim = 16;
  spec.model_name = "es";
  auto outcome = kg_.TrainTask(spec);
  ASSERT_TRUE(outcome.ok()) << outcome.status();

  auto model = kg_.service().kgmeta().GetModel(outcome->model_uri);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ((*model)->bundle.embed_dim, 16u);
  EXPECT_EQ((*model)->bundle.entity_rows.size(),
            (*model)->bundle.node_iris.size() * 16);
  auto sims = kg_.GetSimilarEntities(outcome->model_uri,
                                     "https://dblp.org/rdf/person/0", 5);
  ASSERT_TRUE(sims.ok()) << sims.status();
  EXPECT_EQ(sims->size(), 5u);
  for (const auto& iri : *sims)
    EXPECT_NE(iri, "https://dblp.org/rdf/person/0");  // self excluded
}

TEST_F(SparqlMlE2eTest, BudgetSelectsCheaperMethodUnderMemoryPressure) {
  // With a tiny memory budget the selector must avoid full-batch RGCN.
  auto r = kg_.Execute(std::string(kPrefixes) +
                       "INSERT INTO <kgnet> { ?s ?p ?o } WHERE { "
                       "SELECT * FROM kgnet.TrainGML(\n"
                       "{Name: 'tight-budget',\n"
                       " GML-Task: {TaskType: kgnet:NodeClassifier,\n"
                       "  TargetNode: dblp:Publication,\n"
                       "  NodeLabel: dblp:publishedIn},\n"
                       " Hyperparameters: {Epochs: 3},\n"
                       " TaskBudget: {MaxMemory: 2MB, Priority: "
                       "ModelScore}})}");
  ASSERT_TRUE(r.ok()) << r.status();
  const std::string method = r->rows[0][2].lexical;
  EXPECT_NE(method, "RGCN");
}

TEST_F(SparqlMlE2eTest, ForcedMethodIsRespected) {
  TrainVenueClassifier("RGCN");
  auto uris = kg_.service().kgmeta().ListModelUris();
  ASSERT_EQ(uris.size(), 1u);
  auto info = kg_.service().kgmeta().Get(uris[0]);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->method, "RGCN");
}

TEST_F(SparqlMlE2eTest, TrainGmlErrorsOnBadPayload) {
  auto r = kg_.Execute("SELECT * FROM kgnet.TrainGML({Name: 'x'})");
  EXPECT_FALSE(r.ok());  // missing GML-Task
  auto r2 = kg_.Execute(
      "SELECT * FROM kgnet.TrainGML({GML-Task: {TaskType: "
      "kgnet:NodeClassifier, TargetNode: <http://nope>, NodeLabel: "
      "<http://nope2>}})");
  EXPECT_FALSE(r2.ok());  // unknown IRIs in the KG
}

TEST_F(SparqlMlE2eTest, SelectModelPrefersAccurateThenFast) {
  KgMeta& meta = kg_.service().kgmeta();
  ModelInfo slow_accurate;
  slow_accurate.uri = "m/slow";
  slow_accurate.task = gml::TaskType::kNodeClassification;
  slow_accurate.target_type_iri = DblpSchema::Publication();
  slow_accurate.label_predicate_iri = DblpSchema::PublishedIn();
  slow_accurate.accuracy = 0.90;
  slow_accurate.inference_us = 1000;
  ModelInfo fast_similar = slow_accurate;
  fast_similar.uri = "m/fast";
  fast_similar.accuracy = 0.895;  // within 1% of best
  fast_similar.inference_us = 10;
  ModelInfo fast_bad = slow_accurate;
  fast_bad.uri = "m/bad";
  fast_bad.accuracy = 0.50;
  fast_bad.inference_us = 1;
  ASSERT_TRUE(meta.RegisterModel(Record(slow_accurate)).ok());
  ASSERT_TRUE(meta.RegisterModel(Record(fast_similar)).ok());
  ASSERT_TRUE(meta.RegisterModel(Record(fast_bad)).ok());

  UserDefinedPredicate udp;
  udp.var = "clf";
  udp.task = gml::TaskType::kNodeClassification;
  udp.constraints.task = gml::TaskType::kNodeClassification;
  udp.constraints.target_type_iri = DblpSchema::Publication();
  auto chosen = kg_.service().SelectModel(udp);
  ASSERT_TRUE(chosen.ok()) << chosen.status();
  EXPECT_EQ(chosen->uri, "m/fast");
}

TEST_F(SparqlMlE2eTest, SelectModelBreaksFullTiesByRegistrationOrder) {
  KgMeta& meta = kg_.service().kgmeta();
  ModelInfo first;
  first.uri = "m/b";  // registered first, though later in URI order
  first.task = gml::TaskType::kNodeClassification;
  first.target_type_iri = DblpSchema::Publication();
  first.label_predicate_iri = DblpSchema::PublishedIn();
  first.accuracy = 0.8;
  first.inference_us = 5;
  ModelInfo second = first;
  second.uri = "m/a";
  ASSERT_TRUE(meta.RegisterModel(Record(first)).ok());
  ASSERT_TRUE(meta.RegisterModel(Record(second)).ok());

  UserDefinedPredicate udp;
  udp.var = "clf";
  udp.task = gml::TaskType::kNodeClassification;
  udp.constraints.task = gml::TaskType::kNodeClassification;
  auto chosen = kg_.service().SelectModel(udp);
  ASSERT_TRUE(chosen.ok()) << chosen.status();
  EXPECT_EQ(chosen->uri, "m/b");
}

// A TrainGML INSERT reports the KGMeta triples its own model added, call
// after call, not the size of the whole KGMeta graph.
TEST_F(SparqlMlE2eTest, TrainGmlReportsTheTriplesItAdded) {
  for (int call = 0; call < 2; ++call) {
    auto r = kg_.Execute(std::string(kPrefixes) +
                         "INSERT INTO <kgnet> { ?s ?p ?o } WHERE { "
                         "SELECT * FROM kgnet.TrainGML(\n"
                         "{Name: 'venue',\n"
                         " GML-Task: {TaskType: kgnet:NodeClassifier,\n"
                         "  TargetNode: dblp:Publication,\n"
                         "  NodeLabel: dblp:publishedIn},\n"
                         " Hyperparameters: {Epochs: 3}})}");
    ASSERT_TRUE(r.ok()) << r.status();
    const std::string uri = r->rows[0][0].lexical;
    sparql::QueryEngine meta(&kg_.service().kgmeta().mutable_store());
    auto triples =
        meta.ExecuteString("SELECT ?p ?o WHERE { <" + uri + "> ?p ?o . }");
    ASSERT_TRUE(triples.ok()) << triples.status();
    EXPECT_GT(triples->NumRows(), 0u);
    EXPECT_EQ(r->num_inserted, triples->NumRows()) << "call " << call;
  }
}

}  // namespace
}  // namespace kgnet::core
