// Unit tests for the SPARQL-ML pipeline stages: Analyze, ChoosePlan,
// Rewrite, Explain — plus the entity-similarity task end to end.
#include <gtest/gtest.h>

#include "core/kgnet.h"
#include "sparql/parser.h"
#include "sparql/serializer.h"
#include "workload/dblp_gen.h"

namespace kgnet::core {
namespace {

using workload::DblpSchema;

constexpr char kPrefixes[] =
    "PREFIX dblp: <https://dblp.org/rdf/>\n"
    "PREFIX kgnet: <https://www.kgnet.com/>\n";

class SparqlMlAnalysisTest : public ::testing::Test {
 protected:
  SparqlMlAnalysisTest() {
    workload::DblpOptions opts;
    opts.num_papers = 120;
    opts.num_authors = 60;
    opts.num_venues = 4;
    opts.num_affiliations = 8;
    opts.include_periphery = false;
    EXPECT_TRUE(workload::GenerateDblp(opts, &kg_.store()).ok());
  }

  /// Parses and analyzes `query`; the parse goes to `parsed` when given.
  SparqlMlAnalysis Analyze(const std::string& query,
                           sparql::Query* parsed = nullptr) {
    auto q = sparql::ParseQuery(query);
    EXPECT_TRUE(q.ok()) << q.status();
    auto analysis = kg_.service().Analyze(*q);
    EXPECT_TRUE(analysis.ok()) << analysis.status();
    if (parsed != nullptr) *parsed = std::move(*q);
    return std::move(*analysis);
  }

  /// Trains a small node classifier of `target` nodes by `label` through
  /// the programmatic path; returns the model URI.
  std::string TrainNodeClassifier(const std::string& name,
                                  const std::string& target,
                                  const std::string& label) {
    TrainTaskSpec spec;
    spec.task = gml::TaskType::kNodeClassification;
    spec.target_type_iri = target;
    spec.label_predicate_iri = label;
    spec.config.epochs = 2;
    spec.config.hidden_dim = 8;
    spec.config.embed_dim = 8;
    spec.model_name = name;
    auto outcome = kg_.TrainTask(spec);
    EXPECT_TRUE(outcome.ok()) << outcome.status();
    return outcome.ok() ? outcome->model_uri : "";
  }

  KgNet kg_;
};

TEST_F(SparqlMlAnalysisTest, PlainSparqlHasNoUdps) {
  auto a = Analyze(std::string(kPrefixes) +
                   "SELECT ?t WHERE { ?p dblp:title ?t . }");
  EXPECT_FALSE(a.is_sparql_ml());
}

TEST_F(SparqlMlAnalysisTest, VariablePredicateWithoutKgnetTypeIsNotUdp) {
  // A generic join variable in predicate position must not be mistaken
  // for a user-defined predicate.
  auto a = Analyze(std::string(kPrefixes) +
                   "SELECT ?p WHERE { ?s ?p ?o . }");
  EXPECT_FALSE(a.is_sparql_ml());
}

TEST_F(SparqlMlAnalysisTest, DetectsNodeClassifierUdp) {
  auto a = Analyze(std::string(kPrefixes) +
                   "SELECT ?venue WHERE {\n"
                   " ?paper a dblp:Publication .\n"
                   " ?paper ?clf ?venue .\n"
                   " ?clf a kgnet:NodeClassifier .\n"
                   " ?clf kgnet:TargetNode dblp:Publication .\n"
                   " ?clf kgnet:NodeLabel dblp:publishedIn . }");
  ASSERT_EQ(a.udps.size(), 1u);
  const UserDefinedPredicate& udp = a.udps[0];
  EXPECT_EQ(udp.var, "clf");
  EXPECT_EQ(udp.task, gml::TaskType::kNodeClassification);
  EXPECT_EQ(udp.subject_var, "paper");
  EXPECT_EQ(udp.object_var, "venue");
  EXPECT_EQ(udp.constraints.target_type_iri, DblpSchema::Publication());
  EXPECT_EQ(udp.constraints.label_predicate_iri, DblpSchema::PublishedIn());
  EXPECT_EQ(udp.meta_triples.size(), 3u);
}

TEST_F(SparqlMlAnalysisTest, DetectsLinkPredictorWithTopK) {
  auto a = Analyze(std::string(kPrefixes) +
                   "SELECT ?aff WHERE {\n"
                   " ?author a dblp:Person .\n"
                   " ?author ?lp ?aff .\n"
                   " ?lp a kgnet:LinkPredictor .\n"
                   " ?lp kgnet:SourceNode dblp:Person .\n"
                   " ?lp kgnet:DestinationNode dblp:Affiliation .\n"
                   " ?lp kgnet:TopK-Links 7 . }");
  ASSERT_EQ(a.udps.size(), 1u);
  EXPECT_EQ(a.udps[0].task, gml::TaskType::kLinkPrediction);
  EXPECT_EQ(a.udps[0].topk, 7u);
  EXPECT_EQ(a.udps[0].constraints.source_type_iri, DblpSchema::Person());
}

TEST_F(SparqlMlAnalysisTest, DetectsSimilarEntitiesUdp) {
  auto a = Analyze(std::string(kPrefixes) +
                   "SELECT ?sim WHERE {\n"
                   " ?author a dblp:Person .\n"
                   " ?author ?es ?sim .\n"
                   " ?es a kgnet:SimilarEntities .\n"
                   " ?es kgnet:TargetNode dblp:Person . }");
  ASSERT_EQ(a.udps.size(), 1u);
  EXPECT_EQ(a.udps[0].task, gml::TaskType::kEntitySimilarity);
  // For non-NC tasks TargetNode maps to the source type.
  EXPECT_EQ(a.udps[0].constraints.source_type_iri, DblpSchema::Person());
}

TEST_F(SparqlMlAnalysisTest, SelectModelFailsWithoutTrainedModels) {
  auto a = Analyze(std::string(kPrefixes) +
                   "SELECT ?v WHERE { ?p ?clf ?v . "
                   "?clf a kgnet:NodeClassifier . }");
  ASSERT_EQ(a.udps.size(), 1u);
  auto model = kg_.service().SelectModel(a.udps[0]);
  EXPECT_EQ(model.status().code(), StatusCode::kNotFound);
}

TEST_F(SparqlMlAnalysisTest, ChoosePlanScalesWithInstanceCount) {
  ModelInfo model;
  model.uri = "m";
  model.task = gml::TaskType::kNodeClassification;
  model.cardinality = 120;
  auto choose = [&](const sparql::Query& q, SparqlMlAnalysis a) {
    a.udps[0].model = model;
    return kg_.service().ChoosePlan(q, a, a.udps[0]);
  };

  sparql::Query q;
  auto a = Analyze(std::string(kPrefixes) +
                       "SELECT ?v WHERE { ?p a dblp:Publication . ?p ?clf ?v . "
                       "?clf a kgnet:NodeClassifier . }",
                   &q);
  ASSERT_EQ(a.udps.size(), 1u);
  // 120 papers >> break-even: dictionary plan.
  EXPECT_EQ(choose(q, a),
            RewritePlan::kDictionary);

  // A single bound instance: per-instance plan. Constrain ?p to one title.
  auto single =
      Analyze(std::string(kPrefixes) +
                  "SELECT ?v WHERE { ?p dblp:title \"Paper 5\" . ?p ?clf ?v . "
                  "?clf a kgnet:NodeClassifier . }",
              &q);
  ASSERT_EQ(single.udps.size(), 1u);
  EXPECT_EQ(choose(q, single),
            RewritePlan::kPerInstance);
}

TEST_F(SparqlMlAnalysisTest, RewriteStripsMetaTriplesAndAddsUdf) {
  sparql::Query q;
  auto a = Analyze(std::string(kPrefixes) +
                       "SELECT ?title ?venue WHERE {\n"
                       " ?paper a dblp:Publication .\n"
                       " ?paper dblp:title ?title .\n"
                       " ?paper ?clf ?venue .\n"
                       " ?clf a kgnet:NodeClassifier .\n"
                       " ?clf kgnet:TargetNode dblp:Publication . }",
                   &q);
  ASSERT_EQ(a.udps.size(), 1u);
  ModelInfo& model = a.udps[0].model;
  model.uri = KgnetVocab::Name("model/test-1");
  model.task = gml::TaskType::kNodeClassification;

  a.udps[0].plan = RewritePlan::kPerInstance;
  auto per = kg_.service().Rewrite(q, a);
  ASSERT_TRUE(per.ok()) << per.status();
  // Only the two data triples survive.
  EXPECT_EQ(per->where.triples.size(), 2u);
  const std::string per_text = sparql::SerializeQuery(*per);
  EXPECT_NE(per_text.find("sql:UDFS.getNodeClass"), std::string::npos);
  EXPECT_NE(per_text.find(model.uri), std::string::npos);

  a.udps[0].plan = RewritePlan::kDictionary;
  auto dict = kg_.service().Rewrite(q, a);
  ASSERT_TRUE(dict.ok());
  EXPECT_EQ(dict->where.subselects.size(), 1u);
  const std::string dict_text = sparql::SerializeQuery(*dict);
  EXPECT_NE(dict_text.find("sql:UDFS.getNodeClassDict"), std::string::npos);
  EXPECT_NE(dict_text.find("sql:UDFS.getKeyValue"), std::string::npos);
}

TEST_F(SparqlMlAnalysisTest, ExplainReportsModelPlanAndRewrite) {
  // Train a tiny model first so SelectModel succeeds.
  TrainTaskSpec spec;
  spec.task = gml::TaskType::kNodeClassification;
  spec.target_type_iri = DblpSchema::Publication();
  spec.label_predicate_iri = DblpSchema::PublishedIn();
  spec.config.epochs = 2;
  spec.config.hidden_dim = 8;
  spec.config.embed_dim = 8;
  spec.model_name = "explain-test";
  ASSERT_TRUE(kg_.TrainTask(spec).ok());

  auto ex = kg_.service().Explain(std::string(kPrefixes) +
                                  "SELECT ?venue WHERE {\n"
                                  " ?paper a dblp:Publication .\n"
                                  " ?paper ?clf ?venue .\n"
                                  " ?clf a kgnet:NodeClassifier . }");
  ASSERT_TRUE(ex.ok()) << ex.status();
  EXPECT_TRUE(ex->is_sparql_ml);
  ASSERT_EQ(ex->model_uris.size(), 1u);
  EXPECT_NE(ex->model_uris[0].find("explain-test"), std::string::npos);
  EXPECT_EQ(ex->plan, RewritePlan::kDictionary);
  EXPECT_NE(ex->rewritten_sparql.find("sql:UDFS."), std::string::npos);
  // The rewritten text parses as plain SPARQL.
  EXPECT_TRUE(sparql::ParseQuery(ex->rewritten_sparql).ok());
}

TEST_F(SparqlMlAnalysisTest, ExplainOnPlainSparql) {
  auto ex = kg_.service().Explain(
      std::string(kPrefixes) + "SELECT ?t WHERE { ?p dblp:title ?t . }");
  ASSERT_TRUE(ex.ok());
  EXPECT_FALSE(ex->is_sparql_ml);
}

// TrainGML's numeric fields come from outside the process. Each is an
// integer in a stated range (LearningRate a number in (0, 10]); anything
// else is InvalidArgument naming the field and its range, before any
// training starts.
TEST_F(SparqlMlAnalysisTest, TrainSpecChecksItsNumericFields) {
  auto parse = [&](const std::string& fields) {
    return kg_.service().ParseTrainSpec(
        "{Name: 'x', GML-Task: {TaskType: kgnet:NodeClassifier, "
        "TargetNode: dblp:Publication, NodeLabel: dblp:publishedIn}, " +
            fields + "}",
        {});
  };
  struct Bad {
    const char* fields;
    const char* want;
  };
  const Bad bad_inputs[] = {
      {"Hyperparameters: {Epochs: -1}", "Epochs must be an integer in [1, 10000]"},
      {"Hyperparameters: {Epochs: 2.7}", "Epochs must be an integer"},
      {"Hyperparameters: {Epochs: 0}", "Epochs must be an integer"},
      {"Hyperparameters: {Epochs: '40'}", "Epochs must be an integer"},
      {"Hyperparameters: {HiddenDim: 1e12}", "HiddenDim must be an integer in [1, 1024]"},
      {"Hyperparameters: {EmbedDim: -8}", "EmbedDim must be an integer in [1, 1024]"},
      {"Hyperparameters: {Patience: 1e30}", "Patience must be an integer in [0, 10000]"},
      {"Hyperparameters: {LearningRate: 0}", "LearningRate must be a number in (0, 10]"},
      {"Hyperparameters: {LearningRate: -0.01}", "LearningRate must be a number"},
      {"Hyperparameters: {LearningRate: 1e300}", "LearningRate must be a number"},
      {"MetaSampling: {Hops: -1}", "Hops must be an integer in [1, 4]"},
      {"MetaSampling: {Hops: 4294967296}", "Hops must be an integer in [1, 4]"},
      {"MetaSampling: {Direction: 3}", "Direction must be an integer in [1, 2]"},
      {"MetaSampling: {Direction: 1.5}", "Direction must be an integer in [1, 2]"},
  };
  for (const Bad& bad : bad_inputs) {
    auto spec = parse(bad.fields);
    ASSERT_FALSE(spec.ok()) << bad.fields;
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument)
        << bad.fields;
    EXPECT_NE(spec.status().message().find(bad.want), std::string::npos)
        << bad.fields << ": " << spec.status();
  }

  // The shapes the benchmark and the examples send are accepted as given.
  auto spec = parse(
      "MetaSampling: {Direction: 2, Hops: 1}, Hyperparameters: {Epochs: 40, "
      "LearningRate: 0.05, HiddenDim: 16, EmbedDim: 16, Patience: 0}");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->config.epochs, 40u);
  EXPECT_EQ(spec->config.lr, 0.05f);
  EXPECT_EQ(spec->config.hidden_dim, 16u);
  EXPECT_EQ(spec->config.embed_dim, 16u);
  EXPECT_EQ(spec->config.patience, 0u);
  EXPECT_EQ(spec->hops, 1u);
  EXPECT_EQ(spec->direction, SampleDirection::kBidirectional);
  // Absent fields keep their defaults.
  spec = parse("Hyperparameters: {Epochs: 60, Patience: 25, HiddenDim: 16}");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->config.embed_dim, gml::TrainConfig().embed_dim);
  EXPECT_EQ(spec->hops, 1u);
  EXPECT_FALSE(spec->direction.has_value());
}

TEST_F(SparqlMlAnalysisTest, EntitySimilarityEndToEnd) {
  // Train an ES model through TrainGML and query it through SPARQL-ML.
  auto train = kg_.Execute(std::string(kPrefixes) +
                           "INSERT INTO <kgnet> { ?s ?p ?o } WHERE { "
                           "SELECT * FROM kgnet.TrainGML(\n"
                           "{Name: 'person-similarity',\n"
                           " GML-Task: {TaskType: kgnet:SimilarEntities,\n"
                           "  SourceNode: dblp:Person,\n"
                           "  DestinationNode: dblp:Affiliation,\n"
                           "  TaskPredicate: dblp:primaryAffiliation},\n"
                           " Hyperparameters: {Epochs: 8, EmbedDim: 8}})}");
  ASSERT_TRUE(train.ok()) << train.status();
  auto info = kg_.service().kgmeta().Get(train->rows[0][0].lexical);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->task, gml::TaskType::kEntitySimilarity);

  auto r = kg_.Execute(std::string(kPrefixes) +
                       "SELECT ?author ?similar WHERE {\n"
                       " ?author a dblp:Person .\n"
                       " ?author ?es ?similar .\n"
                       " ?es a kgnet:SimilarEntities .\n"
                       " ?es kgnet:TargetNode dblp:Person . } LIMIT 10");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->NumRows(), 10u);
  for (const auto& row : r->rows) {
    EXPECT_TRUE(row[1].is_iri());
    EXPECT_NE(row[0].lexical, row[1].lexical);  // self excluded
  }

  // A k past every row count is clamped, not cast out of range.
  auto far = kg_.Execute(
      std::string(kPrefixes) +
      "SELECT ?author sql:UDFS.getSimilarEntity(<" + info->uri +
      ">, ?author, 100000000000000000000000.0) AS ?s WHERE { "
      "?author a dblp:Person . } LIMIT 2");
  ASSERT_TRUE(far.ok()) << far.status();
  EXPECT_EQ(far->NumRows(), 2u);
}

TEST_F(SparqlMlAnalysisTest, TwoUdpsInOneQuery) {
  // Train both an NC and an LP model, then use two user-defined
  // predicates in a single query.
  TrainTaskSpec nc;
  nc.task = gml::TaskType::kNodeClassification;
  nc.target_type_iri = DblpSchema::Publication();
  nc.label_predicate_iri = DblpSchema::PublishedIn();
  nc.config.epochs = 2;
  nc.config.hidden_dim = 8;
  nc.config.embed_dim = 8;
  nc.model_name = "nc";
  ASSERT_TRUE(kg_.TrainTask(nc).ok());

  TrainTaskSpec lp;
  lp.task = gml::TaskType::kLinkPrediction;
  lp.target_type_iri = DblpSchema::Person();
  lp.destination_type_iri = DblpSchema::Affiliation();
  lp.task_predicate_iri = DblpSchema::PrimaryAffiliation();
  lp.config.epochs = 2;
  lp.config.embed_dim = 8;
  lp.model_name = "lp";
  ASSERT_TRUE(kg_.TrainTask(lp).ok());

  ExecutionStats stats;
  auto r = kg_.Execute(
      std::string(kPrefixes) +
          "SELECT ?paper ?venue ?author ?aff WHERE {\n"
          " ?paper a dblp:Publication .\n"
          " ?paper dblp:authoredBy ?author .\n"
          " ?paper ?clf ?venue .\n"
          " ?clf a kgnet:NodeClassifier .\n"
          " ?clf kgnet:TargetNode dblp:Publication .\n"
          " ?author ?lp ?aff .\n"
          " ?lp a kgnet:LinkPredictor .\n"
          " ?lp kgnet:SourceNode dblp:Person . } LIMIT 5",
      &stats);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->NumRows(), 5u);
  EXPECT_EQ(r->columns.size(), 4u);
  for (const auto& row : r->rows) {
    EXPECT_NE(row[1].lexical.find("venue"), std::string::npos);
    EXPECT_NE(row[3].lexical.find("affiliation"), std::string::npos);
  }
}

// Execute, Explain and ExecuteWithPlan reach one optimizer step: for the
// per-instance query, the dictionary query and the two-predicate query
// above, running the query, running Explain's rewritten text and running
// the query with Explain's plan forced give the same rows.
TEST_F(SparqlMlAnalysisTest, OneOptimizerPathBehindEveryEntryPoint) {
  TrainNodeClassifier("nc", DblpSchema::Publication(),
                      DblpSchema::PublishedIn());
  TrainTaskSpec lp;
  lp.task = gml::TaskType::kLinkPrediction;
  lp.target_type_iri = DblpSchema::Person();
  lp.destination_type_iri = DblpSchema::Affiliation();
  lp.task_predicate_iri = DblpSchema::PrimaryAffiliation();
  lp.config.epochs = 2;
  lp.config.embed_dim = 8;
  lp.model_name = "lp";
  ASSERT_TRUE(kg_.TrainTask(lp).ok());

  struct Case {
    std::string query;
    RewritePlan plan;
    size_t models;
    size_t rows;
  };
  const Case cases[] = {
      {"SELECT ?v WHERE { ?p dblp:title \"Paper 5\" . ?p ?clf ?v . "
       "?clf a kgnet:NodeClassifier . }",
       RewritePlan::kPerInstance, 1, 1},
      {"SELECT ?venue WHERE {\n"
       " ?paper a dblp:Publication .\n"
       " ?paper ?clf ?venue .\n"
       " ?clf a kgnet:NodeClassifier . }",
       RewritePlan::kDictionary, 1, 120},
      {"SELECT ?paper ?venue ?author ?aff WHERE {\n"
       " ?paper a dblp:Publication .\n"
       " ?paper dblp:authoredBy ?author .\n"
       " ?paper ?clf ?venue .\n"
       " ?clf a kgnet:NodeClassifier .\n"
       " ?clf kgnet:TargetNode dblp:Publication .\n"
       " ?author ?lp ?aff .\n"
       " ?lp a kgnet:LinkPredictor .\n"
       " ?lp kgnet:SourceNode dblp:Person . } LIMIT 5",
       RewritePlan::kDictionary, 2, 5},
  };
  for (const Case& c : cases) {
    const std::string q = std::string(kPrefixes) + c.query;
    ExecutionStats stats;
    auto direct = kg_.service().Execute(q, &stats);
    ASSERT_TRUE(direct.ok()) << direct.status() << "\n" << q;
    EXPECT_EQ(direct->NumRows(), c.rows) << q;
    EXPECT_EQ(stats.plan, c.plan) << q;

    auto ex = kg_.service().Explain(q);
    ASSERT_TRUE(ex.ok()) << ex.status();
    EXPECT_EQ(ex->plan, c.plan) << q;
    EXPECT_EQ(ex->model_uris.size(), c.models) << q;
    EXPECT_EQ(ex->model_uris.back(), stats.chosen_model_uri) << q;

    auto rewritten = kg_.service().Execute(ex->rewritten_sparql);
    ASSERT_TRUE(rewritten.ok()) << rewritten.status() << "\n"
                                << ex->rewritten_sparql;
    auto forced = kg_.service().ExecuteWithPlan(q, ex->plan, nullptr);
    ASSERT_TRUE(forced.ok()) << forced.status();
    for (const sparql::QueryResult* r : {&*rewritten, &*forced}) {
      EXPECT_EQ(r->columns, direct->columns) << q;
      EXPECT_EQ(r->rows, direct->rows) << q;
    }
  }
}

// ExecuteWithPlan routes a kgnet: model DELETE exactly as Execute does.
TEST_F(SparqlMlAnalysisTest, ExecuteWithPlanDeletesAModel) {
  const std::string uri = TrainNodeClassifier(
      "to-delete", DblpSchema::Publication(), DblpSchema::PublishedIn());
  ASSERT_EQ(kg_.service().kgmeta().NumModels(), 1u);
  auto del = kg_.service().ExecuteWithPlan(
      std::string(kPrefixes) +
          "DELETE {?m ?p ?o} WHERE { ?m a kgnet:NodeClassifier . "
          "?m kgnet:TargetNode dblp:Publication . }",
      RewritePlan::kDictionary, nullptr);
  ASSERT_TRUE(del.ok()) << del.status();
  EXPECT_EQ(del->num_deleted, 1u);
  EXPECT_EQ(kg_.service().kgmeta().NumModels(), 0u);
  EXPECT_FALSE(kg_.service().kgmeta().GetModel(uri).ok());
}

// A Figure 12 dictionary is dropped when the query that built it ends,
// on success and on error: its handle no longer resolves afterwards.
TEST_F(SparqlMlAnalysisTest, DictionaryLivesOnlyAsLongAsItsQuery) {
  const std::string uri = TrainNodeClassifier(
      "nc", DblpSchema::Publication(), DblpSchema::PublishedIn());
  auto lookup = [&](const std::string& handle) {
    return kg_.service().Execute(
        std::string(kPrefixes) + "SELECT ?p sql:UDFS.getKeyValue(<" + handle +
        ">, ?p) AS ?v WHERE { ?p dblp:title \"Paper 5\" . }");
  };
  auto built = kg_.service().ExecuteWithPlan(
      std::string(kPrefixes) +
          "SELECT ?paper ?venue WHERE { ?paper a dblp:Publication . "
          "?paper ?clf ?venue . ?clf a kgnet:NodeClassifier . }",
      RewritePlan::kDictionary, nullptr);
  ASSERT_TRUE(built.ok()) << built.status();
  ASSERT_EQ(built->NumRows(), 120u);
  auto after = lookup(KgnetVocab::Name("dict/1"));
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kNotFound) << after.status();

  // The second dictionary is built, then the query fails on a model that
  // does not exist.
  auto failed = kg_.service().Execute(
      std::string(kPrefixes) + "SELECT ?p sql:UDFS.getKeyValue(?d, ?p) AS ?v "
      "sql:UDFS.getNodeClass(<urn:no-model>, ?p) AS ?w WHERE { "
      "?p dblp:title \"Paper 5\" . { SELECT sql:UDFS.getNodeClassDict(<" +
          uri + ">) AS ?d WHERE { } } }");
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("urn:no-model"), std::string::npos)
      << failed.status();
  after = lookup(KgnetVocab::Name("dict/2"));
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kNotFound) << after.status();
}

// ExecutionStats::dictionary_entries counts the query's own dictionary,
// also once ten handles exist (dict/10 sorts before dict/9).
TEST_F(SparqlMlAnalysisTest, DictionaryEntriesAreThisQuerysOwn) {
  const std::string papers = TrainNodeClassifier(
      "papers", DblpSchema::Publication(), DblpSchema::PublishedIn());
  const std::string persons = TrainNodeClassifier(
      "persons", DblpSchema::Person(), DblpSchema::PrimaryAffiliation());
  auto run = [&](const std::string& target) {
    ExecutionStats stats;
    auto r = kg_.service().ExecuteWithPlan(
        std::string(kPrefixes) + "SELECT ?n ?c WHERE { ?n a " + target +
            " . ?n ?clf ?c . ?clf a kgnet:NodeClassifier . "
            "?clf kgnet:TargetNode " + target + " . }",
        RewritePlan::kDictionary, &stats);
    EXPECT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(stats.plan, RewritePlan::kDictionary);
    return stats;
  };
  for (int i = 0; i < 9; ++i) {
    const ExecutionStats stats = run("dblp:Publication");
    EXPECT_EQ(stats.chosen_model_uri, papers);
    EXPECT_EQ(stats.dictionary_entries, 120u);
  }
  const ExecutionStats stats = run("dblp:Person");
  EXPECT_EQ(stats.chosen_model_uri, persons);
  EXPECT_EQ(stats.dictionary_entries, 60u);
}

// A read never trains, even when its literal holds a valid TrainGML call.
TEST_F(SparqlMlAnalysisTest, AReadNeverTrains) {
  const std::string payload =
      "kgnet.TrainGML({Name: 'from-a-read', GML-Task: {TaskType: "
      "kgnet:NodeClassifier, TargetNode: dblp:Publication, NodeLabel: "
      "dblp:publishedIn}, Hyperparameters: {Epochs: 2}})";
  for (const std::string& q :
       {"SELECT ?p WHERE { ?p dblp:title \"" + payload + "\" . }",
        "ASK { ?p dblp:title \"" + payload + "\" . }"}) {
    auto r = kg_.service().Execute(std::string(kPrefixes) + q);
    ASSERT_TRUE(r.ok()) << r.status() << "\n" << q;
    EXPECT_EQ(r->NumRows(), 0u) << q;
  }
  EXPECT_EQ(kg_.service().kgmeta().NumModels(), 0u);
}

}  // namespace
}  // namespace kgnet::core
