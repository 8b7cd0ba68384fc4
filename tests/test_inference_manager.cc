#include "core/inference_manager.h"

#include <gtest/gtest.h>

#include "core/kgnet.h"
#include "workload/dblp_gen.h"

namespace kgnet::core {
namespace {

using workload::DblpSchema;

class InferenceManagerTest : public ::testing::Test {
 protected:
  InferenceManagerTest() {
    workload::DblpOptions opts;
    opts.num_papers = 80;
    opts.num_authors = 40;
    opts.num_venues = 4;
    opts.num_affiliations = 8;
    opts.include_periphery = false;
    EXPECT_TRUE(workload::GenerateDblp(opts, &kg_.store()).ok());

    TrainTaskSpec nc;
    nc.task = gml::TaskType::kNodeClassification;
    nc.target_type_iri = DblpSchema::Publication();
    nc.label_predicate_iri = DblpSchema::PublishedIn();
    nc.config.epochs = 3;
    nc.config.hidden_dim = 8;
    nc.config.embed_dim = 8;
    nc.model_name = "nc";
    auto nc_out = kg_.TrainTask(nc);
    EXPECT_TRUE(nc_out.ok()) << nc_out.status();
    nc_uri_ = nc_out->model_uri;

    TrainTaskSpec lp;
    lp.task = gml::TaskType::kLinkPrediction;
    lp.target_type_iri = DblpSchema::Person();
    lp.destination_type_iri = DblpSchema::Affiliation();
    lp.task_predicate_iri = DblpSchema::PrimaryAffiliation();
    lp.config.epochs = 3;
    lp.config.embed_dim = 8;
    lp.model_name = "lp";
    auto lp_out = kg_.TrainTask(lp);
    EXPECT_TRUE(lp_out.ok()) << lp_out.status();
    lp_uri_ = lp_out->model_uri;
  }

  InferenceManager& manager() { return kg_.service().inference_manager(); }

  KgNet kg_;
  std::string nc_uri_;
  std::string lp_uri_;
};

TEST_F(InferenceManagerTest, GetNodeClassReturnsVenueIri) {
  auto cls = manager().GetNodeClass(nc_uri_,
                                    "https://dblp.org/rdf/publication/0");
  ASSERT_TRUE(cls.ok()) << cls.status();
  EXPECT_NE(cls->find("venue"), std::string::npos);
}

TEST_F(InferenceManagerTest, GetNodeClassErrors) {
  EXPECT_EQ(manager()
                .GetNodeClass("https://nope/model", "https://nope/node")
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(manager()
                .GetNodeClass(nc_uri_, "https://nope/node")
                .status()
                .code(),
            StatusCode::kNotFound);
  // LP model asked for node classification.
  EXPECT_EQ(manager()
                .GetNodeClass(lp_uri_, "https://dblp.org/rdf/person/0")
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(InferenceManagerTest, DictionaryCoversAllTargets) {
  auto dict = manager().GetNodeClassDictionary(nc_uri_);
  ASSERT_TRUE(dict.ok()) << dict.status();
  EXPECT_EQ(dict->size(), 80u);
  for (const auto& [paper, venue] : *dict) {
    EXPECT_NE(paper.find("publication"), std::string::npos);
    EXPECT_NE(venue.find("venue"), std::string::npos);
  }
}

TEST_F(InferenceManagerTest, DictionaryAgreesWithPerInstance) {
  auto dict = manager().GetNodeClassDictionary(nc_uri_);
  ASSERT_TRUE(dict.ok());
  for (int i = 0; i < 5; ++i) {
    const std::string paper =
        "https://dblp.org/rdf/publication/" + std::to_string(i);
    auto single = manager().GetNodeClass(nc_uri_, paper);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(dict->at(paper), *single);
  }
}

TEST_F(InferenceManagerTest, TopKLinksReturnsAffiliations) {
  auto links =
      manager().GetTopKLinks(lp_uri_, "https://dblp.org/rdf/person/0", 3);
  ASSERT_TRUE(links.ok()) << links.status();
  EXPECT_EQ(links->size(), 3u);
  for (const auto& iri : *links)
    EXPECT_NE(iri.find("affiliation"), std::string::npos) << iri;
}

TEST_F(InferenceManagerTest, TopKLinksRejectsClassifier) {
  EXPECT_EQ(manager()
                .GetTopKLinks(nc_uri_,
                              "https://dblp.org/rdf/publication/0", 3)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(InferenceManagerTest, SimilarEntitiesExcludesSelf) {
  auto sims = manager().GetSimilarEntities(
      lp_uri_, "https://dblp.org/rdf/person/1", 4);
  ASSERT_TRUE(sims.ok()) << sims.status();
  EXPECT_EQ(sims->size(), 4u);
  for (const auto& iri : *sims)
    EXPECT_NE(iri, "https://dblp.org/rdf/person/1");
}

TEST_F(InferenceManagerTest, SimilarEntitiesRequiresEmbeddings) {
  EXPECT_EQ(manager()
                .GetSimilarEntities(nc_uri_,
                                    "https://dblp.org/rdf/publication/0", 3)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(InferenceManagerTest, CountsEveryApiCall) {
  manager().ResetCounters();
  EXPECT_EQ(manager().http_calls(), 0u);
  (void)manager().GetNodeClass(nc_uri_, "https://dblp.org/rdf/publication/0");
  (void)manager().GetNodeClassDictionary(nc_uri_);
  (void)manager().GetTopKLinks(lp_uri_, "https://dblp.org/rdf/person/0", 1);
  (void)manager().GetNodeClass("bogus", "bogus");  // failed calls count too
  EXPECT_EQ(manager().http_calls(), 4u);
}

TEST_F(InferenceManagerTest, SimulatedLatencyAccumulates) {
  manager().ResetCounters();
  manager().set_per_call_latency_us(250.0);
  const double before = manager().simulated_latency_us();
  (void)manager().GetNodeClass(nc_uri_, "https://dblp.org/rdf/publication/1");
  (void)manager().GetNodeClass(nc_uri_, "https://dblp.org/rdf/publication/2");
  EXPECT_DOUBLE_EQ(manager().simulated_latency_us() - before, 500.0);
  manager().set_per_call_latency_us(0.0);
}

// ---- similarity search over a hand-built bundle ----

/// A link-prediction model "urn:rows" whose bundle holds `rows`, row i
/// under the IRI "urn:n<i>".
std::shared_ptr<TrainedModel> RowsModel(
    const std::vector<std::vector<float>>& rows) {
  auto model = std::make_shared<TrainedModel>();
  model->info.uri = "urn:rows";
  model->info.task = gml::TaskType::kLinkPrediction;
  ServingBundle& b = model->bundle;
  b.embed_dim = rows.front().size();
  b.relation_row.assign(b.embed_dim, 0.0f);
  for (uint32_t i = 0; i < rows.size(); ++i) {
    b.node_iris.push_back("urn:n" + std::to_string(i));
    b.entity_rows.insert(b.entity_rows.end(), rows[i].begin(), rows[i].end());
    b.destination_rows.push_back(i);
  }
  b.IndexRows();
  return model;
}

TEST(ServingBundleSimilarityTest, FlatScanIsExactAndBreaksTiesByRow) {
  KgMeta meta;
  ASSERT_TRUE(meta.RegisterModel(RowsModel({{1, 0}, {0, 1}, {1, 0},
                                            {0.9f, 0.1f}, {1, 0}, {-1, 0}}))
                  .ok());
  InferenceManager im(&meta);
  auto sims = im.GetSimilarEntities("urn:rows", "urn:n2", 5);
  ASSERT_TRUE(sims.ok()) << sims.status();
  // n0 and n4 equal n2 (distance 0, ascending row), then n3, n1, n5.
  EXPECT_EQ(*sims, (std::vector<std::string>{"urn:n0", "urn:n4", "urn:n3",
                                             "urn:n1", "urn:n5"}));
}

TEST(ServingBundleSimilarityTest, CosineIgnoresMagnitude) {
  KgMeta meta;
  ASSERT_TRUE(
      meta.RegisterModel(RowsModel({{1, 0.01f}, {10, 0}, {0, 0.1f}})).ok());
  InferenceManager im(&meta);
  auto sims = im.GetSimilarEntities("urn:rows", "urn:n0", 1);
  ASSERT_TRUE(sims.ok()) << sims.status();
  EXPECT_EQ(*sims, std::vector<std::string>{"urn:n1"});
}

TEST(ServingBundleSimilarityTest, DimensionMismatchRejected) {
  KgMeta meta;
  ASSERT_TRUE(meta.RegisterModel(RowsModel({{1, 0, 0}, {0, 1, 0}})).ok());
  InferenceManager im(&meta);
  EXPECT_EQ(im.GetSimilarByRow("urn:rows", "urn:n0", {1, 2}, 1).status().code(),
            StatusCode::kInternal);
  auto row = im.GetEmbeddingRow("urn:rows", "urn:n0");
  ASSERT_TRUE(row.ok());
  EXPECT_TRUE(im.GetSimilarByRow("urn:rows", "urn:n0", *row, 1).ok());
}

}  // namespace
}  // namespace kgnet::core
