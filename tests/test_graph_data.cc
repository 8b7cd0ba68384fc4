#include "gml/graph_data.h"

#include <gtest/gtest.h>

#include <set>

#include "gml/metrics.h"
#include "rdf/term.h"
#include "workload/dblp_gen.h"

namespace kgnet::gml {
namespace {

using rdf::Term;
using workload::DblpSchema;

rdf::TripleStore SmallDblp() {
  rdf::TripleStore store;
  workload::DblpOptions opts;
  opts.num_papers = 100;
  opts.num_authors = 60;
  opts.num_venues = 4;
  opts.num_affiliations = 8;
  opts.include_periphery = true;
  opts.periphery_scale = 0.5;
  EXPECT_TRUE(workload::GenerateDblp(opts, &store).ok());
  return store;
}

TransformOptions NcOptions() {
  TransformOptions t;
  t.target_type_iri = DblpSchema::Publication();
  t.label_predicate_iri = DblpSchema::PublishedIn();
  t.feature_dim = 8;
  return t;
}

TEST(GraphDataTest, NcTransformBasics) {
  rdf::TripleStore store = SmallDblp();
  auto g = BuildGraphData(store, NcOptions());
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->num_classes, 4u);
  EXPECT_EQ(g->target_nodes.size(), 100u);
  EXPECT_GT(g->num_nodes, 100u);
  EXPECT_GT(g->num_relations, 3u);
  EXPECT_EQ(g->features.rows(), g->num_nodes);
  EXPECT_EQ(g->features.cols(), 8u);
}

TEST(GraphDataTest, LabelEdgesExcludedFromMessagePassing) {
  rdf::TripleStore store = SmallDblp();
  auto g = BuildGraphData(store, NcOptions());
  ASSERT_TRUE(g.ok());
  // The label predicate must not appear among graph relations.
  rdf::TermId label = store.dict().FindIri(DblpSchema::PublishedIn());
  for (rdf::TermId rel : g->relation_terms) EXPECT_NE(rel, label);
}

TEST(GraphDataTest, LiteralsDropped) {
  rdf::TripleStore store = SmallDblp();
  auto g = BuildGraphData(store, NcOptions());
  ASSERT_TRUE(g.ok());
  for (rdf::TermId t : g->node_terms)
    EXPECT_FALSE(store.dict().Lookup(t).is_literal());
}

TEST(GraphDataTest, SplitsPartitionTargets) {
  rdf::TripleStore store = SmallDblp();
  auto g = BuildGraphData(store, NcOptions());
  ASSERT_TRUE(g.ok());
  std::set<uint32_t> seen;
  for (uint32_t i : g->train_idx) seen.insert(i);
  for (uint32_t i : g->valid_idx) EXPECT_TRUE(seen.insert(i).second);
  for (uint32_t i : g->test_idx) EXPECT_TRUE(seen.insert(i).second);
  EXPECT_EQ(seen.size(), g->target_nodes.size());
  // Roughly 60/20/20.
  EXPECT_NEAR(g->train_idx.size(), 60, 3);
  EXPECT_NEAR(g->valid_idx.size(), 20, 3);
}

TEST(GraphDataTest, DeterministicForSeed) {
  rdf::TripleStore store = SmallDblp();
  TransformOptions t = NcOptions();
  t.seed = 555;
  auto a = BuildGraphData(store, t);
  auto b = BuildGraphData(store, t);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->train_idx, b->train_idx);
  EXPECT_EQ(a->features.At(0, 0), b->features.At(0, 0));
}

TEST(GraphDataTest, LpTransformSplitsTaskEdges) {
  rdf::TripleStore store = SmallDblp();
  TransformOptions t;
  t.target_type_iri = DblpSchema::Person();
  t.task_predicate_iri = DblpSchema::PrimaryAffiliation();
  t.feature_dim = 8;
  auto g = BuildGraphData(store, t);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_NE(g->task_relation, UINT32_MAX);
  const size_t total = g->train_edges.size() + g->valid_edges.size() +
                       g->test_edges.size();
  EXPECT_EQ(total, 60u);  // one affiliation edge per author
  EXPECT_GT(g->train_edges.size(), g->test_edges.size());
  // Valid/test edges must NOT be in the message-passing edge list.
  std::set<std::tuple<uint32_t, uint32_t, uint32_t>> mp;
  for (const Edge& e : g->edges) mp.insert({e.src, e.rel, e.dst});
  for (const Edge& e : g->valid_edges)
    EXPECT_EQ(mp.count({e.src, e.rel, e.dst}), 0u);
  for (const Edge& e : g->test_edges)
    EXPECT_EQ(mp.count({e.src, e.rel, e.dst}), 0u);
  // Training edges ARE in it.
  for (const Edge& e : g->train_edges)
    EXPECT_EQ(mp.count({e.src, e.rel, e.dst}), 1u);
}

TEST(GraphDataTest, GcnAdjacencyRowsNormalized) {
  rdf::TripleStore store = SmallDblp();
  auto g = BuildGraphData(store, NcOptions());
  ASSERT_TRUE(g.ok());
  tensor::CsrMatrix adj = g->BuildGcnAdjacency();
  EXPECT_EQ(adj.rows(), g->num_nodes);
  // Symmetric normalization bounds every entry by 1.
  for (float v : adj.values()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f + 1e-5f);
  }
}

TEST(GraphDataTest, RelationalAdjacenciesCoverAllEdges) {
  rdf::TripleStore store = SmallDblp();
  auto g = BuildGraphData(store, NcOptions());
  ASSERT_TRUE(g.ok());
  auto adj = g->BuildRelationalAdjacencies();
  ASSERT_EQ(adj.size(), g->num_relations * 2);
  size_t fwd_nnz = 0;
  for (size_t r = 0; r < g->num_relations; ++r) fwd_nnz += adj[r].nnz();
  // Forward nnz == number of distinct (dst, src) pairs per relation;
  // duplicates collapse, so <= edges but > 0.
  EXPECT_GT(fwd_nnz, 0u);
  EXPECT_LE(fwd_nnz, g->edges.size());
}

TEST(GraphDataTest, ErrorsOnMissingIris) {
  rdf::TripleStore store = SmallDblp();
  TransformOptions t = NcOptions();
  t.target_type_iri = "http://nonexistent";
  EXPECT_FALSE(BuildGraphData(store, t).ok());
  t = NcOptions();
  t.label_predicate_iri = "http://nonexistent";
  EXPECT_FALSE(BuildGraphData(store, t).ok());
}

TEST(MetricsTest, AccuracyIgnoresUnlabeled) {
  EXPECT_DOUBLE_EQ(Accuracy({1, 2, 3}, {1, -1, 0}), 0.5);
  EXPECT_DOUBLE_EQ(Accuracy({}, {}), 0.0);
}

TEST(MetricsTest, MacroF1PerfectAndWorst) {
  EXPECT_DOUBLE_EQ(MacroF1({0, 1, 2}, {0, 1, 2}, 3), 1.0);
  EXPECT_DOUBLE_EQ(MacroF1({1, 2, 0}, {0, 1, 2}, 3), 0.0);
}

TEST(MetricsTest, MrrAndHits) {
  std::vector<size_t> ranks = {1, 2, 10, 100};
  EXPECT_NEAR(MeanReciprocalRank(ranks), (1.0 + 0.5 + 0.1 + 0.01) / 4, 1e-9);
  EXPECT_DOUBLE_EQ(HitsAtK(ranks, 10), 0.75);
  EXPECT_DOUBLE_EQ(HitsAtK(ranks, 1), 0.25);
}

}  // namespace
}  // namespace kgnet::gml
