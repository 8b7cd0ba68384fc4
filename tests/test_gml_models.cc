#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "gml/gcn.h"
#include "tests/parallel_test_util.h"
#include "gml/rgcn.h"
#include "gml/kge.h"
#include "gml/metrics.h"
#include "gml/model.h"
#include "gml/morse.h"
#include "gml/rgcn_net.h"
#include "gml/sampler.h"
#include "workload/dblp_gen.h"

namespace kgnet::gml {
namespace {

using workload::DblpSchema;

// Debug (-O0) builds trim graph sizes, epochs and the accuracy bars so
// this slow-labeled suite stays under ~3 s in a developer loop; optimized
// builds (NDEBUG, e.g. the default RelWithDebInfo tier-1 run) keep the
// paper-faithful assertions. (ROADMAP open item "test_gml_models cost".)
#ifdef NDEBUG
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

/// Full-strength accuracy bars apply only to optimized builds; Debug
/// keeps a weaker better-than-chance check.
double MinMetric(double release_bar, double debug_bar) {
  return kOptimizedBuild ? release_bar : debug_bar;
}

/// Small DBLP KG with a strong planted venue/community signal.
GraphData NcGraph(uint64_t seed = 7) {
  rdf::TripleStore store;
  workload::DblpOptions opts;
  opts.num_papers = kOptimizedBuild ? 240 : 100;
  opts.num_authors = kOptimizedBuild ? 120 : 60;
  opts.num_venues = 4;
  opts.num_affiliations = 8;
  opts.noise = 0.05;
  opts.include_periphery = false;
  opts.seed = seed;
  EXPECT_TRUE(workload::GenerateDblp(opts, &store).ok());
  TransformOptions t;
  t.target_type_iri = DblpSchema::Publication();
  t.label_predicate_iri = DblpSchema::PublishedIn();
  t.feature_dim = 16;
  t.seed = seed;
  auto g = BuildGraphData(store, t);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(*g);
}

GraphData LpGraph(uint64_t seed = 7) {
  rdf::TripleStore store;
  workload::DblpOptions opts;
  opts.num_papers = kOptimizedBuild ? 200 : 100;
  opts.num_authors = kOptimizedBuild ? 120 : 60;
  opts.num_venues = 4;
  opts.num_affiliations = 8;
  opts.noise = 0.05;
  opts.include_periphery = false;
  opts.seed = seed;
  EXPECT_TRUE(workload::GenerateDblp(opts, &store).ok());
  TransformOptions t;
  t.target_type_iri = DblpSchema::Person();
  t.task_predicate_iri = DblpSchema::PrimaryAffiliation();
  t.feature_dim = 16;
  t.seed = seed;
  auto g = BuildGraphData(store, t);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(*g);
}

TrainConfig FastConfig() {
  TrainConfig c;
  c.epochs = kOptimizedBuild ? 30 : 15;
  c.hidden_dim = 16;
  c.embed_dim = 16;
  c.patience = 30;
  c.saint_sample_nodes = 256;
  c.batch_size = 64;
  return c;
}

// ------------------------------------------------------------- RgcnNet --

TEST(RgcnNetTest, TrainStepReducesLossOnToyGraph) {
  tensor::Rng rng(3);
  // 8 nodes, 1 relation, labels = two cliques.
  GraphData g;
  g.num_nodes = 8;
  g.num_relations = 1;
  for (uint32_t i = 0; i < 4; ++i)
    for (uint32_t j = 0; j < 4; ++j)
      if (i != j) {
        g.edges.push_back({i, 0, j});
        g.edges.push_back({i + 4, 0, j + 4});
      }
  g.feature_dim = 4;
  g.features = tensor::Matrix(8, 4);
  g.features.XavierInit(&rng);
  std::vector<int> labels = {0, 0, 0, 0, 1, 1, 1, 1};

  auto adj = g.BuildRelationalAdjacencies();
  RgcnNet net(4, 8, 2, adj.size(), &rng);
  tensor::AdamOptimizer::Options opts;
  opts.lr = 0.05f;
  tensor::AdamOptimizer opt(opts);
  net.RegisterParams(&opt);

  float first = 0, last = 0;
  for (int e = 0; e < 60; ++e) {
    const float loss = net.TrainStep(adj, g.features, labels, &opt);
    if (e == 0) first = loss;
    last = loss;
  }
  EXPECT_LT(last, first * 0.5f);
  // Perfect separation expected on this toy graph.
  tensor::Matrix logits = net.Forward(adj, g.features);
  for (uint32_t v = 0; v < 8; ++v) {
    const int pred = logits.At(v, 0) > logits.At(v, 1) ? 0 : 1;
    EXPECT_EQ(pred, labels[v]) << "node " << v;
  }
}

// ------------------------------------------------------------ samplers --

TEST(SamplerTest, SaintSubgraphIsInduced) {
  GraphData g = NcGraph();
  AdjacencyList adj(g);
  tensor::Rng rng(5);
  Subgraph sub = SampleSaintSubgraph(g, adj, 80, &rng);
  EXPECT_GT(sub.nodes.size(), 10u);
  EXPECT_LE(sub.nodes.size(), 80u);
  // Every edge endpoint is a sampled node with a consistent local id.
  for (const Edge& e : sub.edges) {
    ASSERT_LT(e.src, sub.nodes.size());
    ASSERT_LT(e.dst, sub.nodes.size());
  }
  // Every full-graph edge among sampled nodes is present.
  size_t expected = 0;
  for (const Edge& e : g.edges)
    if (sub.Contains(e.src) && sub.Contains(e.dst)) ++expected;
  EXPECT_EQ(sub.edges.size(), expected);
}

TEST(SamplerTest, ShadowSubgraphContainsSeeds) {
  GraphData g = NcGraph();
  AdjacencyList adj(g);
  tensor::Rng rng(5);
  std::vector<uint32_t> seeds = {g.target_nodes[0], g.target_nodes[1],
                                 g.target_nodes[2]};
  Subgraph sub = SampleShadowSubgraph(g, adj, seeds, 2, 5, &rng);
  for (uint32_t s : seeds) EXPECT_TRUE(sub.Contains(s));
  // Bounded expansion: |sub| <= seeds * (1 + b + b^2) roughly.
  EXPECT_LE(sub.nodes.size(), 3u * (1 + 5 + 25) + 1);
}

TEST(SamplerTest, SubgraphAdjacencySizesMatch) {
  GraphData g = NcGraph();
  AdjacencyList adj(g);
  tensor::Rng rng(5);
  Subgraph sub = SampleSaintSubgraph(g, adj, 60, &rng);
  auto mats = BuildSubgraphAdjacencies(sub, g.num_relations);
  ASSERT_EQ(mats.size(), g.num_relations * 2);
  for (const auto& m : mats) {
    EXPECT_EQ(m.rows(), sub.nodes.size());
    EXPECT_EQ(m.cols(), sub.nodes.size());
  }
}

// -------------------------------------------------- node classification --

// gtest prints a parameter without a PrintTo() as its raw bytes, and ctest
// names each case after that text. The explicit zero field fills what would
// otherwise be padding, so the bytes (and the ctest names) stay identical from
// run to run instead of echoing stale stack contents.
struct NcCase {
  NcCase(GmlMethod m, double acc) : method(m), min_accuracy(acc) {}
  GmlMethod method;
  int32_t zero = 0;
  double min_accuracy;
};
static_assert(sizeof(NcCase) == 16, "NcCase must have no padding");

class NodeClassifierTest : public ::testing::TestWithParam<NcCase> {};

TEST_P(NodeClassifierTest, LearnsPlantedVenueSignal) {
  GraphData g = NcGraph();
  auto model = MakeNodeClassifier(GetParam().method);
  ASSERT_TRUE(model.ok()) << model.status();
  TrainReport report;
  Status st = (*model)->Train(g, FastConfig(), &report);
  ASSERT_TRUE(st.ok()) << st;
  // Debug bar: strictly above the 4-class chance level (~0.25).
  EXPECT_GT(report.metric, MinMetric(GetParam().min_accuracy, 0.27))
      << GmlMethodName(GetParam().method) << " test accuracy too low";
  EXPECT_GT(report.epochs_run, 0u);
  EXPECT_GT(report.train_seconds, 0.0);
  EXPECT_GT(report.peak_memory_bytes, 0u);
  // Predict() covers all target nodes.
  std::vector<int> preds = (*model)->Predict(g, g.target_nodes);
  ASSERT_EQ(preds.size(), g.target_nodes.size());
  for (int p : preds) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, static_cast<int>(g.num_classes));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Methods, NodeClassifierTest,
    ::testing::Values(NcCase{GmlMethod::kGcn, 0.30},
                      NcCase{GmlMethod::kGraphSage, 0.35},
                      NcCase{GmlMethod::kRgcn, 0.45},
                      NcCase{GmlMethod::kGraphSaint, 0.45},
                      NcCase{GmlMethod::kShadowSaint, 0.45}),
    [](const ::testing::TestParamInfo<NcCase>& info) {
      std::string name = GmlMethodName(info.param.method);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

TEST(NodeClassifierTest, TimeBudgetCutsTrainingShort) {
  GraphData g = NcGraph();
  TrainConfig c = FastConfig();
  c.epochs = 1000;
  c.patience = 0;
  c.max_seconds = 0.05;  // far less than 1000 epochs need
  RgcnClassifier model;
  TrainReport report;
  ASSERT_TRUE(model.Train(g, c, &report).ok());
  EXPECT_LT(report.epochs_run, 1000u);
}

// The parallel kernels promise bitwise-identical results for any thread
// count; a whole training run is the end-to-end check (losses feed
// through Adam, ReLU masks and early stopping, so a single diverging bit
// anywhere would surface here).
TEST(NodeClassifierTest, GcnTrainingBitwiseIdenticalAcrossThreadCounts) {
  kgnet::testing::ThreadCountGuard thread_guard;
  GraphData g = NcGraph();
  TrainConfig c = FastConfig();
  c.epochs = 5;
  c.patience = 0;
  c.max_seconds = 0.0;  // no wall-clock dependence

  auto run = [&](int threads) {
    common::ThreadPool::SetNumThreads(threads);
    GcnClassifier model;
    TrainReport report;
    EXPECT_TRUE(model.Train(g, c, &report).ok());
    return report;
  };
  const TrainReport want = run(1);
  for (int threads : {2, 4}) {
    const TrainReport got = run(threads);
    EXPECT_EQ(kgnet::testing::BitsOf(want.final_loss),
              kgnet::testing::BitsOf(got.final_loss))
        << threads << " threads";
    EXPECT_EQ(want.metric, got.metric) << threads << " threads";
    EXPECT_EQ(want.valid_metric, got.valid_metric) << threads << " threads";
    EXPECT_EQ(want.macro_f1, got.macro_f1) << threads << " threads";
    EXPECT_EQ(want.epochs_run, got.epochs_run) << threads << " threads";
  }
}

TEST(NodeClassifierTest, FactoryRejectsLinkMethods) {
  EXPECT_FALSE(MakeNodeClassifier(GmlMethod::kTransE).ok());
  EXPECT_FALSE(MakeLinkPredictor(GmlMethod::kGcn).ok());
}

TEST(NodeClassifierTest, TrainFailsWithoutLabels) {
  GraphData g = LpGraph();  // LP graph has no class labels
  RgcnClassifier model;
  TrainReport report;
  EXPECT_FALSE(model.Train(g, FastConfig(), &report).ok());
}

// ------------------------------------------------------ link prediction --

// See NcCase for why the padding is an explicit zero field.
struct LpCase {
  LpCase(GmlMethod m, double hits) : method(m), min_hits10(hits) {}
  GmlMethod method;
  int32_t zero = 0;
  double min_hits10;
};
static_assert(sizeof(LpCase) == 16, "LpCase must have no padding");

class LinkPredictorTest : public ::testing::TestWithParam<LpCase> {};

TEST_P(LinkPredictorTest, BeatsRandomRanking) {
  GraphData g = LpGraph();
  auto model = MakeLinkPredictor(GetParam().method);
  ASSERT_TRUE(model.ok()) << model.status();
  TrainConfig c = FastConfig();
  c.epochs = kOptimizedBuild ? 25 : 10;
  c.lr = 0.05f;
  TrainReport report;
  Status st = (*model)->Train(g, c, &report);
  ASSERT_TRUE(st.ok()) << st;
  // Random ranking against 100 candidates gives Hits@10 ~= 0.10.
  EXPECT_GT(report.metric, MinMetric(GetParam().min_hits10, 0.12))
      << GmlMethodName(GetParam().method) << " Hits@10 too low";
  EXPECT_GT(report.mrr, 0.0);
  // Scores are finite and usable for ranking.
  if (!g.test_edges.empty()) {
    const Edge& e = g.test_edges.front();
    const float s = (*model)->Score(e.src, e.rel, e.dst);
    EXPECT_TRUE(std::isfinite(s));
    std::vector<uint32_t> top = (*model)->TopKTails(e.src, e.rel, 5);
    EXPECT_EQ(top.size(), 5u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Methods, LinkPredictorTest,
    ::testing::Values(LpCase{GmlMethod::kTransE, 0.25},
                      LpCase{GmlMethod::kDistMult, 0.25},
                      LpCase{GmlMethod::kComplEx, 0.25},
                      LpCase{GmlMethod::kRotatE, 0.25},
                      LpCase{GmlMethod::kMorse, 0.25}),
    [](const ::testing::TestParamInfo<LpCase>& info) {
      return GmlMethodName(info.param.method);
    });

TEST(LinkPredictorTest, EntityEmbeddingsHaveStableDimension) {
  GraphData g = LpGraph();
  KgeModel model(KgeScore::kComplEx);
  TrainConfig c = FastConfig();
  c.epochs = 2;
  c.embed_dim = 15;  // odd: complex models round up
  TrainReport report;
  ASSERT_TRUE(model.Train(g, c, &report).ok());
  std::vector<float> e0 = model.EntityEmbedding(0);
  std::vector<float> e1 = model.EntityEmbedding(1);
  EXPECT_EQ(e0.size(), 16u);
  EXPECT_EQ(e0.size(), e1.size());
}

TEST(LinkPredictorTest, MorseIsInductiveAcrossEntities) {
  // Entities with identical relation signatures and anchor bucket get the
  // same derived embedding; at minimum embeddings must be finite.
  GraphData g = LpGraph();
  MorseModel model;
  TrainConfig c = FastConfig();
  c.epochs = 3;
  TrainReport report;
  ASSERT_TRUE(model.Train(g, c, &report).ok());
  for (uint32_t v = 0; v < std::min<size_t>(g.num_nodes, 20); ++v) {
    for (float x : model.EntityEmbedding(v)) {
      EXPECT_TRUE(std::isfinite(x));
      EXPECT_LE(std::fabs(x), 1.0f + 1e-5f);  // tanh-bounded
    }
  }
}

TEST(LinkPredictorTest, RanksImproveWithTraining) {
  GraphData g = LpGraph();
  TrainConfig c = FastConfig();
  TrainReport untrained, trained;
  {
    KgeModel model(KgeScore::kTransE);
    TrainConfig c0 = c;
    c0.epochs = 1;
    ASSERT_TRUE(model.Train(g, c0, &untrained).ok());
  }
  {
    KgeModel model(KgeScore::kTransE);
    TrainConfig c1 = c;
    c1.epochs = kOptimizedBuild ? 30 : 12;
    c1.lr = 0.05f;
    ASSERT_TRUE(model.Train(g, c1, &trained).ok());
  }
  EXPECT_GE(trained.metric, untrained.metric);
}

}  // namespace
}  // namespace kgnet::gml
