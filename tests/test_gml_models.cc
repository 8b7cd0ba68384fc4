#include <gtest/gtest.h>

#include "common/cancel.h"
#include "common/thread_pool.h"
#include "core/model_io.h"
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
  // predictions() covers every node, each target with a class.
  const std::vector<int>& preds = (*model)->predictions();
  ASSERT_EQ(preds.size(), g.num_nodes);
  for (uint32_t v : g.target_nodes) {
    EXPECT_GE(preds[v], 0);
    EXPECT_LT(preds[v], static_cast<int>(g.num_classes));
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
    std::vector<std::pair<float, uint32_t>> scored;
    for (uint32_t t = 0; t < g.num_nodes; ++t)
      scored.emplace_back((*model)->Score(e.src, e.rel, t), t);
    std::vector<uint32_t> top = TopKByScore(std::move(scored), 5);
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


// -------------------------------------------------------- trainer pins --

// The exact output of every trainer on one small seeded graph: the bits of
// the report's scores and loss, the epoch count, and a digest of what the
// trained model serves (its serving bundle's class table or entity rows).
// How the trainers are driven — the epoch loop, the time budget,
// cancellation, early stopping — must not move a single bit of these.
// The graph sizes do not depend on the build type, so every build checks
// the same pins.

/// A small DBLP KG together with the store whose dictionary names its rows.
struct PinGraph {
  rdf::TripleStore store;
  GraphData graph;
};

std::unique_ptr<PinGraph> MakePinGraph(TaskType task) {
  auto out = std::make_unique<PinGraph>();
  workload::DblpOptions opts;
  opts.num_papers = 120;
  opts.num_authors = 60;
  opts.num_venues = 4;
  opts.num_affiliations = 6;
  opts.noise = 0.05;
  opts.include_periphery = false;
  opts.seed = 11;
  EXPECT_TRUE(workload::GenerateDblp(opts, &out->store).ok());
  TransformOptions t;
  if (task == TaskType::kNodeClassification) {
    t.target_type_iri = DblpSchema::Publication();
    t.label_predicate_iri = DblpSchema::PublishedIn();
  } else {
    t.target_type_iri = DblpSchema::Person();
    t.task_predicate_iri = DblpSchema::PrimaryAffiliation();
  }
  t.feature_dim = 8;
  t.seed = 11;
  auto g = BuildGraphData(out->store, t);
  EXPECT_TRUE(g.ok()) << g.status();
  out->graph = std::move(*g);
  return out;
}

/// Few epochs and a short patience, so early stopping fires for some
/// methods and not for others.
TrainConfig PinConfig() {
  TrainConfig c;
  c.epochs = 6;
  c.patience = 2;
  c.hidden_dim = 8;
  c.embed_dim = 8;
  c.saint_sample_nodes = 48;
  c.batch_size = 16;
  c.lr = 0.05f;
  return c;
}

bool IsNodeClassifier(GmlMethod m) { return MakeNodeClassifier(m).ok(); }

/// One training run's pinned outcome. The doubles are their bit patterns;
/// `secondary` is macro-F1 for a node classifier and MRR for a link
/// predictor.
struct TrainerPin {
  GmlMethod method;
  uint64_t metric, valid_metric, final_loss, secondary;
  size_t epochs_run;
  uint64_t served;
};

/// FNV-1a over raw bytes.
uint64_t Digest(const void* data, size_t bytes) {
  uint64_t h = 1469598103934665603ull;
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 1099511628211ull;
  return h;
}

/// Trains `method` on its family's pin graph and returns what it pins.
/// `status` receives Train's status; the pin is only filled when it is OK.
TrainerPin RunPinned(GmlMethod method, const TrainConfig& config,
                     Status* status, TrainReport* report) {
  using kgnet::testing::BitsOf;
  const bool nc = IsNodeClassifier(method);
  const auto pg = MakePinGraph(nc ? TaskType::kNodeClassification
                                  : TaskType::kLinkPrediction);
  TrainerPin pin{method, 0, 0, 0, 0, 0, 0};
  core::ServingBundle bundle;
  if (nc) {
    auto model = MakeNodeClassifier(method);
    *status = (*model)->Train(pg->graph, config, report);
    if (!status->ok()) return pin;
    auto b = core::BuildServingBundle(**model, pg->graph, pg->store.dict());
    EXPECT_TRUE(b.ok()) << b.status();
    bundle = std::move(*b);
    pin.secondary = BitsOf(report->macro_f1);
    pin.served = Digest(bundle.row_class.data(),
                        bundle.row_class.size() * sizeof(int32_t));
  } else {
    auto model = MakeLinkPredictor(method);
    *status = (*model)->Train(pg->graph, config, report);
    if (!status->ok()) return pin;
    auto b = core::BuildServingBundle(**model, pg->graph, pg->store.dict());
    EXPECT_TRUE(b.ok()) << b.status();
    bundle = std::move(*b);
    pin.secondary = BitsOf(report->mrr);
    pin.served = Digest(bundle.entity_rows.data(),
                        bundle.entity_rows.size() * sizeof(float));
  }
  pin.metric = BitsOf(report->metric);
  pin.valid_metric = BitsOf(report->valid_metric);
  pin.final_loss = BitsOf(report->final_loss);
  pin.epochs_run = report->epochs_run;
  return pin;
}

/// Checks `got` against `want` field by field; on a mismatch, prints the
/// whole row as it would be pinned.
void ExpectPinned(const TrainerPin& want, const TrainerPin& got) {
  const std::string name = GmlMethodName(want.method);
  EXPECT_EQ(want.metric, got.metric) << name << " metric";
  EXPECT_EQ(want.valid_metric, got.valid_metric) << name << " valid_metric";
  EXPECT_EQ(want.final_loss, got.final_loss) << name << " final_loss";
  EXPECT_EQ(want.secondary, got.secondary) << name << " macro_f1 / mrr";
  EXPECT_EQ(want.epochs_run, got.epochs_run) << name << " epochs_run";
  EXPECT_EQ(want.served, got.served) << name << " served digest";
  if (::testing::Test::HasFailure()) {
    ADD_FAILURE() << name << " got {" << std::hex << "0x"
                  << got.metric << ", 0x" << got.valid_metric << ", 0x"
                  << got.final_loss << ", 0x" << got.secondary << ", "
                  << std::dec << got.epochs_run << ", 0x" << std::hex
                  << got.served << "}";
  }
}

// clang-format off
const TrainerPin kTrainedPins[] = {
    {GmlMethod::kGcn, 0x3fcaaaaaaaaaaaab, 0x3fd5555555555555, 0x3ff6013300000000, 0x3fc4cccccccccccd, 5, 0x787b4638ecb5ff87},
    {GmlMethod::kRgcn, 0x3fe6aaaaaaaaaaab, 0x3fe8000000000000, 0x3fed11eb00000000, 0x3fe6403577b4928e, 6, 0xfeeb19da01895f47},
    {GmlMethod::kGraphSaint, 0x3fd0000000000000, 0x3fd0000000000000, 0x3ff1d90d80000000, 0x3fcb8c3e54975fb8, 5, 0xc2d2b2a1fe651145},
    {GmlMethod::kShadowSaint, 0x3fed555555555555, 0x3feeaaaaaaaaaaab, 0x3fc1baffe0000000, 0x3fece88e88e88e89, 6, 0x73cbb88f2e2255b6},
    {GmlMethod::kGraphSage, 0x3fe0000000000000, 0x3fd8000000000000, 0x3ff2d9b960000000, 0x3fdf117e194009bc, 3, 0x2ed97655c97c5cc5},
    {GmlMethod::kMorse, 0x3ff0000000000000, 0x3feb8e38e38e38e3, 0x40a4682d80000000, 0x3fec888888888888, 6, 0xaccb39d9fc302ad3},
    {GmlMethod::kTransE, 0x3ff0000000000000, 0x3febbbbbbbbbbbbb, 0x409df03f20000000, 0x3fe8888888888888, 6, 0x2b218a5bad0ab21f},
    {GmlMethod::kDistMult, 0x0, 0x3fa0286f660e04cb, 0x40b0188a20000000, 0x3f9486e2053c4f3a, 3, 0x448f72c18d73de81},
    {GmlMethod::kComplEx, 0x3fc5555555555555, 0x3fa0643b77729cae, 0x40b015f820000000, 0x3fa25919861b70ec, 4, 0xef53850757ecc24d},
    {GmlMethod::kRotatE, 0x3fc5555555555555, 0x3fbf336d2fc03230, 0x40a36f96e0000000, 0x3fbf3038afb0b207, 4, 0xe6d2ed4692bd6479},
};

// With a budget that is spent before the first epoch, every method keeps
// its initial parameters and is tested as initialized.
const TrainerPin kUntrainedPins[] = {
    {GmlMethod::kGcn, 0x3fc0000000000000, 0xbff0000000000000, 0x0, 0x3fbf49f49f49f4a0, 0, 0x3d433c60e66cf1b5},
    {GmlMethod::kRgcn, 0x3fd0000000000000, 0xbff0000000000000, 0x0, 0x3fb999999999999a, 0, 0xa7619eae96aa9f85},
    {GmlMethod::kGraphSaint, 0x3fd0000000000000, 0xbff0000000000000, 0x0, 0x3fb999999999999a, 0, 0xa7619eae96aa9f85},
    {GmlMethod::kShadowSaint, 0x3fd0000000000000, 0xbff0000000000000, 0x0, 0x3fb999999999999a, 0, 0xa7619eae96aa9f85},
    {GmlMethod::kGraphSage, 0x3fd5555555555555, 0xbff0000000000000, 0x0, 0x3fc7b425ed097b42, 0, 0x841a3ccfd8a180c7},
    {GmlMethod::kMorse, 0x0, 0xbff0000000000000, 0x0, 0x3f84c24eada35a39, 0, 0x78bf520e4ea3a69b},
    {GmlMethod::kTransE, 0x3fe0000000000000, 0xbff0000000000000, 0x0, 0x3fd41fc67937d9bb, 0, 0xfee1931d9741672a},
    {GmlMethod::kDistMult, 0x0, 0xbff0000000000000, 0x0, 0x3f942fcd2f763a90, 0, 0xfee1931d9741672a},
    {GmlMethod::kComplEx, 0x3fb5555555555555, 0xbff0000000000000, 0x0, 0x3fa0e216c4d8fe2c, 0, 0xfee1931d9741672a},
    {GmlMethod::kRotatE, 0x3fd5555555555555, 0xbff0000000000000, 0x0, 0x3fb57ed27a852ce5, 0, 0xfee1931d9741672a},
};
// clang-format on

TEST(TrainerPinTest, EveryMethodTrainsToItsPinnedBits) {
  for (const TrainerPin& want : kTrainedPins) {
    Status st;
    TrainReport report;
    const TrainerPin got = RunPinned(want.method, PinConfig(), &st, &report);
    ASSERT_TRUE(st.ok()) << st;
    EXPECT_EQ(report.method, GmlMethodName(want.method));
    ExpectPinned(want, got);
  }
}

TEST(TrainerPinTest, SpentTimeBudgetRunsNoEpoch) {
  for (const TrainerPin& want : kUntrainedPins) {
    TrainConfig c = PinConfig();
    c.max_seconds = 1e-9;
    Status st;
    TrainReport report;
    const TrainerPin got = RunPinned(want.method, c, &st, &report);
    ASSERT_TRUE(st.ok()) << st;
    EXPECT_EQ(report.epochs_run, 0u);
    EXPECT_EQ(report.final_loss, 0.0);
    EXPECT_EQ(report.valid_metric, -1.0);  // no epoch was validated
    ExpectPinned(want, got);
  }
}

TEST(TrainerPinTest, CancelledTokenFailsTheRunAndReportsNothing) {
  for (const TrainerPin& pin : kTrainedPins) {
    common::CancelSource source;
    source.Cancel();
    TrainConfig c = PinConfig();
    c.cancel = source.token();
    Status st;
    TrainReport report;
    RunPinned(pin.method, c, &st, &report);
    EXPECT_EQ(st.code(), StatusCode::kCancelled)
        << GmlMethodName(pin.method) << ": " << st;
    EXPECT_TRUE(report.method.empty()) << GmlMethodName(pin.method);
    EXPECT_EQ(report.epochs_run, 0u) << GmlMethodName(pin.method);
  }
}

}  // namespace
}  // namespace kgnet::gml
