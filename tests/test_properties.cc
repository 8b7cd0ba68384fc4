// Cross-cutting property tests: scoring-function identities, term
// serialization edge cases, N-Triples fuzz round-trips and store
// cardinality invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "gml/kge.h"
#include "rdf/ntriples.h"
#include "tensor/rng.h"
#include "workload/dblp_gen.h"

namespace kgnet {
namespace {

// ------------------------------------------------ KGE score identities --

/// Trains a KGE model for a single epoch so its tables exist, then checks
/// algebraic identities of the scoring function on the live embeddings.
class KgeScorePropertyTest : public ::testing::Test {
 protected:
  gml::GraphData Graph() {
    rdf::TripleStore store;
    workload::DblpOptions opts;
    opts.num_papers = 60;
    opts.num_authors = 30;
    opts.num_venues = 3;
    opts.num_affiliations = 6;
    opts.include_periphery = false;
    EXPECT_TRUE(workload::GenerateDblp(opts, &store).ok());
    gml::TransformOptions t;
    t.target_type_iri = workload::DblpSchema::Person();
    t.task_predicate_iri = workload::DblpSchema::PrimaryAffiliation();
    t.feature_dim = 8;
    auto g = gml::BuildGraphData(store, t);
    EXPECT_TRUE(g.ok());
    return std::move(*g);
  }

  void TrainBriefly(gml::KgeModel* model, gml::GraphData* graph) {
    gml::TrainConfig c;
    c.epochs = 1;
    c.embed_dim = 8;
    c.patience = 0;
    gml::TrainReport r;
    ASSERT_TRUE(model->Train(*graph, c, &r).ok());
  }
};

TEST_F(KgeScorePropertyTest, DistMultIsSymmetricInHeadAndTail) {
  gml::GraphData g = Graph();
  gml::KgeModel model(gml::KgeScore::kDistMult);
  TrainBriefly(&model, &g);
  for (uint32_t h = 0; h < 6; ++h) {
    for (uint32_t t = 6; t < 12; ++t) {
      // Multiplication grouping differs, so allow float rounding.
      EXPECT_NEAR(model.Score(h, 0, t), model.Score(t, 0, h), 1e-5);
    }
  }
}

TEST_F(KgeScorePropertyTest, ComplExIsAsymmetric) {
  gml::GraphData g = Graph();
  gml::KgeModel model(gml::KgeScore::kComplEx);
  TrainBriefly(&model, &g);
  // At least one ordered pair must score differently in each direction —
  // ComplEx can model antisymmetric relations, DistMult cannot.
  bool found_asymmetry = false;
  for (uint32_t h = 0; h < 8 && !found_asymmetry; ++h)
    for (uint32_t t = 8; t < 16 && !found_asymmetry; ++t)
      if (std::fabs(model.Score(h, 0, t) - model.Score(t, 0, h)) > 1e-6)
        found_asymmetry = true;
  EXPECT_TRUE(found_asymmetry);
}

TEST_F(KgeScorePropertyTest, TransEAndRotatEScoresAreNonPositive) {
  gml::GraphData g = Graph();
  for (auto kind : {gml::KgeScore::kTransE, gml::KgeScore::kRotatE}) {
    gml::KgeModel model(kind);
    TrainBriefly(&model, &g);
    for (uint32_t h = 0; h < 10; ++h) {
      for (uint32_t t = 10; t < 20; ++t) {
        EXPECT_LE(model.Score(h, 0, t), 1e-6)
            << "distance-based scores are -||.||, always <= 0";
      }
    }
  }
}

TEST_F(KgeScorePropertyTest, TopKIsSortedByScore) {
  gml::GraphData g = Graph();
  gml::KgeModel model(gml::KgeScore::kTransE);
  TrainBriefly(&model, &g);
  const uint32_t rel = g.task_relation;
  std::vector<std::pair<float, uint32_t>> scored;
  for (uint32_t t = 0; t < g.num_nodes; ++t)
    scored.emplace_back(model.Score(0, rel, t), t);
  std::vector<uint32_t> top = gml::TopKByScore(std::move(scored), 10);
  ASSERT_EQ(top.size(), 10u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(model.Score(0, rel, top[i - 1]),
              model.Score(0, rel, top[i]));
  }
}

// ------------------------------------------------ Term edge cases --

TEST(TermPropertyTest, AsDoubleParsesOnlyCompleteNumbers) {
  double v;
  EXPECT_TRUE(rdf::Term::Literal("3.5").AsDouble(&v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(rdf::Term::Literal("-2").AsDouble(&v));
  EXPECT_FALSE(rdf::Term::Literal("3.5abc").AsDouble(&v));
  EXPECT_FALSE(rdf::Term::Literal("").AsDouble(&v));
  EXPECT_FALSE(rdf::Term::Iri("5").AsDouble(&v));  // not a literal
}

TEST(TermPropertyTest, EncodeKeyIsInjectiveOverKindAndMeta) {
  using rdf::Term;
  std::vector<Term> terms = {
      Term::Iri("x"),
      Term::Literal("x"),
      Term::Blank("x"),
      Term::TypedLiteral("x", "dt1"),
      Term::TypedLiteral("x", "dt2"),
  };
  Term lang = Term::Literal("x");
  lang.lang = "en";
  terms.push_back(lang);
  for (size_t i = 0; i < terms.size(); ++i)
    for (size_t j = i + 1; j < terms.size(); ++j)
      EXPECT_NE(terms[i].EncodeKey(), terms[j].EncodeKey())
          << i << " vs " << j;
}

// ------------------------------------------------ N-Triples fuzz --

class NtriplesFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NtriplesFuzzTest, RandomStoreSurvivesRoundTrip) {
  tensor::Rng rng(GetParam());
  rdf::TripleStore store;
  const std::string chars =
      "abcXYZ019 _-\\\"\n\t.<>#@^|{}";
  auto random_string = [&](size_t max_len) {
    std::string s;
    const size_t len = 1 + rng.NextUint(max_len);
    for (size_t i = 0; i < len; ++i)
      s += chars[rng.NextUint(chars.size())];
    return s;
  };
  for (int i = 0; i < 60; ++i) {
    rdf::Term s = rdf::Term::Iri("http://n/" + std::to_string(rng.NextUint(20)));
    rdf::Term p = rdf::Term::Iri("http://p/" + std::to_string(rng.NextUint(5)));
    rdf::Term o;
    switch (rng.NextUint(4)) {
      case 0:
        o = rdf::Term::Iri("http://n/" + std::to_string(rng.NextUint(20)));
        break;
      case 1:
        o = rdf::Term::Literal(random_string(12));
        break;
      case 2:
        o = rdf::Term::IntLiteral(static_cast<int64_t>(rng.NextUint(1000)));
        break;
      default:
        o = rdf::Term::Blank("b" + std::to_string(rng.NextUint(9)));
    }
    store.Insert(s, p, o);
  }

  std::ostringstream os;
  ASSERT_TRUE(rdf::WriteNTriples(store, os).ok());
  rdf::TripleStore reloaded;
  auto n = rdf::LoadNTriples(os.str(), &reloaded);
  ASSERT_TRUE(n.ok()) << n.status() << "\ndocument:\n" << os.str();
  EXPECT_EQ(*n, store.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, NtriplesFuzzTest,
                         ::testing::Values(101, 202, 303, 404));

// ------------------------------------------------ store invariants --

TEST(StoreInvariantTest, CountNeverExceedsEstimate) {
  tensor::Rng rng(7);
  rdf::TripleStore store;
  for (int i = 0; i < 400; ++i)
    store.InsertIris("s" + std::to_string(rng.NextUint(30)),
                     "p" + std::to_string(rng.NextUint(6)),
                     "o" + std::to_string(rng.NextUint(40)));
  // For any pattern, the estimate is an upper bound on the exact count and
  // exact for index-prefix shapes.
  std::vector<rdf::Triple> all = store.Match(rdf::TriplePattern());
  for (int trial = 0; trial < 60; ++trial) {
    const rdf::Triple& probe = all[rng.NextUint(all.size())];
    rdf::TriplePattern pat;
    if (rng.NextFloat() < 0.5f) pat.s = probe.s;
    if (rng.NextFloat() < 0.5f) pat.p = probe.p;
    if (rng.NextFloat() < 0.5f) pat.o = probe.o;
    EXPECT_GE(store.EstimateCardinality(pat), store.Count(pat));
  }
}

}  // namespace
}  // namespace kgnet
