#include "core/meta_sampler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "workload/dblp_gen.h"

namespace kgnet::core {
namespace {

using workload::DblpSchema;

/// Hand-built KG:
///   t1 a T ; t1 -> m1 -> far1 (2 hops out)
///   in1 -> t1 (incoming)
///   t1 label L1 (supervision)
///   island (unreachable)
class MetaSamplerTest : public ::testing::Test {
 protected:
  MetaSamplerTest() {
    const std::string type = std::string(rdf::kRdfType);
    store_.InsertIris("t1", type, "T");
    store_.InsertIris("t2", type, "T");
    store_.InsertIris("t1", "out", "m1");
    store_.InsertIris("m1", "out", "far1");
    store_.InsertIris("far1", "out", "far2");
    store_.InsertIris("in1", "in", "t1");
    store_.InsertIris("before_in1", "in", "in1");
    store_.InsertIris("t1", "label", "L1");
    store_.InsertIris("t2", "label", "L2");
    store_.InsertIris("island", "out", "island2");
    store_.InsertIris("m1", type, "M");
  }

  MetaSampleSpec Spec(SampleDirection d, uint32_t h) {
    MetaSampleSpec s;
    s.target_type_iri = "T";
    s.supervision_predicate_iris = {"label"};
    s.direction = d;
    s.hops = h;
    return s;
  }

  bool Has(const rdf::TripleStore& kg, const std::string& s,
           const std::string& p, const std::string& o) {
    rdf::TermId si = kg.dict().FindIri(s), pi = kg.dict().FindIri(p),
                oi = kg.dict().FindIri(o);
    if (si == rdf::kNullTermId || pi == rdf::kNullTermId ||
        oi == rdf::kNullTermId)
      return false;
    return kg.Contains(rdf::Triple(si, pi, oi));
  }

  rdf::TripleStore store_;
};

TEST_F(MetaSamplerTest, D1H1KeepsOutgoingOneHop) {
  MetaSampler sampler(&store_);
  MetaSampleStats stats;
  auto kg = sampler.Extract(Spec(SampleDirection::kOutgoing, 1), &stats);
  ASSERT_TRUE(kg.ok()) << kg.status();
  EXPECT_TRUE(Has(**kg, "t1", "out", "m1"));
  EXPECT_FALSE(Has(**kg, "m1", "out", "far1"));   // 2 hops out
  EXPECT_FALSE(Has(**kg, "in1", "in", "t1"));     // incoming
  EXPECT_FALSE(Has(**kg, "island", "out", "island2"));
  EXPECT_TRUE(Has(**kg, "t1", "label", "L1"));    // supervision kept
  EXPECT_TRUE(Has(**kg, "t2", "label", "L2"));
  EXPECT_EQ(stats.seed_nodes, 2u);
  EXPECT_LT(stats.extracted_triples, stats.original_triples);
  EXPECT_GT(stats.reduction_ratio(), 0.0);
}

TEST_F(MetaSamplerTest, D2H1AddsIncomingEdges) {
  MetaSampler sampler(&store_);
  auto kg = sampler.Extract(Spec(SampleDirection::kBidirectional, 1));
  ASSERT_TRUE(kg.ok());
  EXPECT_TRUE(Has(**kg, "in1", "in", "t1"));
  EXPECT_FALSE(Has(**kg, "before_in1", "in", "in1"));  // 2 hops in
}

TEST_F(MetaSamplerTest, D1H2ReachesTwoHops) {
  MetaSampler sampler(&store_);
  auto kg = sampler.Extract(Spec(SampleDirection::kOutgoing, 2));
  ASSERT_TRUE(kg.ok());
  EXPECT_TRUE(Has(**kg, "m1", "out", "far1"));
  EXPECT_FALSE(Has(**kg, "far1", "out", "far2"));  // 3 hops
}

TEST_F(MetaSamplerTest, TypeTriplesOfIncludedNodesKept) {
  MetaSampler sampler(&store_);
  auto kg = sampler.Extract(Spec(SampleDirection::kOutgoing, 1));
  ASSERT_TRUE(kg.ok());
  EXPECT_TRUE(Has(**kg, "t1", std::string(rdf::kRdfType), "T"));
  EXPECT_TRUE(Has(**kg, "m1", std::string(rdf::kRdfType), "M"));
}

TEST_F(MetaSamplerTest, ErrorsOnUnknownTargets) {
  MetaSampler sampler(&store_);
  MetaSampleSpec s = Spec(SampleDirection::kOutgoing, 1);
  s.target_type_iri = "Nonexistent";
  EXPECT_FALSE(sampler.Extract(s).ok());
  s = Spec(SampleDirection::kOutgoing, 1);
  s.supervision_predicate_iris = {"nope"};
  EXPECT_FALSE(sampler.Extract(s).ok());
}

TEST_F(MetaSamplerTest, LabelsAndDescription) {
  MetaSampleSpec s = Spec(SampleDirection::kOutgoing, 1);
  EXPECT_EQ(SampleSpecLabel(s), "d1h1");
  s.direction = SampleDirection::kBidirectional;
  s.hops = 2;
  EXPECT_EQ(SampleSpecLabel(s), "d2h2");
  const std::string sparql = MetaSampler::DescribeAsSparql(s);
  EXPECT_NE(sparql.find("CONSTRUCT"), std::string::npos);
  EXPECT_NE(sparql.find("T"), std::string::npos);
}

/// KG' as sorted "s p o" lines of term strings: independent of KG''s
/// own dictionary ids and of how its runs were built.
std::vector<std::string> TermTriples(const rdf::TripleStore& kg) {
  std::vector<std::string> out;
  kg.Scan(rdf::TriplePattern(), [&](const rdf::Triple& t) {
    out.push_back(kg.dict().Lookup(t.s).lexical + " " +
                  kg.dict().Lookup(t.p).lexical + " " +
                  kg.dict().Lookup(t.o).lexical);
    return true;
  });
  std::sort(out.begin(), out.end());
  return out;
}

TEST_F(MetaSamplerTest, PinsTheSubgraphAndStatsOfEachSpec) {
  const std::string a = std::string(rdf::kRdfType);
  struct Case {
    SampleDirection direction;
    uint32_t hops;
    std::vector<std::string> triples;
    MetaSampleStats stats;
  };
  const std::vector<Case> cases = {
      {SampleDirection::kOutgoing, 1,
       {"m1 " + a + " M", "t1 " + a + " T", "t1 label L1", "t1 out m1",
        "t2 " + a + " T", "t2 label L2"},
       {2, 6, 6, 11}},
      {SampleDirection::kBidirectional, 1,
       {"in1 in t1", "m1 " + a + " M", "t1 " + a + " T", "t1 label L1",
        "t1 out m1", "t2 " + a + " T", "t2 label L2"},
       {2, 7, 7, 11}},
      {SampleDirection::kOutgoing, 2,
       {"m1 " + a + " M", "m1 out far1", "t1 " + a + " T", "t1 label L1",
        "t1 out m1", "t2 " + a + " T", "t2 label L2"},
       {2, 8, 7, 11}},
  };
  MetaSampler sampler(&store_);
  for (const Case& c : cases) {
    MetaSampleStats stats;
    auto kg = sampler.Extract(Spec(c.direction, c.hops), &stats);
    ASSERT_TRUE(kg.ok()) << kg.status();
    const std::string label = SampleSpecLabel(Spec(c.direction, c.hops));
    std::vector<std::string> want = c.triples;
    std::sort(want.begin(), want.end());
    EXPECT_EQ(TermTriples(**kg), want) << label;
    EXPECT_EQ(stats.seed_nodes, c.stats.seed_nodes) << label;
    EXPECT_EQ(stats.visited_nodes, c.stats.visited_nodes) << label;
    EXPECT_EQ(stats.extracted_triples, c.stats.extracted_triples) << label;
    EXPECT_EQ(stats.original_triples, c.stats.original_triples) << label;
  }
}

TEST(MetaSamplerDblpTest, PinsTheSubgraphOfAGeneratedKg) {
  rdf::TripleStore store;
  workload::DblpOptions opts;
  opts.num_papers = 300;
  opts.num_authors = 150;
  opts.num_venues = 5;
  opts.num_affiliations = 10;
  ASSERT_TRUE(workload::GenerateDblp(opts, &store).ok());
  MetaSampler sampler(&store);
  struct Case {
    SampleDirection direction;
    uint32_t hops;
    uint64_t digest;
    MetaSampleStats stats;
  };
  const Case cases[] = {
      {SampleDirection::kOutgoing, 1, 5149305230583267644ull,
       {300, 456, 3074, 4785}},
      {SampleDirection::kBidirectional, 2, 1230559301885013343ull,
       {300, 750, 4391, 4785}},
  };
  for (const Case& c : cases) {
    MetaSampleSpec spec;
    spec.target_type_iri = DblpSchema::Publication();
    spec.supervision_predicate_iris = {DblpSchema::PublishedIn()};
    spec.direction = c.direction;
    spec.hops = c.hops;
    MetaSampleStats stats;
    auto kg = sampler.Extract(spec, &stats);
    ASSERT_TRUE(kg.ok()) << kg.status();
    // FNV-1a over the sorted term-string lines.
    uint64_t digest = 0xcbf29ce484222325ull;
    for (const std::string& line : TermTriples(**kg)) {
      for (const char ch : line + "\n") {
        digest ^= static_cast<unsigned char>(ch);
        digest *= 0x100000001b3ull;
      }
    }
    const std::string label = SampleSpecLabel(spec);
    EXPECT_EQ(digest, c.digest) << label;
    EXPECT_EQ(stats.seed_nodes, c.stats.seed_nodes) << label;
    EXPECT_EQ(stats.visited_nodes, c.stats.visited_nodes) << label;
    EXPECT_EQ(stats.extracted_triples, c.stats.extracted_triples) << label;
    EXPECT_EQ(stats.original_triples, c.stats.original_triples) << label;
    EXPECT_EQ((*kg)->size(), stats.extracted_triples) << label;
  }
}

TEST(MetaSamplerDblpTest, ReductionOnRealisticKg) {
  rdf::TripleStore store;
  workload::DblpOptions opts;
  opts.num_papers = 300;
  opts.num_authors = 150;
  opts.num_venues = 5;
  opts.num_affiliations = 10;
  opts.periphery_scale = 2.0;
  ASSERT_TRUE(workload::GenerateDblp(opts, &store).ok());

  MetaSampler sampler(&store);
  MetaSampleSpec spec;
  spec.target_type_iri = DblpSchema::Publication();
  spec.supervision_predicate_iris = {DblpSchema::PublishedIn()};
  spec.direction = SampleDirection::kOutgoing;
  spec.hops = 1;
  MetaSampleStats stats;
  auto kg = sampler.Extract(spec, &stats);
  ASSERT_TRUE(kg.ok()) << kg.status();
  // The periphery (topics, editors, events) must be pruned away: expect a
  // substantial reduction.
  EXPECT_GT(stats.reduction_ratio(), 0.3);
  // Every paper keeps its label edge.
  rdf::TermId label = (*kg)->dict().FindIri(DblpSchema::PublishedIn());
  ASSERT_NE(label, rdf::kNullTermId);
  EXPECT_EQ((*kg)->Count(rdf::TriplePattern(rdf::kNullTermId, label,
                                            rdf::kNullTermId)),
            300u);
}

}  // namespace
}  // namespace kgnet::core
