// Planner-choice unit tests: asserts, via QueryEngine::Explain() and the
// ExecInfo counters, that the cost-based planner picks the intended join
// algorithm per query shape and that LIMIT short-circuits the scans.
#include <gtest/gtest.h>

#include <string>

#include "common/cancel.h"
#include "common/thread_pool.h"
#include "rdf/term.h"
#include "sparql/engine.h"
#include "sparql/parser.h"
#include "tests/parallel_test_util.h"

namespace kgnet::sparql {
namespace {

class PlanTest : public ::testing::Test {
 protected:
  PlanTest() : engine_(&store_) {
    // Star data: 100 typed subjects, 4 colors (25 subjects each).
    for (int i = 0; i < 100; ++i) {
      const std::string s = "s" + std::to_string(i);
      store_.InsertIris(s, std::string(rdf::kRdfType), "T");
      store_.InsertIris(s, "color", "c" + std::to_string(i % 4));
    }
    // Chain data: u -> e0 -> v -> e1 -> w -> e2 -> x, ~200 triples each.
    for (int i = 0; i < 200; ++i) {
      store_.InsertIris("u" + std::to_string(i % 50), "e0",
                        "v" + std::to_string((i * 7) % 60));
      store_.InsertIris("v" + std::to_string(i % 60), "e1",
                        "w" + std::to_string((i * 3) % 40));
      store_.InsertIris("w" + std::to_string(i % 40), "e2",
                        "x" + std::to_string((i * 11) % 30));
    }
  }

  std::string Plan(const std::string& query) {
    auto p = engine_.ExplainString(query);
    EXPECT_TRUE(p.ok()) << p.status();
    return p.ok() ? *p : std::string();
  }

  /// Executes `query` and returns (rows, scanned) from ExecInfo.
  std::pair<size_t, size_t> Run(const std::string& query) {
    auto q = ParseQuery(query);
    EXPECT_TRUE(q.ok()) << q.status();
    if (!q.ok()) return {0, 0};
    ExecInfo info;
    auto r = engine_.Execute(*q, &info);
    EXPECT_TRUE(r.ok()) << r.status();
    if (!r.ok()) return {0, 0};
    return {r->NumRows(), info.rows_scanned};
  }

  rdf::TripleStore store_;
  QueryEngine engine_;
};

TEST_F(PlanTest, StarJoinUsesMergeJoinWhenOrdersAlign) {
  // Both patterns scan a (p,o)-bound range ordered by ?x, so the planner
  // must pick the merge join over hash/bind.
  const std::string plan =
      Plan("SELECT ?x WHERE { ?x a <T> . ?x <color> <c1> . }");
  EXPECT_NE(plan.find("MergeJoin(?x)"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("HashJoin"), std::string::npos) << plan;
  EXPECT_NE(plan.find("IndexScan["), std::string::npos) << plan;
}

TEST_F(PlanTest, ChainJoinStreamsMergeViaPsoIndex) {
  // An object-subject chain. ?b sits in subject position of the second
  // pattern with its predicate the only bound term; before the PSO index
  // existed, streaming that side ordered by ?b needed a full SPO scan,
  // forcing a HashJoin. Now the planner must ride PSO into a merge join.
  const std::string plan =
      Plan("SELECT ?a ?c WHERE { ?a <e0> ?b . ?b <e1> ?c . }");
  EXPECT_NE(plan.find("MergeJoin(?b)"), std::string::npos) << plan;
  EXPECT_NE(plan.find("IndexScan[pso]"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("HashJoin"), std::string::npos) << plan;
}

TEST_F(PlanTest, ThreeChainTailFallsBackToHashJoin) {
  // The middle and last hops merge on ?c (PSO again); the running plan
  // then streams ordered by ?c, so the remaining hop's shared variable
  // ?b cannot merge and hashes instead.
  const std::string plan = Plan(
      "SELECT ?a ?d WHERE { ?a <e0> ?b . ?b <e1> ?c . ?c <e2> ?d . }");
  EXPECT_NE(plan.find("MergeJoin(?c)"), std::string::npos) << plan;
  EXPECT_NE(plan.find("HashJoin(?b)"), std::string::npos) << plan;
}

TEST_F(PlanTest, DisconnectedPatternsUseCrossHashJoin) {
  const std::string plan =
      Plan("SELECT ?a ?x WHERE { ?a <e0> ?b . ?x <e2> ?y . }");
  EXPECT_NE(plan.find("HashJoin(cross)"), std::string::npos) << plan;
}

TEST_F(PlanTest, SelectiveOuterUsesBindJoin) {
  // <u1> binds the first pattern to a handful of rows; seeking the inner
  // index once per outer row beats scanning the full e1 range.
  const std::string plan =
      Plan("SELECT ?c WHERE { <u1> <e0> ?b . ?b <e1> ?c . }");
  EXPECT_NE(plan.find("BindJoin(?b)"), std::string::npos) << plan;
  EXPECT_NE(plan.find("IndexScan[auto]"), std::string::npos) << plan;
}

TEST_F(PlanTest, FiltersAttachInsidePlan) {
  const std::string plan = Plan(
      "SELECT ?x WHERE { ?x a <T> . ?x <color> <c1> . "
      "FILTER(?x != <s5>) }");
  EXPECT_NE(plan.find("Filter("), std::string::npos) << plan;
}

TEST_F(PlanTest, SelectModifiersWrapThePlan) {
  const std::string plan =
      Plan("SELECT DISTINCT ?x WHERE { ?x a <T> . } LIMIT 7 OFFSET 2");
  EXPECT_NE(plan.find("Limit(7 offset=2)"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Project(distinct ?x)"), std::string::npos) << plan;
}

TEST_F(PlanTest, PlannerEstimatesAppearInExplain) {
  const std::string plan = Plan("SELECT ?x WHERE { ?x <color> <c1> . }");
  EXPECT_NE(plan.find("est=25"), std::string::npos) << plan;
}

TEST_F(PlanTest, MergeAndHashPlansProduceCorrectRows) {
  auto star = Run("SELECT ?x WHERE { ?x a <T> . ?x <color> <c1> . }");
  EXPECT_EQ(star.first, 25u);
  // 400 = the e0/e1 join counted by nested loops over the fixture's
  // formulas.
  auto chain = Run("SELECT ?a ?c WHERE { ?a <e0> ?b . ?b <e1> ?c . }");
  EXPECT_EQ(chain.first, 400u);
}

TEST_F(PlanTest, LimitShortCircuitsScanCounts) {
  const std::string query =
      "SELECT ?x WHERE { ?x a <T> . ?x <color> <c1> . }";
  auto [full_rows, full_scanned] = Run(query);
  auto [lim_rows, lim_scanned] = Run(query + " LIMIT 3");
  EXPECT_EQ(full_rows, 25u);
  EXPECT_EQ(lim_rows, 3u);
  // Streaming LIMIT must stop the scans well before a full evaluation.
  EXPECT_LT(lim_scanned, full_scanned / 2) << "full=" << full_scanned
                                           << " limited=" << lim_scanned;
}

TEST_F(PlanTest, LimitScanCountDoesNotDependOnPoolWidth) {
  // Every operator pulls its rows on the calling thread, so the pool
  // width cannot change what a LIMIT reads: LIMIT 5 over a 6000-row
  // range takes exactly five rows out of the index cursor.
  kgnet::testing::ThreadCountGuard guard;
  rdf::TripleStore store;
  for (int s = 0; s < 200; ++s)
    for (int o = 0; o < 30; ++o)
      store.InsertIris("s" + std::to_string(s), "p", "o" + std::to_string(o));
  store.Compact();  // the range is one compressed run, as after a load
  QueryEngine engine(&store);
  auto q = ParseQuery("SELECT * WHERE { ?s <p> ?o . } LIMIT 5");
  ASSERT_TRUE(q.ok()) << q.status();
  for (int threads : {1, 2, 4}) {
    common::ThreadPool::SetNumThreads(threads);
    ExecInfo info;
    auto r = engine.Execute(*q, &info);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->NumRows(), 5u) << threads << " threads";
    EXPECT_EQ(info.rows_scanned, 5u) << threads << " threads";
  }
}

TEST_F(PlanTest, LimitZeroReturnsNoRows) {
  auto [rows, scanned] = Run("SELECT ?x WHERE { ?x a <T> . } LIMIT 0");
  EXPECT_EQ(rows, 0u);
  EXPECT_EQ(scanned, 0u);
}

TEST_F(PlanTest, LazyHashBuildShortCircuitsUnderLimit) {
  // The three-hop chain ends in a HashJoin (see above). Its build side is
  // pulled lazily (symmetric hash join), so a LIMIT above the join must
  // stop the build-side scan early too, not just the probe.
  const std::string query =
      "SELECT ?a ?d WHERE { ?a <e0> ?b . ?b <e1> ?c . ?c <e2> ?d . }";
  auto [full_rows, full_scanned] = Run(query);
  auto [lim_rows, lim_scanned] = Run(query + " LIMIT 3");
  ASSERT_GT(full_rows, 3u);
  EXPECT_EQ(lim_rows, 3u);
  EXPECT_LT(lim_scanned, full_scanned / 2) << "full=" << full_scanned
                                           << " limited=" << lim_scanned;
}

TEST_F(PlanTest, UnionStreamsAsUnionAllNode) {
  const std::string plan = Plan(
      "SELECT ?s WHERE { { ?s a <T> . } UNION { ?s <color> <c1> . } }");
  EXPECT_NE(plan.find("Union(2 branches)"), std::string::npos) << plan;
  auto [rows, scanned] = Run(
      "SELECT ?s WHERE { { ?s a <T> . } UNION { ?s <color> <c1> . } }");
  (void)scanned;
  EXPECT_EQ(rows, 125u);  // 100 typed + 25 color-c1
}

TEST_F(PlanTest, OptionalStreamsAsLeftJoinNode) {
  const std::string plan = Plan(
      "SELECT ?x ?c WHERE { ?x a <T> . OPTIONAL { ?x <color> ?c . } }");
  EXPECT_NE(plan.find("LeftJoin(optional)"), std::string::npos) << plan;
  auto [rows, scanned] = Run(
      "SELECT ?x ?c WHERE { ?x a <T> . OPTIONAL { ?x <color> ?c . } }");
  (void)scanned;
  EXPECT_EQ(rows, 100u);  // every subject has exactly one color
}

TEST_F(PlanTest, StreamingUnionLimitShortCircuitsScans) {
  const std::string query =
      "SELECT ?s WHERE { { ?s a <T> . } UNION { ?s <color> <c1> . } }";
  auto [full_rows, full_scanned] = Run(query);
  auto [lim_rows, lim_scanned] = Run(query + " LIMIT 5");
  EXPECT_EQ(full_rows, 125u);
  EXPECT_EQ(lim_rows, 5u);
  EXPECT_LT(lim_scanned, full_scanned / 2) << "full=" << full_scanned
                                           << " limited=" << lim_scanned;
}

class TrioPlanTest : public ::testing::Test {
 protected:
  TrioPlanTest() : store_(TrioOptions()), engine_(&store_) {
    for (int i = 0; i < 200; ++i) {
      store_.InsertIris("u" + std::to_string(i % 50), "e0",
                        "v" + std::to_string((i * 7) % 60));
      store_.InsertIris("v" + std::to_string(i % 60), "e1",
                        "w" + std::to_string((i * 3) % 40));
    }
  }
  static rdf::TripleStore::Options TrioOptions() {
    rdf::TripleStore::Options opts;
    opts.index_set = rdf::TripleStore::Options::IndexSet::kClassicTrio;
    return opts;
  }
  rdf::TripleStore store_;
  QueryEngine engine_;
};

TEST_F(TrioPlanTest, PlannerFallsBackGracefullyWithoutSecondTrio) {
  // The chain shape whose merge join rides PSO under the full index set:
  // with only SPO/POS/OSP maintained, the planner must not reference the
  // absent permutations and must still answer correctly (hash or bind
  // join instead of the PSO-fed merge).
  const std::string query =
      "SELECT ?a ?c WHERE { ?a <e0> ?b . ?b <e1> ?c . }";
  auto plan = engine_.ExplainString(query);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->find("IndexScan[pso]"), std::string::npos) << *plan;
  EXPECT_EQ(plan->find("IndexScan[ops]"), std::string::npos) << *plan;
  EXPECT_EQ(plan->find("IndexScan[sop]"), std::string::npos) << *plan;

  auto streamed = engine_.ExecuteString(query);
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  EXPECT_EQ(streamed->NumRows(), 400u);  // as under the full index set
}

TEST_F(PlanTest, AskStopsAtFirstRow) {
  auto q = ParseQuery("ASK { ?x a <T> . ?x <color> <c1> . }");
  ASSERT_TRUE(q.ok());
  ExecInfo info;
  auto r = engine_.Execute(*q, &info);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->ask_result);
  EXPECT_LT(info.rows_scanned, 30u);
}

/// A bibliographic graph with the shapes of perfbench's read kinds:
/// 600 papers over 24 venues, each with a year, 3 authors and 3
/// citations; 240 authors with a primary affiliation. Compacted, so every
/// read walks one generation run. The expected row counts below were
/// counted by nested loops over these formulas, not through the engine.
class ReadShapeTest : public ::testing::Test {
 protected:
  ReadShapeTest() : engine_(&store_) {
    for (int i = 0; i < 600; ++i) {
      const std::string p = "p" + std::to_string(i);
      store_.InsertIris(p, "publishedIn", "v" + std::to_string(i % 24));
      store_.Insert(rdf::Term::Iri(p), rdf::Term::Iri("year"),
                    rdf::Term::IntLiteral(2000 + i % 25));
      for (int k = 0; k < 3; ++k) {
        store_.InsertIris(p, "authoredBy",
                          "a" + std::to_string((i * 7 + k * 13) % 240));
        store_.InsertIris(p, "cites",
                          "p" + std::to_string((i * 31 + k * 17 + 1) % 600));
      }
    }
    for (int j = 0; j < 240; ++j)
      store_.InsertIris("a" + std::to_string(j), "primaryAffiliation",
                        "f" + std::to_string(j % 20));
    store_.Compact();
  }

  std::string Plan(const std::string& query) {
    auto p = engine_.ExplainString(query);
    EXPECT_TRUE(p.ok()) << p.status();
    return p.ok() ? *p : std::string();
  }

  /// Executes `query` with an ExecInfo and expects `want_rows` rows.
  ExecInfo Run(const std::string& query, size_t want_rows) {
    ExecInfo info;
    auto q = ParseQuery(query);
    EXPECT_TRUE(q.ok()) << q.status();
    if (!q.ok()) return info;
    auto r = engine_.Execute(*q, &info);
    EXPECT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r.ok() ? r->NumRows() : 0, want_rows) << query;
    return info;
  }

  rdf::TripleStore store_;
  QueryEngine engine_;
};

const char kOptionalShape[] =
    "SELECT ?p ?c WHERE { ?p <authoredBy> <a5> . "
    "OPTIONAL { ?p <cites> ?c . } }";
const char kFilterShape[] =
    "SELECT ?p ?y WHERE { ?p <publishedIn> <v1> . ?p <year> ?y . "
    "FILTER(?y >= 2015) }";
const char kDistinctShape[] =
    "SELECT DISTINCT ?f WHERE { ?p <publishedIn> <v1> . "
    "?p <authoredBy> ?a . ?a <primaryAffiliation> ?f . }";

struct TailShape {
  const char* query;
  size_t rows;
};
const TailShape kTailShapes[] = {
    {kOptionalShape, 21}, {kFilterShape, 10}, {kDistinctShape, 15}};

// An OPTIONAL group sharing a variable with the outer plan seeks on the
// outer value at every open instead of filtering the whole <cites> range.
TEST_F(ReadShapeTest, OptionalInnerScanSeeksOnOuterBinding) {
  const std::string plan = Plan(kOptionalShape);
  EXPECT_NE(plan.find("IndexScan[auto] ?p <cites> ?c"), std::string::npos)
      << plan;
}

TEST_F(ReadShapeTest, UnionBranchesSharingAnOuterSlotSeek) {
  const std::string plan = Plan(
      "SELECT ?p ?c WHERE { ?p <publishedIn> <v1> . "
      "{ ?p <cites> ?c . } UNION { ?c <cites> ?p . } }");
  EXPECT_NE(plan.find("IndexScan[auto] ?p <cites> ?c"), std::string::npos)
      << plan;
  EXPECT_NE(plan.find("IndexScan[auto] ?c <cites> ?p"), std::string::npos)
      << plan;
}

// A group that shares no slot with the outer plan keeps its fixed-order
// scan: nothing is known about it before the open.
TEST_F(ReadShapeTest, InnerGroupSharingNoSlotKeepsFixedOrder) {
  const std::string optional = Plan(
      "SELECT ?p ?f WHERE { ?p <publishedIn> <v1> . "
      "OPTIONAL { <a5> <primaryAffiliation> ?f . } }");
  EXPECT_NE(optional.find("IndexScan[spo] <a5> <primaryAffiliation> ?f"),
            std::string::npos)
      << optional;
  EXPECT_EQ(optional.find("[auto]"), std::string::npos) << optional;
  const std::string union_plan = Plan(
      "SELECT ?f WHERE { { <a5> <primaryAffiliation> ?f . } UNION "
      "{ <a6> <primaryAffiliation> ?f . } }");
  EXPECT_NE(union_plan.find("IndexScan[spo] <a5> <primaryAffiliation> ?f"),
            std::string::npos)
      << union_plan;
  EXPECT_EQ(union_plan.find("[auto]"), std::string::npos) << union_plan;
}

// Multi-pattern inner groups: the pattern on the outer binding opens the
// group, the rest joins on it.
TEST_F(ReadShapeTest, MultiPatternOptionalStartsFromTheOuterBinding) {
  const std::string query =
      "SELECT ?p ?c ?v WHERE { ?p <authoredBy> <a5> . "
      "OPTIONAL { ?c <publishedIn> ?v . ?p <cites> ?c . } }";
  const std::string plan = Plan(query);
  EXPECT_NE(plan.find("IndexScan[auto] ?p <cites> ?c"), std::string::npos)
      << plan;
  EXPECT_NE(plan.find("IndexScan[auto] ?c <publishedIn> ?v"),
            std::string::npos)
      << plan;
  Run(query, 21);
}

// rows_walked counts every index row a cursor consumed. Each of the
// three tail shapes must consume about what it returns: an OPTIONAL that
// filtered the whole <cites> range per outer row, or probes that decoded
// their block from its start up to the first row, walk many times more.
TEST_F(ReadShapeTest, TailShapesWalkAboutWhatTheyScan) {
  for (const auto& [query, rows] : kTailShapes) {
    const ExecInfo info = Run(query, rows);
    EXPECT_GT(info.rows_scanned, 0u) << query;
    EXPECT_GE(info.rows_walked, info.rows_scanned) << query;
    EXPECT_LE(info.rows_walked, 2 * info.rows_scanned)
        << query << "\n" << info.plan;
  }
}

TEST_F(ReadShapeTest, RowsWalkedCountsRowsThePatternFilterDrops) {
  // ?x <cites> ?x repeats a variable: the scan walks every <cites> row
  // and keeps only self-citations, of which the fixture has none.
  const ExecInfo info = Run("SELECT ?x WHERE { ?x <cites> ?x . }", 0);
  EXPECT_EQ(info.rows_walked, 1800u);
  EXPECT_EQ(info.rows_scanned, 1800u);
}

// Every scan the planner arms with the query's token says so in EXPLAIN,
// the inner side of a BindJoin and the [auto] scans of inner groups
// included.
TEST_F(ReadShapeTest, LiveCancelTokenMarksEveryScan) {
  common::CancelSource source;
  for (const auto& [query, rows] : kTailShapes) {
    auto q = ParseQuery(query);
    ASSERT_TRUE(q.ok()) << q.status();
    ExecInfo info;
    auto r = engine_.Execute(*q, store_.OpenSnapshot(), &info,
                             source.token());
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->NumRows(), rows) << query;
    size_t scans = 0;
    for (size_t at = info.plan.find("IndexScan["); at != std::string::npos;
         at = info.plan.find("IndexScan[", at + 1)) {
      ++scans;
      const size_t eol = info.plan.find('\n', at);
      EXPECT_NE(info.plan.substr(at, eol - at).find(" [cancel]"),
                std::string::npos)
          << info.plan;
    }
    EXPECT_GE(scans, 2u) << info.plan;
    EXPECT_GT(info.cancel_checks, 0u);
  }
  // Without a token no scan is marked.
  const ExecInfo plain = Run(kFilterShape, 10);
  EXPECT_EQ(plain.plan.find("[cancel]"), std::string::npos) << plain.plan;
}

}  // namespace
}  // namespace kgnet::sparql
