// Additional SPARQL engine coverage: solution modifiers, aliases, result
// rendering, error paths, cardinality estimation and randomized BGP
// correctness against a brute-force oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "sparql/engine.h"
#include "sparql/exec.h"
#include "sparql/parser.h"
#include "tensor/rng.h"

namespace kgnet::sparql {
namespace {

using rdf::Term;

class EngineExtraTest : public ::testing::Test {
 protected:
  EngineExtraTest() : engine_(&store_) {
    for (int i = 0; i < 10; ++i) {
      const std::string node = "http://x/n" + std::to_string(i);
      store_.InsertIris(node, std::string(rdf::kRdfType), "http://x/T");
      store_.Insert(Term::Iri(node), Term::Iri("http://x/rank"),
                    Term::IntLiteral(i));
      if (i > 0)
        store_.InsertIris(node, "http://x/next",
                          "http://x/n" + std::to_string(i - 1));
    }
  }
  rdf::TripleStore store_;
  QueryEngine engine_;
};

TEST_F(EngineExtraTest, OffsetAndLimitPaginate) {
  std::set<std::string> seen;
  for (int page = 0; page < 5; ++page) {
    auto r = engine_.ExecuteString(
        "SELECT ?n WHERE { ?n a <http://x/T> . } LIMIT 2 OFFSET " +
        std::to_string(page * 2));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->NumRows(), 2u);
    for (const auto& row : r->rows) seen.insert(row[0].lexical);
  }
  EXPECT_EQ(seen.size(), 10u);  // pages partition the result
}

TEST_F(EngineExtraTest, OffsetBeyondResultIsEmpty) {
  auto r = engine_.ExecuteString(
      "SELECT ?n WHERE { ?n a <http://x/T> . } OFFSET 99");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->NumRows(), 0u);
}

TEST_F(EngineExtraTest, VariableAliasInProjection) {
  auto r = engine_.ExecuteString(
      "SELECT ?n AS ?node WHERE { ?n a <http://x/T> . } LIMIT 1");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->columns.size(), 1u);
  EXPECT_EQ(r->columns[0], "node");
}

TEST_F(EngineExtraTest, ColumnIndexAndToTable) {
  auto r = engine_.ExecuteString(
      "SELECT ?n ?v WHERE { ?n <http://x/rank> ?v . } LIMIT 3");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ColumnIndex("n"), 0);
  EXPECT_EQ(r->ColumnIndex("v"), 1);
  EXPECT_EQ(r->ColumnIndex("nope"), -1);
  const std::string table = r->ToTable();
  EXPECT_NE(table.find("n"), std::string::npos);
  EXPECT_NE(table.find(" | "), std::string::npos);
  EXPECT_EQ(std::count(table.begin(), table.end(), '\n'), 4);  // header + 3
}

// Regression: a hand-built QueryResult whose rows are wider than its
// column list used to write past the per-column width array in
// ToTable(); extra cells must be clamped away instead.
TEST(QueryResultTest, ToTableClampsRowsWiderThanColumns) {
  QueryResult r;
  r.columns = {"a", "b"};
  r.rows.push_back({rdf::Term::Literal("one"), rdf::Term::Literal("two"),
                    rdf::Term::Literal("overflow")});
  r.rows.push_back({rdf::Term::Literal("shorty")});
  const std::string table = r.ToTable();
  EXPECT_NE(table.find("one"), std::string::npos);
  EXPECT_NE(table.find("two"), std::string::npos);
  EXPECT_EQ(table.find("overflow"), std::string::npos);
  EXPECT_EQ(std::count(table.begin(), table.end(), '\n'), 3);  // header + 2
}

TEST_F(EngineExtraTest, FilterChainAndNot) {
  auto r = engine_.ExecuteString(
      "SELECT ?n WHERE { ?n <http://x/rank> ?v . "
      "FILTER(!(?v < 3) && ?v <= 5) }");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->NumRows(), 3u);  // ranks 3, 4, 5
}

TEST_F(EngineExtraTest, FilterOrShortCircuits) {
  auto r = engine_.ExecuteString(
      "SELECT ?n WHERE { ?n <http://x/rank> ?v . "
      "FILTER(?v = 0 || ?v = 9) }");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->NumRows(), 2u);
}

TEST_F(EngineExtraTest, UnknownUdfFailsCleanly) {
  auto r = engine_.ExecuteString(
      "SELECT my:missing(?n) AS ?x WHERE { ?n a <http://x/T> . }");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(EngineExtraTest, UdfErrorPropagates) {
  engine_.udfs().Register(
      "my:fails", [](const std::vector<Term>&) -> Result<Term> {
        return Status::Internal("boom");
      });
  auto r = engine_.ExecuteString(
      "SELECT my:fails(?n) AS ?x WHERE { ?n a <http://x/T> . }");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

/// Reference DISTINCT: the first occurrence of every row of the plain
/// stream, compared as decoded terms.
std::vector<std::vector<Term>> FirstOccurrences(
    const std::vector<std::vector<Term>>& rows) {
  std::vector<std::vector<Term>> out;
  std::set<std::string> seen;
  for (const auto& row : rows) {
    std::string key;
    for (const Term& t : row) key += t.EncodeKey() + '\x02';
    if (seen.insert(key).second) out.push_back(row);
  }
  return out;
}

std::vector<std::vector<Term>> Slice(const std::vector<std::vector<Term>>& v,
                                     size_t offset, size_t limit) {
  const size_t lo = std::min(offset, v.size());
  const size_t hi = std::min(v.size(), lo + limit);
  return {v.begin() + static_cast<std::ptrdiff_t>(lo),
          v.begin() + static_cast<std::ptrdiff_t>(hi)};
}

class DistinctTest : public EngineExtraTest {
 protected:
  DistinctTest() {
    // Nodes 0..5 get one of three colors; 6..9 none (UNDEF under OPTIONAL).
    for (int i = 0; i < 6; ++i)
      store_.InsertIris("http://x/n" + std::to_string(i), "http://x/color",
                        "http://x/c" + std::to_string(i % 3));
  }

  std::vector<std::vector<Term>> Rows(const std::string& query) {
    auto r = engine_.ExecuteString(query);
    EXPECT_TRUE(r.ok()) << r.status() << "\n" << query;
    return r.ok() ? r->rows : std::vector<std::vector<Term>>{};
  }
};

// DISTINCT on projected ids keeps exactly the rows the term comparison
// keeps, UNDEF cells included, and OFFSET/LIMIT slice the deduped stream.
TEST_F(DistinctTest, IdDistinctMatchesTermDedupe) {
  const std::string where =
      " WHERE { ?n a ?t . OPTIONAL { ?n <http://x/color> ?c . } }";
  const auto plain = Rows("SELECT ?t ?c" + where);
  ASSERT_EQ(plain.size(), 10u);
  const auto want = FirstOccurrences(plain);
  const auto got = Rows("SELECT DISTINCT ?t ?c" + where);
  EXPECT_EQ(got, want);
  ASSERT_EQ(got.size(), 4u);  // c0, c1, c2 and UNDEF
  EXPECT_EQ(std::count_if(got.begin(), got.end(),
                          [](const std::vector<Term>& row) {
                            return row[1].is_undef();
                          }),
            1);
  for (size_t offset : {0u, 1u, 3u, 4u, 7u}) {
    for (size_t limit : {0u, 1u, 2u, 10u}) {
      EXPECT_EQ(Rows("SELECT DISTINCT ?t ?c" + where + " LIMIT " +
                     std::to_string(limit) + " OFFSET " +
                     std::to_string(offset)),
                Slice(want, offset, limit))
          << "offset=" << offset << " limit=" << limit;
    }
  }
}

// A single triple pattern drains through the same id dedupe; a variable
// the pattern never binds projects as UNDEF in every row.
TEST_F(DistinctTest, IdDistinctOnASinglePattern) {
  EXPECT_EQ(Rows("SELECT DISTINCT ?t WHERE { ?n a ?t . }").size(), 1u);
  const auto plain =
      Rows("SELECT ?c ?nowhere WHERE { ?n <http://x/color> ?c . }");
  const auto want = FirstOccurrences(plain);
  ASSERT_EQ(want.size(), 3u);
  EXPECT_TRUE(want[0][1].is_undef());
  EXPECT_EQ(
      Rows("SELECT DISTINCT ?c ?nowhere WHERE { ?n <http://x/color> ?c . }"),
      want);
  EXPECT_EQ(Rows("SELECT DISTINCT ?c WHERE { ?n <http://x/color> ?c . } "
                 "LIMIT 1 OFFSET 1"),
            Slice(FirstOccurrences(
                      Rows("SELECT ?c WHERE { ?n <http://x/color> ?c . }")),
                  1, 1));
  // Asking for an ExecInfo (plan text, counters) does not change the
  // rows.
  auto q = ParseQuery("SELECT DISTINCT ?c WHERE { ?n <http://x/color> ?c . }");
  ASSERT_TRUE(q.ok());
  ExecInfo info;
  auto planned = engine_.Execute(*q, &info);
  ASSERT_TRUE(planned.ok()) << planned.status();
  EXPECT_EQ(planned->rows,
            Rows("SELECT DISTINCT ?c WHERE { ?n <http://x/color> ?c . }"));
}

// A projection with an expression falls back to comparing decoded terms:
// every row is evaluated (the UDF runs once per solution), and the
// result is still the first occurrence of every projected row.
TEST_F(DistinctTest, ExpressionProjectionFallsBackToTermKeys) {
  engine_.udfs().Register("my:id",
                          [](const std::vector<Term>& args) -> Result<Term> {
                            return args.at(0);
                          });
  const std::string where =
      " WHERE { ?n a ?t . OPTIONAL { ?n <http://x/color> ?c . } }";
  const auto want = FirstOccurrences(Rows("SELECT ?t my:id(?c) AS ?x" + where));
  engine_.udfs().ResetCounters();
  const auto got = Rows("SELECT DISTINCT ?t my:id(?c) AS ?x" + where);
  EXPECT_EQ(engine_.udfs().CallCount("my:id"), 6u);  // rows binding ?c
  EXPECT_EQ(got, want);
  EXPECT_EQ(got.size(), 4u);
  EXPECT_EQ(Rows("SELECT DISTINCT ?t my:id(?c) AS ?x" + where +
                 " LIMIT 2 OFFSET 1"),
            Slice(want, 1, 2));
}

// FILTER expressions compile at plan time; their truth value must be
// EffectiveBool(EvalExpr(...)) on every row, errors included.
TEST_F(EngineExtraTest, CompiledFilterAgreesWithEvalExpr) {
  engine_.udfs().Register("my:id",
                          [](const std::vector<Term>& args) -> Result<Term> {
                            return args.at(0);
                          });
  const char* filters[] = {
      "?v >= 3",
      "?v = \"3\"",
      "?n != <http://x/n1>",
      "!(?v < 3) && ?v <= 5",
      "?v = 0 || ?v = 9",
      "(?v < 3) = (?v < 5)",
      "my:id(?v) > 4",
      "?v",
      "?n",
      "?u = 1",
      "?v < ?u || ?v > 2",
      "?v > 2 || ?v < ?u",
      "my:missing(?v)",
  };
  for (const char* f : filters) {
    auto q = ParseQuery(std::string("SELECT * WHERE { ?n <http://x/rank> ?v . "
                                    "FILTER(") +
                        f + ") }");
    ASSERT_TRUE(q.ok()) << q.status() << "\n" << f;
    ASSERT_EQ(q->where.filters.size(), 1u);
    EvalContext ctx;
    ctx.store = &store_;
    ctx.snapshot = store_.OpenSnapshot();
    ctx.udfs = &engine_.udfs();
    const int n = ctx.vars.SlotOf("n");
    const int v = ctx.vars.SlotOf("v");
    ctx.vars.SlotOf("u");  // registered, never bound
    const CompiledExpr compiled(q->where.filters[0], &ctx);
    for (const rdf::Triple& t : ctx.snapshot.Match(
             {rdf::kNullTermId, store_.dict().FindIri("http://x/rank"),
              rdf::kNullTermId})) {
      Solution row(ctx.vars.size(), rdf::kNullTermId);
      row[static_cast<size_t>(n)] = t.s;
      row[static_cast<size_t>(v)] = t.o;
      auto want = EvalExpr(q->where.filters[0], &ctx, row);
      auto got = compiled.Test(row);
      ASSERT_EQ(got.ok(), want.ok()) << f;
      if (want.ok()) {
        EXPECT_EQ(*got, EffectiveBool(*want)) << f;
      } else {
        EXPECT_EQ(got.status().code(), want.status().code()) << f;
      }
    }
  }
}

TEST_F(EngineExtraTest, ChainJoinFollowsPath) {
  // n9 -> n8 -> n7 via two hops.
  auto r = engine_.ExecuteString(
      "SELECT ?c WHERE { <http://x/n9> <http://x/next> ?b . "
      "?b <http://x/next> ?c . }");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->NumRows(), 1u);
  EXPECT_EQ(r->rows[0][0].lexical, "http://x/n7");
}

TEST_F(EngineExtraTest, EstimateWhereCardinality) {
  auto q = ParseQuery("SELECT ?n WHERE { ?n a <http://x/T> . }");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(engine_.EstimateWhereCardinality(*q), 10u);
  auto zero = ParseQuery("SELECT ?n WHERE { ?n a <http://x/Missing> . }");
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(engine_.EstimateWhereCardinality(*zero), 0u);
}

TEST_F(EngineExtraTest, InsertWhereIsIdempotentOnRerun) {
  const std::string update =
      "INSERT { ?n <http://x/flag> \"y\" } WHERE { ?n a <http://x/T> . }";
  auto first = engine_.ExecuteString(update);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->num_inserted, 10u);
  auto second = engine_.ExecuteString(update);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->num_inserted, 0u);  // duplicates ignored
}

TEST_F(EngineExtraTest, DeleteWithUnboundTemplateVariableFails) {
  auto r = engine_.ExecuteString(
      "DELETE { ?ghost <http://x/p> ?n } WHERE { ?n a <http://x/T> . }");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

/// Randomized property test: the engine's 2-pattern BGP join agrees with a
/// brute-force nested-loop oracle over random graphs.
class BgpOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BgpOracleTest, TwoPatternJoinMatchesOracle) {
  tensor::Rng rng(GetParam());
  rdf::TripleStore store;
  struct T {
    std::string s, p, o;
  };
  std::vector<T> triples;
  for (int i = 0; i < 120; ++i) {
    T t{"n" + std::to_string(rng.NextUint(12)),
        "p" + std::to_string(rng.NextUint(3)),
        "n" + std::to_string(rng.NextUint(12))};
    triples.push_back(t);
    store.InsertIris(t.s, t.p, t.o);
  }
  // Deduplicate the oracle's triples the same way the store does.
  std::sort(triples.begin(), triples.end(), [](const T& a, const T& b) {
    return std::tie(a.s, a.p, a.o) < std::tie(b.s, b.p, b.o);
  });
  triples.erase(std::unique(triples.begin(), triples.end(),
                            [](const T& a, const T& b) {
                              return a.s == b.s && a.p == b.p && a.o == b.o;
                            }),
                triples.end());

  QueryEngine engine(&store);
  // ?a p0 ?b . ?b p1 ?c
  auto r = engine.ExecuteString(
      "SELECT ?a ?b ?c WHERE { ?a <p0> ?b . ?b <p1> ?c . }");
  ASSERT_TRUE(r.ok()) << r.status();

  size_t oracle = 0;
  for (const T& x : triples)
    for (const T& y : triples)
      if (x.p == "p0" && y.p == "p1" && x.o == y.s) ++oracle;
  EXPECT_EQ(r->NumRows(), oracle);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BgpOracleTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace kgnet::sparql
