#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "sparql/engine.h"
#include "sparql/lexer.h"
#include "sparql/parser.h"

namespace kgnet::sparql {
namespace {

using rdf::Term;

// ---------------------------------------------------------------- lexer --

TEST(LexerTest, TokenizesCoreForms) {
  auto toks = Tokenize("SELECT ?x WHERE { ?x <http://p> \"lit\" . }");
  ASSERT_TRUE(toks.ok());
  ASSERT_GE(toks->size(), 9u);
  EXPECT_TRUE((*toks)[0].IsKeyword("SELECT"));
  EXPECT_EQ((*toks)[1].kind, TokenKind::kVar);
  EXPECT_EQ((*toks)[1].text, "x");
  EXPECT_TRUE((*toks)[2].IsKeyword("WHERE"));
  EXPECT_TRUE((*toks)[3].IsPunct("{"));
}

TEST(LexerTest, DistinguishesIriFromLessThan) {
  auto toks = Tokenize("FILTER(?x < 5) ?y <http://iri>");
  ASSERT_TRUE(toks.ok());
  bool saw_lt = false, saw_iri = false;
  for (const auto& t : *toks) {
    if (t.IsPunct("<")) saw_lt = true;
    if (t.kind == TokenKind::kIri && t.text == "http://iri") saw_iri = true;
  }
  EXPECT_TRUE(saw_lt);
  EXPECT_TRUE(saw_iri);
}

TEST(LexerTest, PrefixedNamesKeepDotsButNotTrailingDot) {
  auto toks = Tokenize("sql:UDFS.getNodeClass dblp:title.");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].text, "sql:UDFS.getNodeClass");
  EXPECT_EQ((*toks)[1].text, "dblp:title");
  EXPECT_TRUE((*toks)[2].IsPunct("."));
}

TEST(LexerTest, DollarVariables) {
  auto toks = Tokenize("$m ?n");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].kind, TokenKind::kVar);
  EXPECT_EQ((*toks)[0].text, "m");
}

TEST(LexerTest, CommentsAreSkipped) {
  auto toks = Tokenize("SELECT # all of it\n ?x");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[1].kind, TokenKind::kVar);
}

// --------------------------------------------------------------- parser --

TEST(ParserTest, ParsesSelectWithPrefixes) {
  auto q = ParseQuery(
      "PREFIX dblp: <https://dblp.org/rdf/>\n"
      "SELECT ?paper ?title WHERE {\n"
      "  ?paper a dblp:Publication .\n"
      "  ?paper dblp:title ?title .\n"
      "} LIMIT 5 OFFSET 2");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->kind, QueryKind::kSelect);
  ASSERT_EQ(q->select.size(), 2u);
  EXPECT_EQ(q->select[0].alias, "paper");
  ASSERT_EQ(q->where.triples.size(), 2u);
  // 'a' expanded to rdf:type; prefix resolved.
  EXPECT_EQ(q->where.triples[0].p.term.lexical, std::string(rdf::kRdfType));
  EXPECT_EQ(q->where.triples[1].p.term.lexical,
            "https://dblp.org/rdf/title");
  EXPECT_EQ(q->limit, 5);
  EXPECT_EQ(q->offset, 2);
}

// LIMIT and OFFSET take a plain integer in [0, INT64_MAX]. A negative
// number used to mean "no limit", a fraction was truncated and a value
// past int64 saturated; each is now a ParseError.
TEST(ParserTest, LimitAndOffsetTakeANonNegativeInt64) {
  const std::string head = "SELECT ?s WHERE { ?s ?p ?o . } ";
  auto q = ParseQuery(head + "LIMIT 0 OFFSET 9223372036854775807");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->limit, 0);
  EXPECT_EQ(q->offset, INT64_MAX);
  for (const char* bad :
       {"LIMIT -1", "LIMIT 1.5", "LIMIT 9223372036854775808",
        "LIMIT 99999999999999999999", "OFFSET -1", "OFFSET 2.5",
        "OFFSET 9223372036854775808", "LIMIT x", "LIMIT"}) {
    auto r = ParseQuery(head + bad);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError) << r.status();
    EXPECT_NE(r.status().message().find("wants an integer in [0, "
                                        "9223372036854775807]"),
              std::string::npos)
        << r.status();
  }
}

// An integer literal must fit in int64, in a triple and in a FILTER
// alike; a wider one is a ParseError naming the range, never a clamp.
TEST(ParserTest, IntegerLiteralsMustFitInt64) {
  const std::string range =
      "is outside [-9223372036854775808, 9223372036854775807]";
  auto q = ParseQuery(
      "SELECT ?s WHERE { ?s <p> -9223372036854775808 . "
      "FILTER(?s != 9223372036854775807) }");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->where.triples[0].o.term.lexical, "-9223372036854775808");
  EXPECT_EQ(q->where.filters[0]->args[1]->constant.lexical,
            "9223372036854775807");
  for (const char* bad :
       {"SELECT ?s WHERE { ?s <p> 99999999999999999999 . }",
        "SELECT ?s WHERE { ?s <p> -9223372036854775809 . }",
        "SELECT ?s WHERE { ?s <p> ?v . FILTER(?v > 99999999999999999999) }",
        "SELECT ?s WHERE { ?s <p> ?v . FILTER(?v < 9223372036854775808) }"}) {
    auto r = ParseQuery(bad);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError) << r.status();
    EXPECT_NE(r.status().message().find(range), std::string::npos)
        << r.status();
  }
}

TEST(ParserTest, ParsesSemicolonPredicateLists) {
  auto q = ParseQuery(
      "SELECT ?s WHERE { ?s <p1> ?a ; <p2> ?b . }");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->where.triples.size(), 2u);
  EXPECT_EQ(q->where.triples[0].s.var, "s");
  EXPECT_EQ(q->where.triples[1].s.var, "s");
  EXPECT_EQ(q->where.triples[1].p.term.lexical, "p2");
}

TEST(ParserTest, ParsesFilters) {
  auto q = ParseQuery(
      "SELECT ?s WHERE { ?s <p> ?v . FILTER(?v > 3 && ?v != 7) }");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->where.filters.size(), 1u);
  EXPECT_EQ(q->where.filters[0]->op, ExprOp::kAnd);
}

TEST(ParserTest, ParsesDistinct) {
  auto q = ParseQuery("SELECT DISTINCT ?s WHERE { ?s ?p ?o . }");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->distinct);
}

TEST(ParserTest, ParsesAsk) {
  auto q = ParseQuery("ASK { <a> <p> <b> . }");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->kind, QueryKind::kAsk);
}

TEST(ParserTest, ParsesInsertData) {
  auto q = ParseQuery("INSERT DATA { <a> <p> <b> . <a> <p> <c> . }");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->kind, QueryKind::kInsertData);
  EXPECT_EQ(q->update_template.size(), 2u);
}

TEST(ParserTest, ParsesDeleteWhere) {
  auto q = ParseQuery(
      "DELETE { ?m ?p ?o } WHERE { ?m a <http://kgnet/NodeClassifier> . "
      "?m ?p ?o . }");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->kind, QueryKind::kDeleteWhere);
  EXPECT_EQ(q->update_template.size(), 1u);
  EXPECT_EQ(q->where.triples.size(), 2u);
}

TEST(ParserTest, ParsesUdfProjection) {
  auto q = ParseQuery(
      "SELECT ?t sql:UDFS.getNodeClass($m, ?paper) AS ?venue "
      "WHERE { ?paper <title> ?t . }");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->select.size(), 2u);
  EXPECT_EQ(q->select[1].alias, "venue");
  EXPECT_EQ(q->select[1].expr->op, ExprOp::kCall);
  EXPECT_EQ(q->select[1].expr->fn, "sql:UDFS.getNodeClass");
  EXPECT_EQ(q->select[1].expr->args.size(), 2u);
}

TEST(ParserTest, ParsesSubSelect) {
  auto q = ParseQuery(
      "SELECT ?x WHERE { ?x <p> ?y . { SELECT ?y WHERE { ?y <q> ?z . } } }");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->where.subselects.size(), 1u);
  EXPECT_EQ(q->where.subselects[0]->select[0].alias, "y");
}

TEST(ParserTest, RejectsGarbage) {
  EXPECT_FALSE(ParseQuery("SELECT WHERE").ok());
  EXPECT_FALSE(ParseQuery("SELECT ?x WHERE { ?x <p> }").ok());
  EXPECT_FALSE(ParseQuery("FROB ?x").ok());
}

// Regression: an empty or whitespace-only query used to walk off the
// token vector in Parser::Peek/Next (UB, crashed under ASan). It must be
// a graceful parse error instead.
TEST(ParserTest, EmptyQueryIsGracefulParseError) {
  auto r = ParseQuery("");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("empty query"), std::string::npos)
      << r.status();
}

TEST(ParserTest, WhitespaceOnlyQueryIsGracefulParseError) {
  for (const char* text : {" ", "\n\t  \r\n", "# just a comment\n",
                           "PREFIX x: <http://x/>"}) {
    auto r = ParseQuery(text);
    ASSERT_FALSE(r.ok()) << "input: '" << text << "'";
    EXPECT_NE(r.status().ToString().find("empty query"), std::string::npos)
        << r.status();
  }
}

TEST(ParserTest, TruncatedMidClauseQueriesFailCleanly) {
  // Every prefix cut mid-clause must produce a parse error, never a
  // crash or an accepted query.
  for (const char* text :
       {"SELECT", "SELECT ?x", "SELECT ?x WHERE", "SELECT ?x WHERE {",
        "SELECT ?x WHERE { ?x", "SELECT ?x WHERE { ?x <p>",
        "SELECT ?x WHERE { ?x <p> ?y", "SELECT ?x WHERE { ?x <p> ?y .",
        "SELECT ?x WHERE { FILTER(?x =", "ASK {", "ASK { ?x",
        "INSERT DATA {", "DELETE { ?x <p> ?y } WHERE",
        "SELECT ?x WHERE { OPTIONAL {", "SELECT ?x WHERE { { ?x <p> ?y }",
        "SELECT ?x WHERE { { ?x <p> ?y } UNION"}) {
    auto r = ParseQuery(text);
    EXPECT_FALSE(r.ok()) << "accepted truncated query: '" << text << "'";
  }
}

// --------------------------------------------------------------- engine --

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : engine_(&store_) {
    store_.InsertIris("http://x/p1", std::string(rdf::kRdfType),
                      "http://x/Paper");
    store_.InsertIris("http://x/p2", std::string(rdf::kRdfType),
                      "http://x/Paper");
    store_.Insert(Term::Iri("http://x/p1"), Term::Iri("http://x/title"),
                  Term::Literal("Alpha"));
    store_.Insert(Term::Iri("http://x/p2"), Term::Iri("http://x/title"),
                  Term::Literal("Beta"));
    store_.Insert(Term::Iri("http://x/p1"), Term::Iri("http://x/year"),
                  Term::IntLiteral(2001));
    store_.Insert(Term::Iri("http://x/p2"), Term::Iri("http://x/year"),
                  Term::IntLiteral(2010));
    store_.InsertIris("http://x/p1", "http://x/cites", "http://x/p2");
  }
  rdf::TripleStore store_;
  QueryEngine engine_;
};

TEST_F(EngineTest, BasicBgpJoin) {
  auto r = engine_.ExecuteString(
      "PREFIX x: <http://x/> SELECT ?t WHERE { "
      "?p a x:Paper . ?p x:title ?t . ?p x:cites ?q . }");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->NumRows(), 1u);
  EXPECT_EQ(r->rows[0][0].lexical, "Alpha");
}

TEST_F(EngineTest, FilterNumericComparison) {
  auto r = engine_.ExecuteString(
      "PREFIX x: <http://x/> SELECT ?t WHERE { "
      "?p x:title ?t . ?p x:year ?y . FILTER(?y >= 2005) }");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->NumRows(), 1u);
  EXPECT_EQ(r->rows[0][0].lexical, "Beta");
}

TEST_F(EngineTest, FilterStringEquality) {
  auto r = engine_.ExecuteString(
      "PREFIX x: <http://x/> SELECT ?p WHERE { "
      "?p x:title ?t . FILTER(?t = \"Alpha\") }");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->NumRows(), 1u);
  EXPECT_EQ(r->rows[0][0].lexical, "http://x/p1");
}

TEST_F(EngineTest, DistinctAndLimit) {
  auto r = engine_.ExecuteString(
      "SELECT DISTINCT ?type WHERE { ?s a ?type . } LIMIT 10");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->NumRows(), 1u);  // only x:Paper
}

TEST_F(EngineTest, AskTrueAndFalse) {
  auto yes = engine_.ExecuteString(
      "PREFIX x: <http://x/> ASK { x:p1 x:cites x:p2 . }");
  ASSERT_TRUE(yes.ok()) << yes.status();
  EXPECT_TRUE(yes->ask_result);
  auto no = engine_.ExecuteString(
      "PREFIX x: <http://x/> ASK { x:p2 x:cites x:p1 . }");
  ASSERT_TRUE(no.ok());
  EXPECT_FALSE(no->ask_result);
}

TEST_F(EngineTest, InsertDataThenQuery) {
  auto ins = engine_.ExecuteString(
      "INSERT DATA { <http://x/p3> <http://x/title> \"Gamma\" . }");
  ASSERT_TRUE(ins.ok()) << ins.status();
  EXPECT_EQ(ins->num_inserted, 1u);
  auto r = engine_.ExecuteString(
      "PREFIX x: <http://x/> SELECT ?t WHERE { x:p3 x:title ?t . }");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->NumRows(), 1u);
}

TEST_F(EngineTest, InsertWhereInstantiatesTemplate) {
  auto ins = engine_.ExecuteString(
      "PREFIX x: <http://x/> INSERT { ?p x:flagged \"yes\" } "
      "WHERE { ?p a x:Paper . }");
  ASSERT_TRUE(ins.ok()) << ins.status();
  EXPECT_EQ(ins->num_inserted, 2u);
}

TEST_F(EngineTest, DeleteWhereRemovesMatches) {
  auto del = engine_.ExecuteString(
      "PREFIX x: <http://x/> DELETE { ?p x:title ?t } "
      "WHERE { ?p x:title ?t . }");
  ASSERT_TRUE(del.ok()) << del.status();
  EXPECT_EQ(del->num_deleted, 2u);
  auto r = engine_.ExecuteString(
      "PREFIX x: <http://x/> SELECT ?t WHERE { ?p x:title ?t . }");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->NumRows(), 0u);
}

TEST_F(EngineTest, UdfInProjection) {
  engine_.udfs().Register(
      "my:upper", [](const std::vector<Term>& args) -> Result<Term> {
        std::string out = args[0].lexical;
        for (char& c : out) c = static_cast<char>(std::toupper(c));
        return Term::Literal(out);
      });
  auto r = engine_.ExecuteString(
      "PREFIX x: <http://x/> SELECT my:upper(?t) AS ?u WHERE { "
      "?p x:title ?t . } ");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->NumRows(), 2u);
  EXPECT_EQ(engine_.udfs().CallCount("my:upper"), 2u);
}

TEST_F(EngineTest, SubSelectJoinsWithOuter) {
  auto r = engine_.ExecuteString(
      "PREFIX x: <http://x/> SELECT ?t WHERE { "
      "?p x:title ?t . { SELECT ?p WHERE { ?p x:cites ?q . } } }");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->NumRows(), 1u);
  EXPECT_EQ(r->rows[0][0].lexical, "Alpha");
}

TEST_F(EngineTest, RepeatedVariableInPattern) {
  store_.InsertIris("http://x/self", "http://x/cites", "http://x/self");
  auto r = engine_.ExecuteString(
      "PREFIX x: <http://x/> SELECT ?p WHERE { ?p x:cites ?p . }");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->NumRows(), 1u);
  EXPECT_EQ(r->rows[0][0].lexical, "http://x/self");
}

TEST_F(EngineTest, UnknownConstantYieldsEmpty) {
  auto r = engine_.ExecuteString(
      "SELECT ?o WHERE { <http://nowhere> <http://nope> ?o . }");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->NumRows(), 0u);
}

TEST_F(EngineTest, CartesianProductOfDisconnectedPatterns) {
  auto r = engine_.ExecuteString(
      "PREFIX x: <http://x/> SELECT ?a ?b WHERE { "
      "?a x:title ?t1 . ?b x:year ?y1 . }");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->NumRows(), 4u);  // 2 x 2
}

}  // namespace
}  // namespace kgnet::sparql
