#include "rdf/ntriples.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace kgnet::rdf {
namespace {

TEST(NTriplesTest, ParsesIriTriple) {
  auto r = ParseNTriplesLine("<http://a> <http://p> <http://b> .");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->s.lexical, "http://a");
  EXPECT_EQ(r->p.lexical, "http://p");
  EXPECT_EQ(r->o.lexical, "http://b");
  EXPECT_TRUE(r->o.is_iri());
}

TEST(NTriplesTest, ParsesLiteralForms) {
  auto plain = ParseNTriplesLine("<a> <p> \"hello world\" .");
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->o.is_literal());
  EXPECT_EQ(plain->o.lexical, "hello world");

  auto typed = ParseNTriplesLine(
      "<a> <p> \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> .");
  ASSERT_TRUE(typed.ok());
  EXPECT_EQ(typed->o.datatype, "http://www.w3.org/2001/XMLSchema#integer");

  auto tagged = ParseNTriplesLine("<a> <p> \"bonjour\"@fr .");
  ASSERT_TRUE(tagged.ok());
  EXPECT_EQ(tagged->o.lang, "fr");
}

TEST(NTriplesTest, ParsesEscapes) {
  auto r = ParseNTriplesLine("<a> <p> \"line\\nbreak \\\"q\\\" \\\\\" .");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->o.lexical, "line\nbreak \"q\" \\");
}

TEST(NTriplesTest, ParsesGrammarEscapes) {
  // The full ECHAR set: \t \b \n \r \f \" \' \\.
  auto r = ParseNTriplesLine("<a> <p> \"\\t\\b\\n\\r\\f\\\"\\'\\\\\" .");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->o.lexical, "\t\b\n\r\f\"'\\");
}

TEST(NTriplesTest, DecodesUcharEscapes) {
  auto ascii = ParseNTriplesLine("<a> <p> \"\\u0041\\u005A\" .");
  ASSERT_TRUE(ascii.ok()) << ascii.status();
  EXPECT_EQ(ascii->o.lexical, "AZ");

  auto two_byte = ParseNTriplesLine("<a> <p> \"caf\\u00E9\" .");
  ASSERT_TRUE(two_byte.ok()) << two_byte.status();
  EXPECT_EQ(two_byte->o.lexical, "caf\xC3\xA9");  // é

  auto three_byte = ParseNTriplesLine("<a> <p> \"\\u20AC\" .");
  ASSERT_TRUE(three_byte.ok()) << three_byte.status();
  EXPECT_EQ(three_byte->o.lexical, "\xE2\x82\xAC");  // €

  auto four_byte = ParseNTriplesLine("<a> <p> \"\\U0001F600\" .");
  ASSERT_TRUE(four_byte.ok()) << four_byte.status();
  EXPECT_EQ(four_byte->o.lexical, "\xF0\x9F\x98\x80");  // 😀

  // Mixed with ordinary text and other escapes.
  auto mixed = ParseNTriplesLine("<a> <p> \"a\\u0062c\\nd\" .");
  ASSERT_TRUE(mixed.ok()) << mixed.status();
  EXPECT_EQ(mixed->o.lexical, "abc\nd");
}

TEST(NTriplesTest, RejectsInvalidUcharEscapes) {
  // Truncated digit runs.
  EXPECT_FALSE(ParseNTriplesLine("<a> <p> \"\\u12\" .").ok());
  EXPECT_FALSE(ParseNTriplesLine("<a> <p> \"\\U0001F60\" .").ok());
  // Non-hex digits.
  EXPECT_FALSE(ParseNTriplesLine("<a> <p> \"\\u12G4\" .").ok());
  // Surrogate halves and beyond-Unicode code points are not characters.
  EXPECT_FALSE(ParseNTriplesLine("<a> <p> \"\\uD800\" .").ok());
  EXPECT_FALSE(ParseNTriplesLine("<a> <p> \"\\uDFFF\" .").ok());
  EXPECT_FALSE(ParseNTriplesLine("<a> <p> \"\\U00110000\" .").ok());
}

TEST(NTriplesTest, UcharLiteralsRoundTripThroughStore) {
  TripleStore store;
  auto n = LoadNTriples(
      "<http://s> <http://p> \"caf\\u00E9 \\U0001F600\" .\n"
      "<http://s> <http://p> \"plain\" .\n",
      &store);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 2u);

  std::ostringstream os;
  ASSERT_TRUE(WriteNTriples(store, os).ok());
  TripleStore reloaded;
  auto m = LoadNTriples(os.str(), &reloaded);
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(*m, 2u);
  // The decoded UTF-8 form is what survives the round trip.
  EXPECT_NE(reloaded.dict().Find(Term::Literal("caf\xC3\xA9 \xF0\x9F\x98\x80")),
            kNullTermId);
}

TEST(NTriplesTest, ParsesBlankNodes) {
  auto r = ParseNTriplesLine("_:b1 <p> _:b2 .");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->s.is_blank());
  EXPECT_EQ(r->s.lexical, "b1");
  EXPECT_TRUE(r->o.is_blank());
}

TEST(NTriplesTest, RejectsMalformedLines) {
  EXPECT_FALSE(ParseNTriplesLine("<a> <p> <b>").ok());   // missing dot
  EXPECT_FALSE(ParseNTriplesLine("<a> \"lit\" <b> .").ok());  // literal pred
  EXPECT_FALSE(ParseNTriplesLine("<a <p> <b> .").ok());
  EXPECT_FALSE(ParseNTriplesLine("<a> <p> \"unterminated .").ok());
}

TEST(NTriplesTest, SkipsCommentsAndBlanks) {
  TripleStore store;
  auto n = LoadNTriples("# comment\n\n<a> <p> <b> .\n  \n<a> <p> <c> .\n",
                        &store);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 2u);
}

TEST(NTriplesTest, ReportsLineNumberOnError) {
  TripleStore store;
  auto n = LoadNTriples("<a> <p> <b> .\ngarbage here\n", &store);
  ASSERT_FALSE(n.ok());
  EXPECT_NE(n.status().message().find("line 2"), std::string::npos);
}

TEST(NTriplesTest, ParseErrorStillClosesTheBulkLoadScope) {
  // The load holds a TripleStore::BulkLoad scope; returning at the first
  // bad line must close it, which checks the compaction trigger once: the
  // lines before the error end up in one fresh generation, and later
  // writes compact on the per-mutation trigger again.
  TripleStore::Options opts;
  opts.delta_compact_threshold = 4;
  TripleStore store(opts);
  auto n = LoadNTriples(
      "<a> <p> <b1> .\n<a> <p> <b2> .\n<a> <p> <b3> .\n<a> <p> <b4> .\n"
      "<a> <p> <b5> .\n<a> <p> <b6> .\ngarbage here\n<a> <p> <b7> .\n",
      &store);
  ASSERT_FALSE(n.ok());
  EXPECT_NE(n.status().message().find("line 7"), std::string::npos);
  TripleStore::Stats stats = store.GetStats();
  EXPECT_EQ(stats.compactions, 1u);
  EXPECT_EQ(stats.generation_triples, 6u);
  EXPECT_EQ(stats.delta_ops, 0u);
  // No scope is left open: four plain inserts reach the trigger.
  for (int i = 0; i < 4; ++i)
    store.InsertIris("c" + std::to_string(i), "p", "d");
  stats = store.GetStats();
  EXPECT_EQ(stats.compactions, 2u);
  EXPECT_EQ(stats.delta_ops, 0u);
  EXPECT_EQ(store.size(), 10u);
}

TEST(NTriplesTest, RoundTripsThroughSerialization) {
  TripleStore store;
  store.Insert(Term::Iri("http://s"), Term::Iri("http://p"),
               Term::Literal("v with \"quotes\" and\nnewline"));
  store.Insert(Term::Iri("http://s"), Term::Iri("http://p"),
               Term::IntLiteral(7));
  store.Insert(Term::Blank("x"), Term::Iri("http://p"), Term::Iri("http://o"));

  std::ostringstream os;
  ASSERT_TRUE(WriteNTriples(store, os).ok());

  TripleStore reloaded;
  auto n = LoadNTriples(os.str(), &reloaded);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, store.size());
  // Every original triple survives the round trip.
  store.Scan(TriplePattern(), [&](const Triple& t) {
    Triple mapped(reloaded.dict().Find(store.dict().Lookup(t.s)),
                  reloaded.dict().Find(store.dict().Lookup(t.p)),
                  reloaded.dict().Find(store.dict().Lookup(t.o)));
    EXPECT_TRUE(reloaded.Contains(mapped));
    return true;
  });
}

}  // namespace
}  // namespace kgnet::rdf
