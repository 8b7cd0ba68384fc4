#include "rdf/triple_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "rdf/term.h"
#include "tensor/memory_meter.h"
#include "tensor/rng.h"

namespace kgnet::rdf {
namespace {

TEST(DictionaryTest, InternIsIdempotent) {
  Dictionary dict;
  TermId a = dict.InternIri("http://x/a");
  TermId b = dict.InternIri("http://x/b");
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.InternIri("http://x/a"), a);
  EXPECT_EQ(dict.num_terms(), 2u);
  EXPECT_EQ(dict.Lookup(a).lexical, "http://x/a");
}

TEST(DictionaryTest, DistinguishesTermKinds) {
  Dictionary dict;
  TermId iri = dict.Intern(Term::Iri("x"));
  TermId lit = dict.Intern(Term::Literal("x"));
  TermId blank = dict.Intern(Term::Blank("x"));
  EXPECT_NE(iri, lit);
  EXPECT_NE(lit, blank);
  EXPECT_NE(iri, blank);
}

TEST(TripleStoreInternOrderTest, FreshStoreInternsObjectThenPredicateThenSubject) {
  TripleStore a;
  ASSERT_TRUE(a.Insert(Term::Iri("s"), Term::Iri("p"), Term::Iri("o")));
  EXPECT_EQ(a.dict().FindIri("o"), 1u);
  EXPECT_EQ(a.dict().FindIri("p"), 2u);
  EXPECT_EQ(a.dict().FindIri("s"), 3u);
  TripleStore b;
  ASSERT_TRUE(b.InsertIris("s", "p", "o"));
  EXPECT_EQ(b.dict().FindIri("o"), 1u);
  EXPECT_EQ(b.dict().FindIri("p"), 2u);
  EXPECT_EQ(b.dict().FindIri("s"), 3u);
}

TEST(DictionaryTest, DistinguishesDatatypeAndLang) {
  Dictionary dict;
  TermId plain = dict.Intern(Term::Literal("5"));
  TermId typed = dict.Intern(Term::IntLiteral(5));
  Term lang = Term::Literal("5");
  lang.lang = "en";
  TermId tagged = dict.Intern(lang);
  EXPECT_NE(plain, typed);
  EXPECT_NE(plain, tagged);
  EXPECT_NE(typed, tagged);
}

TEST(DictionaryTest, FindDoesNotIntern) {
  Dictionary dict;
  EXPECT_EQ(dict.Find(Term::Iri("nope")), kNullTermId);
  EXPECT_EQ(dict.num_terms(), 0u);
}

TEST(DictionaryTest, RoundTripsAcrossBlockBoundaries) {
  // Terms live in doubling-size blocks (4096, 8192, ...); 100k interns
  // cross four block boundaries. Every id must round-trip and every
  // Lookup reference taken early must survive all later interning —
  // with the old std::vector storage a reallocation invalidated them.
  Dictionary dict;
  const TermId first = dict.InternIri("iri-0");
  const Term* early_ref = &dict.Lookup(first);
  std::vector<TermId> ids;
  ids.reserve(100000);
  for (int i = 0; i < 100000; ++i)
    ids.push_back(dict.InternIri("iri-" + std::to_string(i)));
  EXPECT_EQ(dict.num_terms(), 100000u);
  EXPECT_EQ(early_ref, &dict.Lookup(first));  // never moved
  for (int i = 0; i < 100000; i += 997) {
    EXPECT_EQ(dict.Lookup(ids[i]).lexical, "iri-" + std::to_string(i)) << i;
    EXPECT_EQ(dict.FindIri("iri-" + std::to_string(i)), ids[i]) << i;
  }
  // The ids right at the 4096/12288/28672/61440 boundaries.
  for (TermId id : {4095u, 4096u, 12287u, 12288u, 28671u, 28672u, 61439u,
                    61440u}) {
    ASSERT_TRUE(dict.Contains(id));
    EXPECT_EQ(dict.Find(dict.Lookup(id)), id);
  }
}

TEST(DictionaryTest, LookupsAreSafeAgainstConcurrentInterning) {
  // The MVCC read-path contract (docs/STORAGE.md): result projection
  // Lookups race one interning writer. Readers copy terms they learned
  // before the writer started; the writer pushes the dictionary through
  // several block allocations. Run under TSan/ASan this is the
  // regression test for the vector-reallocation use-after-free that
  // crashed test_serving_stress.
  Dictionary dict;
  std::vector<TermId> warm;
  for (int i = 0; i < 512; ++i)
    warm.push_back(dict.InternIri("warm-" + std::to_string(i)));

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  std::atomic<uint64_t> lookups{0};
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&dict, &warm, &stop, &lookups, t] {
      uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const TermId id = warm[(n * 31 + static_cast<uint64_t>(t)) %
                               warm.size()];
        Term copy = dict.Lookup(id);  // the crash site: copy mid-realloc
        if (copy.lexical.empty()) break;
        // Find shares the string index with the writer's interns.
        if (dict.Find(copy) != id) break;
        ++n;
      }
      lookups.fetch_add(n);
    });
  }
  for (int i = 0; i < 30000; ++i) dict.InternIri("new-" + std::to_string(i));
  stop.store(true);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(dict.num_terms(), 512u + 30000u);
  EXPECT_GT(lookups.load(), 0u);
  for (int t = 0; t < 3; ++t)
    EXPECT_EQ(dict.Lookup(warm[static_cast<size_t>(t)]).lexical,
              "warm-" + std::to_string(t));
}

class TripleStoreTest : public ::testing::Test {
 protected:
  TripleStore store_;
  TermId Add(const std::string& s, const std::string& p,
             const std::string& o) {
    store_.InsertIris(s, p, o);
    return store_.dict().FindIri(s);
  }
};

TEST_F(TripleStoreTest, InsertAndContains) {
  EXPECT_TRUE(store_.InsertIris("s", "p", "o"));
  EXPECT_FALSE(store_.InsertIris("s", "p", "o"));  // duplicate
  EXPECT_EQ(store_.size(), 1u);
  Triple t(store_.dict().FindIri("s"), store_.dict().FindIri("p"),
           store_.dict().FindIri("o"));
  EXPECT_TRUE(store_.Contains(t));
}

TEST_F(TripleStoreTest, MatchByEveryBoundCombination) {
  Add("a", "p", "x");
  Add("a", "p", "y");
  Add("a", "q", "x");
  Add("b", "p", "x");
  const Dictionary& d = store_.dict();
  TermId a = d.FindIri("a"), p = d.FindIri("p"), x = d.FindIri("x");

  EXPECT_EQ(store_.Match(TriplePattern()).size(), 4u);
  EXPECT_EQ(store_.Match(TriplePattern(a, 0, 0)).size(), 3u);
  EXPECT_EQ(store_.Match(TriplePattern(0, p, 0)).size(), 3u);
  EXPECT_EQ(store_.Match(TriplePattern(0, 0, x)).size(), 3u);
  EXPECT_EQ(store_.Match(TriplePattern(a, p, 0)).size(), 2u);
  EXPECT_EQ(store_.Match(TriplePattern(0, p, x)).size(), 2u);
  EXPECT_EQ(store_.Match(TriplePattern(a, 0, x)).size(), 2u);
  EXPECT_EQ(store_.Match(TriplePattern(a, p, x)).size(), 1u);
}

TEST_F(TripleStoreTest, EraseRemovesFromAllIndexes) {
  Add("a", "p", "x");
  Add("a", "p", "y");
  const Dictionary& d = store_.dict();
  Triple t(d.FindIri("a"), d.FindIri("p"), d.FindIri("x"));
  EXPECT_TRUE(store_.Erase(t));
  EXPECT_FALSE(store_.Erase(t));
  EXPECT_EQ(store_.size(), 1u);
  EXPECT_TRUE(store_.Match(TriplePattern(0, 0, d.FindIri("x"))).empty());
  EXPECT_EQ(store_.Match(TriplePattern(d.FindIri("a"), 0, 0)).size(), 1u);
}

TEST_F(TripleStoreTest, EraseMatchingPattern) {
  Add("a", "p", "x");
  Add("a", "p", "y");
  Add("b", "q", "z");
  TermId a = store_.dict().FindIri("a");
  EXPECT_EQ(store_.EraseMatching(TriplePattern(a, 0, 0)), 2u);
  EXPECT_EQ(store_.size(), 1u);
}

TEST_F(TripleStoreTest, CountsAndDistincts) {
  Add("a", "p", "x");
  Add("a", "q", "x");
  Add("b", "p", "y");
  EXPECT_EQ(store_.NumDistinctSubjects(), 2u);
  EXPECT_EQ(store_.NumDistinctPredicates(), 2u);
  EXPECT_EQ(store_.NumDistinctObjects(), 2u);
}

TEST_F(TripleStoreTest, CardinalityEstimateIsExactForIndexPrefixes) {
  for (int i = 0; i < 50; ++i)
    Add("s" + std::to_string(i % 7), "p" + std::to_string(i % 3),
        "o" + std::to_string(i));
  const Dictionary& d = store_.dict();
  TermId s0 = d.FindIri("s0"), p1 = d.FindIri("p1");
  EXPECT_EQ(store_.EstimateCardinality(TriplePattern(s0, 0, 0)),
            store_.Count(TriplePattern(s0, 0, 0)));
  EXPECT_EQ(store_.EstimateCardinality(TriplePattern(0, p1, 0)),
            store_.Count(TriplePattern(0, p1, 0)));
  EXPECT_EQ(store_.EstimateCardinality(TriplePattern(s0, p1, 0)),
            store_.Count(TriplePattern(s0, p1, 0)));
  EXPECT_EQ(store_.EstimateCardinality(TriplePattern()), store_.size());
}

TEST_F(TripleStoreTest, ScanEarlyStop) {
  for (int i = 0; i < 10; ++i) Add("s", "p", "o" + std::to_string(i));
  size_t seen = 0;
  store_.Scan(TriplePattern(), [&](const Triple&) {
    ++seen;
    return seen < 3;
  });
  EXPECT_EQ(seen, 3u);
}

TEST_F(TripleStoreTest, InterleavedInsertEraseScan) {
  Add("a", "p", "x");
  store_.FlushInserts();
  Add("b", "p", "y");  // in the delta, not yet compacted
  // Scan must see both (run ∪ delta merge).
  EXPECT_EQ(store_.Match(TriplePattern()).size(), 2u);
  Add("c", "p", "z");
  const Dictionary& d = store_.dict();
  store_.Erase(Triple(d.FindIri("a"), d.FindIri("p"), d.FindIri("x")));
  EXPECT_EQ(store_.Match(TriplePattern()).size(), 2u);
}

TEST_F(TripleStoreTest, AllSixIndexOrdersStreamSortedAndComplete) {
  tensor::Rng rng(99);
  for (int i = 0; i < 200; ++i)
    Add("s" + std::to_string(rng.NextUint(15)),
        "p" + std::to_string(rng.NextUint(4)),
        "o" + std::to_string(rng.NextUint(20)));
  const size_t total = store_.size();
  for (int oi = 0; oi < kNumIndexOrders; ++oi) {
    const IndexOrder order = static_cast<IndexOrder>(oi);
    auto positions = IndexOrderPositions(order);
    auto key_of = [&](const Triple& t) {
      auto at = [&](int pos) { return pos == 0 ? t.s : (pos == 1 ? t.p : t.o); };
      return std::array<TermId, 3>{at(positions[0]), at(positions[1]),
                                   at(positions[2])};
    };
    TripleCursor c = store_.OpenCursor(order, TriplePattern());
    Triple t, prev;
    size_t n = 0;
    bool first = true;
    while (c.Next(&t)) {
      if (!first) {
        EXPECT_LE(key_of(prev), key_of(t)) << IndexOrderName(order);
      }
      prev = t;
      first = false;
      ++n;
    }
    EXPECT_EQ(n, total) << IndexOrderName(order);
  }
}

TEST_F(TripleStoreTest, PsoStreamsSubjectsInOrderUnderBoundPredicate) {
  // The motivating case for the second index trio: a bound predicate with
  // the subject as the first free key position. PSO must answer it with a
  // seekable range streaming subjects in sorted order (the merge-join
  // input shape), and the range estimate must be exact.
  for (int i = 0; i < 40; ++i) {
    Add("s" + std::to_string(i % 10), "p0", "o" + std::to_string(i));
    Add("s" + std::to_string(i % 10), "p1", "z" + std::to_string(i));
  }
  TriplePattern pat(0, store_.dict().FindIri("p0"), 0);
  EXPECT_EQ(store_.EstimateRange(IndexOrder::kPso, pat),
            store_.Count(pat));
  TripleCursor c = store_.OpenCursor(IndexOrder::kPso, pat);
  Triple t;
  TermId prev_s = 0;
  size_t n = 0;
  while (c.Next(&t)) {
    EXPECT_EQ(t.p, pat.p);
    EXPECT_GE(t.s, prev_s);
    prev_s = t.s;
    ++n;
  }
  EXPECT_EQ(n, store_.Count(pat));
}

TEST_F(TripleStoreTest, OpsAndSopPrefixRangesAreExact) {
  for (int i = 0; i < 60; ++i)
    Add("s" + std::to_string(i % 6), "p" + std::to_string(i % 3),
        "o" + std::to_string(i % 5));
  const Dictionary& d = store_.dict();
  // OPS: (?,p,o) is the two-term prefix (o,p); (?,?,o) the one-term o.
  TriplePattern po(0, d.FindIri("p1"), d.FindIri("o2"));
  EXPECT_EQ(store_.EstimateRange(IndexOrder::kOps, po), store_.Count(po));
  TriplePattern o_only(0, 0, d.FindIri("o3"));
  EXPECT_EQ(store_.EstimateRange(IndexOrder::kOps, o_only),
            store_.Count(o_only));
  // SOP: (s,?,o) is the two-term prefix (s,o); (s,?,?) the one-term s.
  TriplePattern so(d.FindIri("s2"), 0, d.FindIri("o1"));
  EXPECT_EQ(store_.EstimateRange(IndexOrder::kSop, so), store_.Count(so));
  TriplePattern s_only(d.FindIri("s4"), 0, 0);
  EXPECT_EQ(store_.EstimateRange(IndexOrder::kSop, s_only),
            store_.Count(s_only));
}

TEST_F(TripleStoreTest, EraseRemovesFromAllSixIndexes) {
  Add("a", "p", "x");
  Add("b", "p", "x");
  const Dictionary& d = store_.dict();
  Triple t(d.FindIri("a"), d.FindIri("p"), d.FindIri("x"));
  ASSERT_TRUE(store_.Erase(t));
  Triple probe;
  for (int oi = 0; oi < kNumIndexOrders; ++oi) {
    TripleCursor c = store_.OpenCursor(static_cast<IndexOrder>(oi),
                                       TriplePattern());
    size_t n = 0;
    while (c.Next(&probe)) {
      EXPECT_FALSE(probe.s == t.s && probe.p == t.p && probe.o == t.o);
      ++n;
    }
    EXPECT_EQ(n, 1u) << IndexOrderName(static_cast<IndexOrder>(oi));
  }
}

TEST_F(TripleStoreTest, InsertEraseInsertLandsInIndexes) {
  // Regression for the delta path: a triple erased while its insert was
  // still in the log, then re-inserted, must end up in the next
  // generation exactly once — last-op-wins collapse, no double entry.
  Add("a", "p", "x");
  const Dictionary& d = store_.dict();
  Triple t(d.FindIri("a"), d.FindIri("p"), d.FindIri("x"));
  EXPECT_TRUE(store_.Erase(t));   // still in the log: cancels the insert
  EXPECT_TRUE(store_.Insert(t));  // logged again
  EXPECT_EQ(store_.Match(TriplePattern()).size(), 1u);
  store_.Compact();               // seal into the generation
  EXPECT_TRUE(store_.Erase(t));   // now in the runs: logged tombstone
  EXPECT_TRUE(store_.Insert(t));  // re-insert cancels the tombstone
  EXPECT_EQ(store_.Match(TriplePattern()).size(), 1u);
  EXPECT_TRUE(store_.Contains(t));
}

// ------------------------------------------- compressed-index accounting --

TEST(TripleStoreMemoryTest, CompressedIndexesBeatFlatRowsOnASeededGraph) {
  tensor::Rng rng(4242);
  TripleStore store;
  const size_t meter_before = tensor::MemoryMeter::Instance().TotalIndexBytes();
  for (int i = 0; i < 3000; ++i) {
    store.InsertIris("s" + std::to_string(rng.NextUint(200)),
                     "p" + std::to_string(rng.NextUint(12)),
                     "o" + std::to_string(rng.NextUint(400)));
  }
  const size_t raw = store.size() * sizeof(Triple);
  const size_t flat_six = raw * static_cast<size_t>(kNumIndexOrders);

  // Per-order bytes sum to the total, and every maintained order is
  // smaller than its flat sorted-row equivalent.
  size_t sum = 0;
  for (int oi = 0; oi < kNumIndexOrders; ++oi) {
    const IndexOrder order = static_cast<IndexOrder>(oi);
    ASSERT_TRUE(store.has_index(order));
    const size_t bytes = store.IndexBytes(order);
    EXPECT_GT(bytes, 0u) << IndexOrderName(order);
    EXPECT_LT(bytes, raw) << IndexOrderName(order);
    sum += bytes;
  }
  EXPECT_EQ(sum, store.TotalIndexBytes());

  // The headline claim: the full six-order set compresses to well under
  // the flat layout — and under the ISSUE's 2.4x-of-raw acceptance bar.
  EXPECT_LT(store.TotalIndexBytes(), flat_six / 2);
  EXPECT_LE(static_cast<double>(store.TotalIndexBytes()),
            2.4 * static_cast<double>(raw));

  // The thread-local MemoryMeter index pool tracks the same bytes.
  EXPECT_EQ(tensor::MemoryMeter::Instance().TotalIndexBytes() - meter_before,
            store.TotalIndexBytes());
  for (int oi = 0; oi < kNumIndexOrders; ++oi)
    EXPECT_GE(tensor::MemoryMeter::Instance().IndexBytes(oi),
              store.IndexBytes(static_cast<IndexOrder>(oi)));
}

TEST(TripleStoreMemoryTest, MeterReleasesOnDestructionAndMove) {
  auto& meter = tensor::MemoryMeter::Instance();
  const size_t before = meter.TotalIndexBytes();
  {
    TripleStore store;
    store.InsertIris("a", "p", "b");
    store.FlushInserts();
    EXPECT_GT(meter.TotalIndexBytes(), before);
    TripleStore moved = std::move(store);
    EXPECT_EQ(moved.size(), 1u);
    EXPECT_GT(meter.TotalIndexBytes(), before);  // bytes moved, not doubled
  }
  EXPECT_EQ(meter.TotalIndexBytes(), before);
}

TEST(TripleStoreMemoryTest, ClassicTrioHalvesIndexStorage) {
  TripleStore::Options trio_opts;
  trio_opts.index_set = TripleStore::Options::IndexSet::kClassicTrio;
  TripleStore six, trio(trio_opts);
  tensor::Rng rng(7);
  for (int i = 0; i < 1500; ++i) {
    const std::string s = "s" + std::to_string(rng.NextUint(100));
    const std::string p = "p" + std::to_string(rng.NextUint(8));
    const std::string o = "o" + std::to_string(rng.NextUint(150));
    six.InsertIris(s, p, o);
    trio.InsertIris(s, p, o);
  }
  EXPECT_EQ(six.num_indexes(), 6);
  EXPECT_EQ(trio.num_indexes(), 3);
  EXPECT_FALSE(trio.has_index(IndexOrder::kPso));
  EXPECT_FALSE(trio.has_index(IndexOrder::kOps));
  EXPECT_FALSE(trio.has_index(IndexOrder::kSop));
  EXPECT_EQ(trio.IndexBytes(IndexOrder::kPso), 0u);
  // Identical content, half the orders: roughly half the bytes (the
  // orders compress differently, so allow a broad band).
  EXPECT_LT(trio.TotalIndexBytes(), six.TotalIndexBytes() * 2 / 3);
  EXPECT_GT(trio.TotalIndexBytes(), six.TotalIndexBytes() / 3);
}

TEST(TripleStoreConfigTest, TrioAnswersEveryBoundCombinationExactly) {
  TripleStore::Options opts;
  opts.index_set = TripleStore::Options::IndexSet::kClassicTrio;
  opts.block_size = 3;  // stress block boundaries too
  TripleStore store(opts);
  tensor::Rng rng(31);
  for (int i = 0; i < 400; ++i)
    store.InsertIris("s" + std::to_string(rng.NextUint(25)),
                     "p" + std::to_string(rng.NextUint(5)),
                     "o" + std::to_string(rng.NextUint(30)));
  std::vector<Triple> all = store.Match(TriplePattern());
  tensor::Rng probe_rng(32);
  for (int trial = 0; trial < 60; ++trial) {
    const Triple& probe = all[probe_rng.NextUint(all.size())];
    TriplePattern pat;
    if (probe_rng.NextFloat() < 0.5f) pat.s = probe.s;
    if (probe_rng.NextFloat() < 0.5f) pat.p = probe.p;
    if (probe_rng.NextFloat() < 0.5f) pat.o = probe.o;
    size_t want = 0;
    for (const Triple& t : all)
      if (pat.Matches(t)) ++want;
    EXPECT_EQ(store.Count(pat), want);
    // Cardinality estimates stay exact with the trio: every bound
    // combination is still a full prefix of SPO, POS or OSP.
    EXPECT_EQ(store.EstimateCardinality(pat), want);
  }
}

TEST(TripleStoreConfigTest, CursorStreamsAgreeAcrossBlockSizes) {
  // Cursor-equivalence: the same graph under block sizes 1 (every row its
  // own block), a mid-size, and one block for everything must stream
  // identical sequences on every index order — and match a flat
  // sort-by-permuted-key reference.
  std::vector<std::array<std::string, 3>> facts;
  tensor::Rng rng(55);
  for (int i = 0; i < 250; ++i)
    facts.push_back({"s" + std::to_string(rng.NextUint(20)),
                     "p" + std::to_string(rng.NextUint(4)),
                     "o" + std::to_string(rng.NextUint(25))});

  std::vector<std::unique_ptr<TripleStore>> stores;
  for (size_t bs : {1u, 16u, 100000u}) {
    TripleStore::Options opts;
    opts.block_size = bs;
    auto store = std::make_unique<TripleStore>(opts);
    for (const auto& f : facts) store->InsertIris(f[0], f[1], f[2]);
    stores.push_back(std::move(store));
  }

  for (int oi = 0; oi < kNumIndexOrders; ++oi) {
    const IndexOrder order = static_cast<IndexOrder>(oi);
    // Flat reference: permuted-key sort of the deduplicated triples.
    std::vector<Triple> want = stores[0]->Match(TriplePattern());
    auto positions = IndexOrderPositions(order);
    std::sort(want.begin(), want.end(), [&](const Triple& a, const Triple& b) {
      auto at = [&](const Triple& t, int pos) {
        return pos == 0 ? t.s : (pos == 1 ? t.p : t.o);
      };
      return std::array<TermId, 3>{at(a, positions[0]), at(a, positions[1]),
                                   at(a, positions[2])} <
             std::array<TermId, 3>{at(b, positions[0]), at(b, positions[1]),
                                   at(b, positions[2])};
    });
    for (const auto& store : stores) {
      TripleCursor c = store->OpenCursor(order, TriplePattern());
      Triple t;
      size_t i = 0;
      while (c.Next(&t)) {
        ASSERT_LT(i, want.size());
        EXPECT_EQ(t, want[i]) << IndexOrderName(order) << " row " << i;
        ++i;
      }
      EXPECT_EQ(i, want.size()) << IndexOrderName(order);
    }
  }
}

/// Property test: Match() agrees with a naive scan-and-filter oracle on a
/// randomized store, across all 8 bound/unbound pattern shapes.
class TripleStorePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TripleStorePropertyTest, MatchAgreesWithNaiveOracle) {
  tensor::Rng rng(GetParam());
  // The store configuration rotates with the seed so the oracle also
  // covers the trio index subset and odd compressed-block boundaries.
  TripleStore::Options opts;
  opts.block_size = static_cast<size_t>(GetParam());
  if (GetParam() % 2 == 0)
    opts.index_set = TripleStore::Options::IndexSet::kClassicTrio;
  TripleStore store(opts);
  std::vector<Triple> inserted;
  for (int i = 0; i < 300; ++i) {
    std::string s = "s" + std::to_string(rng.NextUint(20));
    std::string p = "p" + std::to_string(rng.NextUint(5));
    std::string o = "o" + std::to_string(rng.NextUint(30));
    store.InsertIris(s, p, o);
  }
  store.Scan(TriplePattern(), [&](const Triple& t) {
    inserted.push_back(t);
    return true;
  });
  // Randomly delete a tenth.
  for (size_t i = 0; i < inserted.size() / 10; ++i)
    store.Erase(inserted[rng.NextUint(inserted.size())]);

  std::vector<Triple> all = store.Match(TriplePattern());
  for (int trial = 0; trial < 50; ++trial) {
    const Triple& probe = all[rng.NextUint(all.size())];
    TriplePattern pat;
    if (rng.NextFloat() < 0.5f) pat.s = probe.s;
    if (rng.NextFloat() < 0.5f) pat.p = probe.p;
    if (rng.NextFloat() < 0.5f) pat.o = probe.o;

    std::vector<Triple> got = store.Match(pat);
    std::vector<Triple> want;
    for (const Triple& t : all)
      if (pat.Matches(t)) want.push_back(t);
    auto key = [](const Triple& t) {
      return std::tuple(t.s, t.p, t.o);
    };
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(key(got[i]), key(want[i]));
    // Cardinality estimate never undercounts the true match size for
    // index-prefix patterns.
    EXPECT_GE(store.EstimateCardinality(pat) + 1, want.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TripleStorePropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(TripleStoreConcurrencyTest, ConcurrentReadersOnADirtyStoreStayExact) {
  // MVCC read path: several readers hitting a dirty store (hundreds of
  // uncompacted log entries) each open their own snapshot and merge the
  // delta over the shared immutable generation — no reader ever
  // rebuilds an index, and every count/estimate is exact. The first
  // snapshot of the epoch builds the shared DeltaView under mu_; the
  // rest reuse it (this test under the tsan preset pins the cache
  // handoff and the shared-generation refcounting).
  TripleStore store;
  tensor::Rng rng(77);
  size_t p0_expected = 0;
  for (int i = 0; i < 400; ++i) {
    const uint64_t p = rng.NextUint(4);
    if (store.InsertIris("s" + std::to_string(rng.NextUint(40)),
                         "p" + std::to_string(p),
                         "o" + std::to_string(rng.NextUint(50))) &&
        p == 0)
      ++p0_expected;
  }
  const TermId p0 = store.dict().FindIri("p0");
  const size_t total = store.size();
  ASSERT_NE(p0, kNullTermId);
  ASSERT_GT(store.GetStats().delta_ops, 0u) << "store should still be dirty";

  constexpr int kReaders = 8;
  std::vector<size_t> counts(kReaders, 0), estimates(kReaders, 0);
  {
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        Snapshot snap = store.OpenSnapshot();
        TriplePattern by_pred;
        by_pred.p = p0;
        counts[r] = snap.Count(by_pred);
        estimates[r] = snap.EstimateCardinality(TriplePattern());
      });
    }
    for (std::thread& t : readers) t.join();
  }
  for (int r = 0; r < kReaders; ++r) {
    EXPECT_EQ(counts[r], p0_expected) << "reader " << r;
    EXPECT_EQ(estimates[r], total) << "reader " << r;
  }
  // The reads left the store exactly as dirty as they found it.
  EXPECT_GT(store.GetStats().delta_ops, 0u);
}

// ------------------------------------------------------- MVCC snapshots --

TEST(TripleStoreSnapshotTest, SnapshotIsUnaffectedByLaterMutations) {
  TripleStore store;
  store.InsertIris("a", "p", "x");
  store.InsertIris("b", "p", "y");
  const Dictionary& d = store.dict();
  const Triple ax(d.FindIri("a"), d.FindIri("p"), d.FindIri("x"));

  Snapshot snap = store.OpenSnapshot();
  const uint64_t epoch = snap.epoch();
  const std::vector<Triple> before = snap.Match(TriplePattern());
  ASSERT_EQ(before.size(), 2u);

  // Mutate underneath: erase one, add two, then compact.
  EXPECT_TRUE(store.Erase(ax));
  store.InsertIris("c", "p", "z");
  store.InsertIris("a", "q", "w");
  EXPECT_EQ(snap.Match(TriplePattern()), before);
  store.Compact();
  EXPECT_EQ(snap.Match(TriplePattern()), before);
  EXPECT_EQ(snap.epoch(), epoch);
  EXPECT_EQ(snap.size(), 2u);
  EXPECT_TRUE(snap.Contains(ax));
  EXPECT_FALSE(store.Contains(ax));
  EXPECT_EQ(store.size(), 3u);
}

TEST(TripleStoreSnapshotTest, SnapshotOutlivesTheStore) {
  Snapshot snap;
  Triple t;
  {
    TripleStore store;
    for (int i = 0; i < 50; ++i)
      store.InsertIris("s" + std::to_string(i), "p", "o");
    const Dictionary& d = store.dict();
    t = Triple(d.FindIri("s7"), d.FindIri("p"), d.FindIri("o"));
    snap = store.OpenSnapshot();
  }  // store destroyed; the snapshot pins the generation and delta view
  EXPECT_EQ(snap.size(), 50u);
  EXPECT_TRUE(snap.Contains(t));
  EXPECT_EQ(snap.Match(TriplePattern()).size(), 50u);
}

TEST(TripleStoreSnapshotTest, EstimatesStayExactOnADirtyStore) {
  // The delta view keeps only *definite* entries (inserts the generation
  // lacks, tombstones for rows it has), so every range estimate is
  // exact even with a large uncompacted delta in play.
  TripleStore store;
  tensor::Rng rng(2024);
  for (int i = 0; i < 300; ++i)
    store.InsertIris("s" + std::to_string(rng.NextUint(25)),
                     "p" + std::to_string(rng.NextUint(4)),
                     "o" + std::to_string(rng.NextUint(30)));
  store.Compact();
  // Dirty it: erase some sealed rows, insert fresh ones, re-insert an
  // erased one (the log holds redundant + cancelling entries).
  std::vector<Triple> all = store.Match(TriplePattern());
  for (size_t i = 0; i < 40; ++i) store.Erase(all[rng.NextUint(all.size())]);
  for (int i = 0; i < 60; ++i)
    store.InsertIris("t" + std::to_string(rng.NextUint(20)),
                     "p" + std::to_string(rng.NextUint(4)),
                     "o" + std::to_string(rng.NextUint(30)));
  ASSERT_GT(store.GetStats().delta_ops, 0u);

  Snapshot snap = store.OpenSnapshot();
  EXPECT_EQ(snap.size(), snap.Match(TriplePattern()).size());
  tensor::Rng probe(2025);
  std::vector<Triple> live = snap.Match(TriplePattern());
  for (int trial = 0; trial < 60; ++trial) {
    const Triple& p = live[probe.NextUint(live.size())];
    TriplePattern pat;
    if (probe.NextFloat() < 0.5f) pat.s = p.s;
    if (probe.NextFloat() < 0.5f) pat.p = p.p;
    if (probe.NextFloat() < 0.5f) pat.o = p.o;
    const size_t want = snap.Count(pat);
    EXPECT_EQ(snap.EstimateCardinality(pat), want);
    EXPECT_EQ(snap.EstimateRange(snap.ChooseIndex(pat), pat), want);
  }
  // And compaction does not change what any reader sees.
  store.Compact();
  EXPECT_EQ(store.Match(TriplePattern()), live);
}

TEST(TripleStoreSnapshotTest, WriterTriggeredCompactionKeepsLogBounded) {
  TripleStore::Options opts;
  opts.delta_compact_threshold = 32;
  TripleStore store(opts);
  for (int i = 0; i < 500; ++i)
    store.InsertIris("s" + std::to_string(i), "p", "o" + std::to_string(i));
  const TripleStore::Stats stats = store.GetStats();
  EXPECT_GT(stats.compactions, 0u);
  // The trigger is max(32, generation/4), so the log stays within one
  // trigger window of the geometric bound.
  EXPECT_LE(stats.delta_ops, std::max<size_t>(32, stats.generation_triples / 4));
  EXPECT_EQ(store.size(), 500u);
}

// ------------------------------------------------------------- BulkLoad --

std::vector<Triple> Drain(TripleCursor c) {
  std::vector<Triple> out;
  Triple t;
  while (c.Next(&t)) out.push_back(t);
  return out;
}

/// What a bulk-loaded and a per-insert store must agree on: every
/// order's full stream, the size, and the compressed bytes per order.
/// Compacts both stores (the byte counts do).
void ExpectSameStore(const TripleStore& bulk, const TripleStore& plain) {
  ASSERT_EQ(bulk.size(), plain.size());
  for (int oi = 0; oi < kNumIndexOrders; ++oi) {
    const auto order = static_cast<IndexOrder>(oi);
    ASSERT_EQ(bulk.has_index(order), plain.has_index(order));
    if (!bulk.has_index(order)) continue;
    EXPECT_EQ(Drain(bulk.OpenCursor(order, TriplePattern())),
              Drain(plain.OpenCursor(order, TriplePattern())))
        << IndexOrderName(order);
  }
  EXPECT_EQ(bulk.TotalIndexBytes(), plain.TotalIndexBytes());
  for (int oi = 0; oi < kNumIndexOrders; ++oi) {
    const auto order = static_cast<IndexOrder>(oi);
    EXPECT_EQ(bulk.IndexBytes(order), plain.IndexBytes(order))
        << IndexOrderName(order);
  }
  EXPECT_EQ(bulk.GetStats().num_triples, plain.GetStats().num_triples);
}

class BulkLoadOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BulkLoadOracleTest, BulkLoadEqualsPerInsertLoad) {
  // The same mutation sequence, applied to one store under (randomly
  // nested) BulkLoad scopes and to another by plain Insert/Erase with a
  // small trigger, so the plain store compacts many times mid-load. The
  // small id universe makes duplicate inserts, erases of absent and
  // present triples, and erase-then-reinsert pairs all frequent.
  const uint64_t seed = GetParam();
  tensor::Rng rng(seed);
  TripleStore::Options opts;
  opts.delta_compact_threshold = 16;
  opts.block_size = 1 + static_cast<size_t>(seed % 5) * 7;
  if (seed % 3 == 0)
    opts.index_set = TripleStore::Options::IndexSet::kClassicTrio;
  TripleStore bulk(opts), plain(opts);
  auto random_triple = [&] {
    return Triple(static_cast<TermId>(1 + rng.NextUint(12)),
                  static_cast<TermId>(1 + rng.NextUint(3)),
                  static_cast<TermId>(1 + rng.NextUint(15)));
  };
  // Odd seeds load over an existing generation, even seeds into an
  // empty store.
  if (seed % 2 == 1) {
    for (int i = 0; i < 150; ++i) {
      const Triple t = random_triple();
      ASSERT_EQ(bulk.Insert(t), plain.Insert(t));
    }
    bulk.Compact();
    plain.Compact();
  }
  const uint64_t compactions_before = bulk.GetStats().compactions;

  std::vector<std::unique_ptr<TripleStore::BulkLoad>> scopes;
  scopes.push_back(std::make_unique<TripleStore::BulkLoad>(&bulk));
  const int kOps = 700;
  const int probe_at = static_cast<int>(rng.NextUint(kOps));
  for (int op = 0; op < kOps; ++op) {
    // Nested scopes open and close at random points of the load.
    const float r = rng.NextFloat();
    if (r < 0.02f && scopes.size() < 4)
      scopes.push_back(std::make_unique<TripleStore::BulkLoad>(&bulk));
    else if (r < 0.04f && scopes.size() > 1)
      scopes.pop_back();

    const Triple t = random_triple();
    const float kind = rng.NextFloat();
    if (kind < 0.65f) {
      ASSERT_EQ(bulk.Insert(t), plain.Insert(t)) << "op " << op;
    } else if (kind < 0.9f) {
      ASSERT_EQ(bulk.Erase(t), plain.Erase(t)) << "op " << op;
    } else {
      ASSERT_EQ(bulk.Erase(t), plain.Erase(t)) << "op " << op;
      ASSERT_TRUE(bulk.Insert(t));
      ASSERT_TRUE(plain.Insert(t));
    }
    if (op == probe_at) {
      // Mid-scope, a snapshot sees exactly the mutations so far.
      const Snapshot snap = bulk.OpenSnapshot();
      EXPECT_EQ(snap.Match(TriplePattern()), plain.Match(TriplePattern()));
      EXPECT_EQ(snap.size(), plain.size());
      for (TermId s = 1; s <= 12; ++s)
        for (TermId p = 1; p <= 3; ++p)
          for (TermId o = 1; o <= 15; ++o)
            ASSERT_EQ(snap.Contains(Triple(s, p, o)),
                      plain.Contains(Triple(s, p, o)));
    }
  }
  // No compaction while any scope is held.
  EXPECT_EQ(bulk.GetStats().compactions, compactions_before);
  EXPECT_GT(plain.GetStats().compactions, compactions_before + 1);
  scopes.clear();
  // Closing the outermost scope checked the trigger once.
  EXPECT_EQ(bulk.GetStats().compactions, compactions_before + 1);
  EXPECT_EQ(bulk.GetStats().delta_ops, 0u);
  ExpectSameStore(bulk, plain);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BulkLoadOracleTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(BulkLoadTest, SnapshotOpenedMidScopeSeesTheInsertsSoFar) {
  TripleStore::Options opts;
  opts.delta_compact_threshold = 8;
  TripleStore store(opts);
  TripleStore::BulkLoad scope(&store);
  std::vector<Triple> inserted;
  std::vector<Snapshot> snaps;
  for (TermId i = 1; i <= 60; ++i) {
    const Triple t(i % 7 + 1, i % 3 + 1, i);
    ASSERT_TRUE(store.Insert(t));
    inserted.push_back(t);
    if (i % 20 == 0) snaps.push_back(store.OpenSnapshot());
  }
  // Each snapshot holds exactly the first 20k inserts, in every order.
  for (size_t k = 0; k < snaps.size(); ++k) {
    std::vector<Triple> want(inserted.begin(),
                             inserted.begin() + 20 * (k + 1));
    std::sort(want.begin(), want.end());
    EXPECT_EQ(snaps[k].Match(TriplePattern()), want) << "snapshot " << k;
    EXPECT_EQ(snaps[k].size(), want.size());
    EXPECT_EQ(snaps[k].delta_size(), want.size());
    for (int oi = 0; oi < kNumIndexOrders; ++oi) {
      const auto order = static_cast<IndexOrder>(oi);
      EXPECT_EQ(Drain(snaps[k].OpenCursor(order, TriplePattern())).size(),
                want.size());
    }
  }
  EXPECT_EQ(store.GetStats().compactions, 0u);
}

TEST(BulkLoadTest, OneScopeCompactsOnce) {
  TripleStore::Options opts;
  opts.delta_compact_threshold = 64;
  const auto load = [](TripleStore* store) {
    for (TermId i = 1; i <= 3000; ++i)
      store->Insert(Triple(i, i % 5 + 1, i % 97 + 1));
  };
  TripleStore plain(opts);
  load(&plain);
  EXPECT_GT(plain.GetStats().compactions, 5u);

  TripleStore bulk(opts);
  {
    TripleStore::BulkLoad outer(&bulk);
    {
      TripleStore::BulkLoad inner(&bulk);
      load(&bulk);
    }
    // Closing a nested scope does not compact.
    EXPECT_EQ(bulk.GetStats().compactions, 0u);
    EXPECT_EQ(bulk.GetStats().delta_ops, 3000u);
  }
  EXPECT_EQ(bulk.GetStats().compactions, 1u);
  EXPECT_EQ(bulk.GetStats().generation_triples, 3000u);
  EXPECT_EQ(bulk.GetStats().delta_ops, 0u);

  // A load below the trigger leaves its batch in the log, as plain
  // inserts would.
  TripleStore small(opts);
  {
    TripleStore::BulkLoad scope(&small);
    for (TermId i = 1; i <= 10; ++i) small.Insert(Triple(i, 1, 1));
  }
  EXPECT_EQ(small.GetStats().compactions, 0u);
  EXPECT_EQ(small.GetStats().delta_ops, 10u);
  ExpectSameStore(bulk, plain);
}

// ------------------------------------------------------------- GetStats --

TEST(TripleStoreStatsTest, StatsReportStorageStateWithoutCompacting) {
  TripleStore store;
  tensor::Rng rng(11);
  for (int i = 0; i < 200; ++i)
    store.InsertIris("s" + std::to_string(rng.NextUint(30)),
                     "p" + std::to_string(rng.NextUint(5)),
                     "o" + std::to_string(rng.NextUint(40)));
  store.Compact();
  const size_t sealed = store.size();
  std::vector<Triple> all = store.Match(TriplePattern());
  ASSERT_TRUE(store.Erase(all[0]));
  ASSERT_TRUE(store.Erase(all[1]));
  store.InsertIris("fresh", "p0", "fresh");

  const TripleStore::Stats stats = store.GetStats();
  EXPECT_EQ(stats.num_triples, sealed - 2 + 1);
  EXPECT_EQ(stats.generation_triples, sealed);
  EXPECT_EQ(stats.delta_ops, 3u);
  EXPECT_EQ(stats.delta_inserts, 1u);
  EXPECT_EQ(stats.delta_tombstones, 2u);
  EXPECT_EQ(stats.epoch, stats.generation_epoch + 3);
  EXPECT_GE(stats.compactions, 1u);
  EXPECT_EQ(stats.live_generations, 1);
  size_t sum = 0;
  for (int oi = 0; oi < kNumIndexOrders; ++oi) {
    EXPECT_GT(stats.run_bytes[static_cast<size_t>(oi)], 0u);
    sum += stats.run_bytes[static_cast<size_t>(oi)];
  }
  EXPECT_EQ(stats.total_run_bytes, sum);
  // Taking stats was pure: the delta is still uncompacted.
  EXPECT_EQ(store.GetStats().delta_ops, 3u);

  // A pinned superseded generation shows up in live_generations until
  // the snapshot drops.
  {
    Snapshot pin = store.OpenSnapshot();
    store.Compact();
    EXPECT_EQ(store.GetStats().live_generations, 2);
  }
  EXPECT_EQ(store.GetStats().live_generations, 1);
  EXPECT_EQ(store.GetStats().delta_ops, 0u);
}

}  // namespace
}  // namespace kgnet::rdf
