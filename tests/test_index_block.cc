#include "rdf/index_block.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "tensor/rng.h"

namespace kgnet::rdf {
namespace {

std::vector<IndexKey> RandomSortedKeys(uint64_t seed, size_t n,
                                       uint32_t max_id) {
  tensor::Rng rng(seed);
  auto id = [&] { return static_cast<TermId>(1 + rng.NextUint(max_id)); };
  std::set<IndexKey> keys;
  while (keys.size() < n) keys.insert({id(), id(), id()});
  return {keys.begin(), keys.end()};
}

TEST(CompressedRunTest, EmptyRun) {
  CompressedRun run(8);
  EXPECT_EQ(run.size(), 0u);
  EXPECT_EQ(run.ByteSize(), 0u);
  auto [lo, hi] = run.PrefixRange(1, {5, 0, 0});
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 0u);
  RunCursor c = run.Cursor(0, 0);
  IndexKey k;
  EXPECT_FALSE(c.Next(&k));
}

TEST(CompressedRunTest, RoundTripAcrossBlockSizes) {
  const std::vector<IndexKey> keys = RandomSortedKeys(7, 500, 40);
  for (size_t bs : {1u, 2u, 3u, 7u, 64u, 128u, 1024u}) {
    CompressedRun run(bs);
    run.Assign(keys);
    ASSERT_EQ(run.size(), keys.size());
    std::vector<IndexKey> back;
    run.DecodeAll(&back);
    EXPECT_EQ(back, keys) << "block_size=" << bs;
  }
}

TEST(CompressedRunTest, CompressesSortedRuns) {
  // Clustered keys (the shape real permutation indexes have): compressed
  // bytes must land well under the 12 raw bytes per key.
  const std::vector<IndexKey> keys = RandomSortedKeys(11, 2000, 60);
  CompressedRun run;  // default block size
  run.Assign(keys);
  EXPECT_LT(run.ByteSize(), keys.size() * sizeof(IndexKey) / 2);
}

TEST(CompressedRunTest, MidRangeCursorStartsInsideABlock) {
  const std::vector<IndexKey> keys = RandomSortedKeys(3, 300, 50);
  CompressedRun run(16);
  run.Assign(keys);
  for (size_t lo : {0u, 1u, 15u, 16u, 17u, 250u, 299u, 300u}) {
    for (size_t hi : {lo, lo + 1, lo + 40, keys.size()}) {
      const size_t end = std::min(hi, keys.size());
      if (lo > end) continue;
      RunCursor c = run.Cursor(lo, end);
      EXPECT_EQ(c.remaining(), end - lo);
      IndexKey k;
      size_t i = lo;
      while (c.Next(&k)) {
        ASSERT_LT(i, end);
        EXPECT_EQ(k, keys[i]) << "lo=" << lo << " i=" << i;
        ++i;
      }
      EXPECT_EQ(i, end);
    }
  }
}

/// PrefixRange must agree with std::equal_range over the decoded keys
/// for every prefix length, including prefixes that match nothing.
TEST(CompressedRunTest, PrefixRangeMatchesFlatEqualRange) {
  const std::vector<IndexKey> keys = RandomSortedKeys(21, 400, 12);
  for (size_t bs : {1u, 5u, 32u, 4096u}) {
    CompressedRun run(bs);
    run.Assign(keys);
    tensor::Rng rng(99);
    auto id = [&] { return static_cast<TermId>(1 + rng.NextUint(14)); };
    for (int trial = 0; trial < 200; ++trial) {
      IndexKey probe = {id(), id(), id()};
      for (int plen = 0; plen <= 3; ++plen) {
        auto [lo, hi] = run.PrefixRange(plen, probe);
        auto pred = [&](const IndexKey& k) {
          for (int i = 0; i < plen; ++i) {
            if (k[static_cast<size_t>(i)] != probe[static_cast<size_t>(i)])
              return k[static_cast<size_t>(i)] < probe[static_cast<size_t>(i)];
          }
          return false;  // equal prefix: neither less
        };
        const size_t want_lo = static_cast<size_t>(
            std::partition_point(keys.begin(), keys.end(), pred) -
            keys.begin());
        size_t want_hi = want_lo;
        while (want_hi < keys.size() &&
               std::equal(keys[want_hi].begin(),
                          keys[want_hi].begin() + plen, probe.begin()))
          ++want_hi;
        EXPECT_EQ(lo, want_lo) << "bs=" << bs << " plen=" << plen;
        EXPECT_EQ(hi, want_hi) << "bs=" << bs << " plen=" << plen;
      }
    }
  }
}

TEST(CompressedRunTest, SkipTableBoundsDecodeWork) {
  // A prefix lookup on a large run must not decode the whole run; this
  // pins the skip-table contract indirectly by checking exactness on a
  // run big enough that full decodes would dominate the suite's runtime
  // if every one of these lookups were O(n).
  const std::vector<IndexKey> keys = RandomSortedKeys(5, 20000, 300);
  CompressedRun run(64);
  run.Assign(keys);
  for (const IndexKey& probe : keys) {
    auto [lo, hi] = run.PrefixRange(3, probe);
    ASSERT_EQ(hi - lo, 1u);
  }
}

/// Seek's cursor must yield exactly PrefixRange's rows, which must be
/// the flat std::equal_range rows, for every prefix length. Probes come
/// from the run itself (hits, with ranges starting on and inside blocks
/// and spanning several), from its gaps (empty ranges) and from past
/// both ends. The keys run once with small ids and once stretched by a
/// constant factor, so gaps and full values also take multi-byte varints.
TEST(CompressedRunTest, SeekYieldsExactlyThePrefixRangeRows) {
  for (TermId scale : {1u, 300007u}) {
    std::vector<IndexKey> keys = RandomSortedKeys(31, 700, 9);
    std::vector<IndexKey> probes(keys.begin(), keys.end());
    probes.push_back({0, 0, 0});     // before the first key
    probes.push_back({10, 10, 10});  // past the last key
    probes.push_back({4, 0, 0});     // inside the run, matching no triple
    for (auto* set : {&keys, &probes})
      for (IndexKey& k : *set)
        for (TermId& id : k) id *= scale;
    for (size_t bs : {1u, 2u, 3u, 128u}) {
      CompressedRun run(bs);
      run.Assign(keys);
      size_t block_starts = 0, spanning = 0, empty = 0;
      for (const IndexKey& probe : probes) {
        for (int plen = 0; plen <= 3; ++plen) {
          std::vector<IndexKey> want;
          size_t want_lo = keys.size();
          for (size_t i = 0; i < keys.size(); ++i) {
            if (std::equal(keys[i].begin(), keys[i].begin() + plen,
                           probe.begin())) {
              if (want.empty()) want_lo = i;
              want.push_back(keys[i]);
            }
          }
          const auto [lo, hi] = run.PrefixRange(plen, probe);
          RunCursor c = run.Seek(plen, probe);
          ASSERT_EQ(c.remaining(), hi - lo) << "bs=" << bs << " plen=" << plen;
          ASSERT_EQ(hi - lo, want.size()) << "bs=" << bs << " plen=" << plen;
          if (!want.empty()) {
            ASSERT_EQ(lo, want_lo);
          }
          std::vector<IndexKey> got;
          IndexKey k;
          while (c.Next(&k)) got.push_back(k);
          ASSERT_EQ(got, want) << "bs=" << bs << " plen=" << plen;
          // A primed cursor decodes only the rows it yields.
          EXPECT_EQ(c.walked(), want.size()) << "bs=" << bs;
          if (want.empty()) ++empty;
          if (!want.empty() && lo % bs == 0) ++block_starts;
          if (!want.empty() && lo / bs != (hi - 1) / bs) ++spanning;
        }
      }
      EXPECT_GT(block_starts, 0u) << "bs=" << bs;
      EXPECT_GT(spanning, 0u) << "bs=" << bs;
      EXPECT_GT(empty, 0u) << "bs=" << bs;
    }
  }
}

// The old path opened an unprimed cursor at PrefixRange's lo; such a
// cursor decodes its block from the start, and walked() says so.
TEST(CompressedRunTest, UnprimedMidBlockCursorCountsItsWalk) {
  const std::vector<IndexKey> keys = RandomSortedKeys(3, 300, 50);
  CompressedRun run(16);
  run.Assign(keys);
  RunCursor c = run.Cursor(21, 23);
  IndexKey k;
  ASSERT_TRUE(c.Next(&k));
  EXPECT_EQ(k, keys[21]);
  EXPECT_EQ(c.walked(), 6u);  // rows 16..21 of the second block
  ASSERT_TRUE(c.Next(&k));
  EXPECT_EQ(c.walked(), 7u);
  EXPECT_FALSE(c.Next(&k));
}

}  // namespace
}  // namespace kgnet::rdf
