/// Concurrency stress suite for the MVCC storage layer: N snapshot
/// readers racing one mutating writer and running compactions, with
/// bitwise snapshot-isolation checks throughout. CI runs this file
/// under ThreadSanitizer at 1, 2 and 4 pool threads (the tsan preset +
/// KGNET_NUM_THREADS); the assertions themselves are valid under any
/// interleaving.
///
/// Contract exercised (docs/STORAGE.md): one mutating writer, any
/// number of snapshot readers, concurrent Compact() calls. Dictionary
/// interning is writer-role work, so the whole term universe is
/// interned up front and the racing threads touch encoded ids only.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "rdf/triple_store.h"
#include "tensor/rng.h"

namespace kgnet::rdf {
namespace {

/// Pre-interns a term universe and returns every (s, p, o) combination
/// as an encoded triple. Nothing after this touches the dictionary.
std::vector<Triple> BuildUniverse(TripleStore* store, uint64_t n_s,
                                  uint64_t n_p, uint64_t n_o) {
  Dictionary* dict = &store->dict();
  std::vector<TermId> s_ids, p_ids, o_ids;
  for (uint64_t i = 0; i < n_s; ++i)
    s_ids.push_back(dict->InternIri("s" + std::to_string(i)));
  for (uint64_t i = 0; i < n_p; ++i)
    p_ids.push_back(dict->InternIri("p" + std::to_string(i)));
  for (uint64_t i = 0; i < n_o; ++i)
    o_ids.push_back(dict->InternIri("o" + std::to_string(i)));
  std::vector<Triple> universe;
  universe.reserve(n_s * n_p * n_o);
  for (TermId s : s_ids)
    for (TermId p : p_ids)
      for (TermId o : o_ids) universe.emplace_back(s, p, o);
  return universe;
}

/// One writer mutating + explicitly compacting, `n_readers` readers
/// verifying bitwise snapshot isolation, one dedicated compactor
/// thread. Returns nothing — failures surface as gtest assertions.
void RunStress(int n_readers) {
  TripleStore::Options opts;
  opts.delta_compact_threshold = 64;  // force frequent auto-compactions
  TripleStore store(opts);
  const std::vector<Triple> universe = BuildUniverse(&store, 12, 3, 10);

  // Seed a third of the universe so erases hit from the start.
  tensor::Rng seed_rng(1);
  std::vector<bool> present(universe.size(), false);
  for (size_t i = 0; i < universe.size() / 3; ++i) {
    const size_t k = seed_rng.NextUint(universe.size());
    if (store.Insert(universe[k])) present[k] = true;
  }
  store.Compact();

  std::atomic<bool> writer_done{false};
  constexpr int kWriterOps = 4000;

  std::thread writer([&] {
    tensor::Rng rng(2);
    for (int op = 0; op < kWriterOps; ++op) {
      const size_t k = rng.NextUint(universe.size());
      if (present[k]) {
        EXPECT_TRUE(store.Erase(universe[k])) << "op " << op;
        present[k] = false;
      } else {
        EXPECT_TRUE(store.Insert(universe[k])) << "op " << op;
        present[k] = true;
      }
      if (op % 512 == 511) store.Compact();
    }
    writer_done.store(true, std::memory_order_release);
  });

  std::thread compactor([&] {
    while (!writer_done.load(std::memory_order_acquire)) store.Compact();
  });

  std::vector<std::thread> readers;
  readers.reserve(static_cast<size_t>(n_readers));
  for (int r = 0; r < n_readers; ++r) {
    readers.emplace_back([&, r] {
      tensor::Rng rng(100 + static_cast<uint64_t>(r));
      uint64_t last_epoch = 0;
      while (!writer_done.load(std::memory_order_acquire)) {
        Snapshot snap = store.OpenSnapshot();
        // Epochs only move forward.
        EXPECT_GE(snap.epoch(), last_epoch);
        last_epoch = snap.epoch();

        // Bitwise isolation: the same snapshot materializes the same
        // rows no matter how much the writer/compactor churn between
        // the two reads.
        const std::vector<Triple> first = snap.Match(TriplePattern());
        EXPECT_EQ(first.size(), snap.size());
        const std::vector<Triple> again = snap.Match(TriplePattern());
        EXPECT_EQ(first, again);

        // Counts, estimates and cursors agree with the materialization
        // inside one snapshot — exactness holds on dirty ranges too.
        const Triple& probe = universe[rng.NextUint(universe.size())];
        TriplePattern pat;
        if (rng.NextFloat() < 0.6f) pat.p = probe.p;
        if (rng.NextFloat() < 0.4f) pat.s = probe.s;
        size_t want = 0;
        for (const Triple& t : first)
          if (pat.Matches(t)) ++want;
        EXPECT_EQ(snap.Count(pat), want);
        EXPECT_EQ(snap.EstimateCardinality(pat), want);
        TripleCursor c = snap.OpenCursor(snap.ChooseIndex(pat), pat);
        size_t streamed = 0;
        Triple row;
        while (c.Next(&row)) ++streamed;
        EXPECT_EQ(streamed, want);
      }
    });
  }

  writer.join();
  compactor.join();
  for (std::thread& t : readers) t.join();

  // Post-race: the store converged to the writer's serial model.
  store.Compact();
  size_t want_size = 0;
  for (size_t k = 0; k < universe.size(); ++k) {
    EXPECT_EQ(store.Contains(universe[k]), static_cast<bool>(present[k]));
    if (present[k]) ++want_size;
  }
  EXPECT_EQ(store.size(), want_size);
  // Every superseded generation was reclaimed once its snapshots died.
  EXPECT_EQ(store.GetStats().live_generations, 1);
}

TEST(SnapshotStressTest, OneReaderVsWriterAndCompaction) { RunStress(1); }
TEST(SnapshotStressTest, TwoReadersVsWriterAndCompaction) { RunStress(2); }
TEST(SnapshotStressTest, FourReadersVsWriterAndCompaction) { RunStress(4); }

TEST(SnapshotStressTest, ReaderRacesBulkLoads) {
  // The writer alternates two bulk loads per round — one inserting every
  // missing triple, one erasing a random half — and each scope's close
  // runs the load's one compaction while a reader keeps opening
  // snapshots of the growing log and of the swapped generations.
  TripleStore::Options opts;
  opts.delta_compact_threshold = 64;
  TripleStore store(opts);
  const std::vector<Triple> universe = BuildUniverse(&store, 12, 3, 10);
  std::vector<bool> present(universe.size(), false);

  std::atomic<bool> reader_started{false};
  std::atomic<bool> writer_done{false};
  std::thread reader([&] {
    uint64_t last_epoch = 0;
    do {
      reader_started.store(true, std::memory_order_release);
      Snapshot snap = store.OpenSnapshot();
      EXPECT_GE(snap.epoch(), last_epoch);
      last_epoch = snap.epoch();
      const std::vector<Triple> rows = snap.Match(TriplePattern());
      EXPECT_EQ(rows.size(), snap.size());
      EXPECT_LE(rows.size(), universe.size());
      for (int oi = 0; oi < kNumIndexOrders; ++oi) {
        TripleCursor c =
            snap.OpenCursor(static_cast<IndexOrder>(oi), TriplePattern());
        size_t streamed = 0;
        Triple t;
        while (c.Next(&t)) ++streamed;
        EXPECT_EQ(streamed, rows.size()) << "order " << oi;
      }
      EXPECT_EQ(snap.Match(TriplePattern()), rows);
    } while (!writer_done.load(std::memory_order_acquire));
  });
  while (!reader_started.load(std::memory_order_acquire)) {
  }

  tensor::Rng rng(7);
  constexpr int kRounds = 6;
  for (int round = 0; round < kRounds; ++round) {
    {
      TripleStore::BulkLoad load(&store);
      for (size_t k = 0; k < universe.size(); ++k) {
        if (present[k]) continue;
        EXPECT_TRUE(store.Insert(universe[k]));
        present[k] = true;
      }
    }
    {
      TripleStore::BulkLoad load(&store);
      for (size_t k = 0; k < universe.size(); ++k) {
        if (rng.NextFloat() < 0.5f) continue;
        EXPECT_TRUE(store.Erase(universe[k]));
        present[k] = false;
      }
    }
  }
  writer_done.store(true, std::memory_order_release);
  reader.join();

  // Each of the 2 x kRounds scopes compacted exactly once.
  EXPECT_EQ(store.GetStats().compactions, 2u * kRounds);
  EXPECT_EQ(store.GetStats().delta_ops, 0u);
  for (size_t k = 0; k < universe.size(); ++k)
    EXPECT_EQ(store.Contains(universe[k]), static_cast<bool>(present[k]));
  EXPECT_EQ(store.GetStats().live_generations, 1);
}

TEST(SnapshotStressTest, PinnedSnapshotSurvivesManyCompactionCycles) {
  // One long-lived snapshot held across many generation swaps must stay
  // bitwise identical and keep exactly one superseded generation alive.
  TripleStore::Options opts;
  opts.delta_compact_threshold = 16;
  TripleStore store(opts);
  const std::vector<Triple> universe = BuildUniverse(&store, 8, 2, 8);
  tensor::Rng rng(3);
  for (size_t i = 0; i < universe.size() / 2; ++i)
    store.Insert(universe[rng.NextUint(universe.size())]);
  store.Compact();

  Snapshot pinned = store.OpenSnapshot();
  const std::vector<Triple> frozen = pinned.Match(TriplePattern());
  const uint64_t gens_before = store.GetStats().compactions;
  for (int round = 0; round < 8; ++round) {
    for (int op = 0; op < 40; ++op) {
      const size_t k = rng.NextUint(universe.size());
      if (store.Contains(universe[k]))
        store.Erase(universe[k]);
      else
        store.Insert(universe[k]);
    }
    store.Compact();
    EXPECT_EQ(pinned.Match(TriplePattern()), frozen) << "round " << round;
  }
  EXPECT_GT(store.GetStats().compactions, gens_before);
  // The pinned snapshot holds the one superseded generation; the store
  // holds the live one.
  EXPECT_EQ(store.GetStats().live_generations, 2);
  pinned = Snapshot();  // drop the pin
  EXPECT_EQ(store.GetStats().live_generations, 1);
}

}  // namespace
}  // namespace kgnet::rdf
