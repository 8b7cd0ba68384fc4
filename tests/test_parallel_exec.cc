// Targeted tests for the morsel-driven parallel executor: the serial
// latch, the bitwise-identical-output contract of the parallel
// IndexScan / SortMergeJoin paths (and of the serial HashJoin above
// them), LIMIT short-circuiting through the wave ramp and the hash
// join, and the EXPLAIN annotation. The
// randomized differential coverage lives in test_exec_oracle.cc; this
// file pins the operator-level mechanics on hand-built graphs large
// enough to engage the parallel paths for real.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "rdf/term.h"
#include "rdf/triple_store.h"
#include "sparql/engine.h"
#include "sparql/exec.h"
#include "sparql/parser.h"
#include "tests/parallel_test_util.h"

namespace kgnet::sparql {
namespace {

using kgnet::testing::ThreadCountGuard;
using rdf::Term;

/// Saves/restores the process-wide MorselConfig around a test.
class MorselConfigGuard {
 public:
  MorselConfigGuard() : saved_(GetMorselConfig()) {}
  ~MorselConfigGuard() { GetMorselConfig() = saved_; }
  MorselConfigGuard(const MorselConfigGuard&) = delete;
  MorselConfigGuard& operator=(const MorselConfigGuard&) = delete;

 private:
  MorselConfig saved_;
};

/// A bipartite graph big enough to clear the default parallel
/// thresholds: kFanOut objects per subject under <p>, plus a <rank>
/// attribute per subject for join/filter shapes.
void FillStore(rdf::TripleStore* store, int subjects, int fan_out) {
  for (int s = 0; s < subjects; ++s) {
    const std::string subj = "s" + std::to_string(s);
    for (int o = 0; o < fan_out; ++o)
      store->InsertIris(subj, "p", "o" + std::to_string((s * 7 + o) % 97));
    store->InsertIris(subj, "rank", "r" + std::to_string(s % 5));
  }
}

std::vector<std::vector<Term>> RunRows(QueryEngine* engine,
                                       const std::string& query) {
  auto r = engine->ExecuteString(query);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ok() ? r->rows : std::vector<std::vector<Term>>{};
}

// The serial latch: with one configured thread and force_parallel off,
// even a huge range takes the serial cursor path (wave state untouched),
// so single-threaded deployments pay zero overhead and keep byte-stable
// ExecInfo counters.
TEST(ParallelExecTest, OneThreadTakesSerialPathByDefault) {
  ThreadCountGuard guard;
  common::ThreadPool::SetNumThreads(1);
  rdf::TripleStore store;
  FillStore(&store, 200, 30);  // 6200 triples > scan_min_parallel_rows

  QueryEngine engine(&store);
  auto q = ParseQuery("SELECT * WHERE { ?s <p> ?o . } LIMIT 5");
  ASSERT_TRUE(q.ok()) << q.status();
  ExecInfo info;
  auto r = engine.Execute(*q, &info);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->NumRows(), 5u);
  // Serial pull-based scan: exactly LIMIT rows leave the cursor.
  EXPECT_EQ(info.rows_scanned, 5u);
}

// The core contract: the parallel scan emits the exact serial row
// stream — same rows, same order — at any thread count.
TEST(ParallelExecTest, MorselScanMatchesSerialOrderAtAnyThreadCount) {
  ThreadCountGuard guard;
  MorselConfigGuard cfg_guard;
  rdf::TripleStore store;
  FillStore(&store, 120, 25);
  QueryEngine engine(&store);
  const std::string query =
      "SELECT * WHERE { ?s <p> ?o . ?s <rank> ?r . }";

  common::ThreadPool::SetNumThreads(1);
  const auto serial = RunRows(&engine, query);
  ASSERT_FALSE(serial.empty());

  MorselConfig& cfg = GetMorselConfig();
  cfg.scan_min_parallel_rows = 8;
  cfg.scan_morsel_rows = 64;
  cfg.smj_min_parallel_group = 4;
  cfg.force_parallel = true;
  for (int threads : {1, 2, 4}) {
    common::ThreadPool::SetNumThreads(threads);
    EXPECT_TRUE(RunRows(&engine, query) == serial)
        << "diverged at " << threads << " threads";
  }
}

// LIMIT must keep short-circuiting through the parallel scan: the wave
// ramp (1, 2, 4, ... morsels) bounds decode-ahead, so a LIMIT consuming
// a handful of rows scans a handful of morsels, not the whole range.
TEST(ParallelExecTest, LimitShortCircuitsParallelScan) {
  ThreadCountGuard guard;
  MorselConfigGuard cfg_guard;
  common::ThreadPool::SetNumThreads(4);
  rdf::TripleStore store;
  FillStore(&store, 300, 30);  // ~9300 triples
  const size_t total = store.size();

  MorselConfig& cfg = GetMorselConfig();
  cfg.scan_min_parallel_rows = 8;
  cfg.scan_morsel_rows = 16;
  cfg.scan_max_wave_morsels = 4;
  cfg.force_parallel = true;

  QueryEngine engine(&store);
  auto q = ParseQuery("SELECT * WHERE { ?s <p> ?o . } LIMIT 3");
  ASSERT_TRUE(q.ok()) << q.status();
  ExecInfo info;
  auto r = engine.Execute(*q, &info);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->NumRows(), 3u);
  // One 16-row wave already covers LIMIT 3; allow the ramp a little
  // slack but require a hard stop far below the full range.
  EXPECT_LE(info.rows_scanned, 64u);
  EXPECT_LT(info.rows_scanned, total / 10);
}

// LIMIT through a hash join over parallel scans stops *both* inputs:
// the join pulls one row at a time, alternating sides, so a LIMIT
// needing few matches pulls a bounded number of rows from each side.
// The classic
// trio lacks a cheap scan ordered on a *subject*-position join variable
// under a bound predicate, so `?o <p2> ?b` forces the planner off the
// merge join and onto the hash join.
TEST(ParallelExecTest, LimitShortCircuitsParallelHashJoin) {
  ThreadCountGuard guard;
  MorselConfigGuard cfg_guard;
  common::ThreadPool::SetNumThreads(4);
  rdf::TripleStore::Options sopts;
  sopts.index_set = rdf::TripleStore::Options::IndexSet::kClassicTrio;
  rdf::TripleStore store(sopts);
  for (int i = 0; i < 2000; ++i) {
    store.InsertIris("a" + std::to_string(i), "p1",
                     "o" + std::to_string(i % 50));
    store.InsertIris("o" + std::to_string(i % 50), "p2",
                     "b" + std::to_string(i));
  }
  const size_t total = store.size();

  MorselConfig& cfg = GetMorselConfig();
  cfg.scan_min_parallel_rows = 8;
  cfg.scan_morsel_rows = 16;
  cfg.force_parallel = true;

  QueryEngine engine(&store);
  const std::string query =
      "SELECT * WHERE { ?a <p1> ?o . ?o <p2> ?b . } LIMIT 4";
  auto plan = engine.ExplainString(query);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_NE(plan->find("HashJoin"), std::string::npos) << *plan;
  auto q = ParseQuery(query);
  ASSERT_TRUE(q.ok()) << q.status();
  ExecInfo info;
  auto r = engine.Execute(*q, &info);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->NumRows(), 4u);
  EXPECT_LT(info.rows_scanned, total / 4);
}

// The hash join over parallel scans and the chunked merge-join group
// emission reproduce the serial stream exactly, across thread counts.
TEST(ParallelExecTest, ParallelJoinsMatchSerialOrder) {
  ThreadCountGuard guard;
  MorselConfigGuard cfg_guard;
  // Hash shape: trio store + subject-position join variable (see above).
  rdf::TripleStore::Options trio;
  trio.index_set = rdf::TripleStore::Options::IndexSet::kClassicTrio;
  rdf::TripleStore hash_store(trio);
  // Merge shape: full permutations, both sides stream ordered on ?o.
  rdf::TripleStore merge_store;
  for (int i = 0; i < 200; ++i) {
    hash_store.InsertIris("a" + std::to_string(i), "p1",
                          "o" + std::to_string(i % 23));
    hash_store.InsertIris("o" + std::to_string(i % 23), "p2",
                          "b" + std::to_string(i));
    merge_store.InsertIris("a" + std::to_string(i), "p1",
                           "o" + std::to_string(i % 23));
    merge_store.InsertIris("c" + std::to_string(i), "p2",
                           "o" + std::to_string(i % 23));
  }
  struct Shape {
    rdf::TripleStore* store;
    std::string query;
    const char* join;
  };
  const Shape shapes[] = {
      {&hash_store, "SELECT * WHERE { ?a <p1> ?o . ?o <p2> ?b . }",
       "HashJoin"},
      {&merge_store, "SELECT * WHERE { ?a <p1> ?o . ?c <p2> ?o . }",
       "MergeJoin"},
  };
  for (const Shape& shape : shapes) {
    QueryEngine engine(shape.store);
    auto plan = engine.ExplainString(shape.query);
    ASSERT_TRUE(plan.ok()) << plan.status();
    ASSERT_NE(plan->find(shape.join), std::string::npos) << *plan;

    common::ThreadPool::SetNumThreads(1);
    GetMorselConfig() = MorselConfig{};
    const auto serial = RunRows(&engine, shape.query);
    ASSERT_FALSE(serial.empty()) << shape.query;

    MorselConfig& cfg = GetMorselConfig();
    cfg.scan_min_parallel_rows = 8;
    cfg.scan_morsel_rows = 32;
    cfg.smj_min_parallel_group = 4;
    cfg.force_parallel = true;
    for (int threads : {1, 2, 4}) {
      common::ThreadPool::SetNumThreads(threads);
      EXPECT_TRUE(RunRows(&engine, shape.query) == serial)
          << shape.query << "\ndiverged at " << threads << " threads";
    }
  }
}

// EXPLAIN marks fixed-order scans whose planned range clears the
// parallel threshold — and only those.
TEST(ParallelExecTest, ExplainMarksParallelEligibleScans) {
  ThreadCountGuard guard;
  MorselConfigGuard cfg_guard;
  rdf::TripleStore store;
  FillStore(&store, 200, 30);
  QueryEngine engine(&store);
  const std::string big = "SELECT * WHERE { ?s <p> ?o . }";      // 6000 rows
  const std::string small = "SELECT * WHERE { ?s <rank> ?r . }";  // 200 rows

  // Serial configuration: no marker even on the big scan.
  common::ThreadPool::SetNumThreads(1);
  auto plain = engine.ExplainString(big);
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_EQ(plain->find("[parallel]"), std::string::npos) << *plain;

  // Wide pool: the 6000-row scan qualifies, the 200-row one does not.
  common::ThreadPool::SetNumThreads(4);
  GetMorselConfig().scan_min_parallel_rows = 1024;
  auto wide = engine.ExplainString(big);
  ASSERT_TRUE(wide.ok()) << wide.status();
  EXPECT_NE(wide->find("[parallel]"), std::string::npos) << *wide;
  auto narrow = engine.ExplainString(small);
  ASSERT_TRUE(narrow.ok()) << narrow.status();
  EXPECT_EQ(narrow->find("[parallel]"), std::string::npos) << *narrow;
}

// Degenerate knob values must not crash or change results: zero morsel
// rows, a one-morsel wave, one-row merge groups.
TEST(ParallelExecTest, DegenerateConfigValuesStaySafe) {
  ThreadCountGuard guard;
  MorselConfigGuard cfg_guard;
  common::ThreadPool::SetNumThreads(4);
  rdf::TripleStore store;
  FillStore(&store, 60, 10);
  QueryEngine engine(&store);
  const std::string query = "SELECT * WHERE { ?s <p> ?o . ?s <rank> ?r . }";

  common::ThreadPool::SetNumThreads(1);
  const auto serial = RunRows(&engine, query);

  MorselConfig& cfg = GetMorselConfig();
  cfg.scan_morsel_rows = 0;       // clamped to 1
  cfg.scan_min_parallel_rows = 0;
  cfg.scan_max_wave_morsels = 1;  // smallest legal ramp
  cfg.smj_min_parallel_group = 1;
  cfg.force_parallel = true;
  common::ThreadPool::SetNumThreads(4);
  EXPECT_TRUE(RunRows(&engine, query) == serial);
}

}  // namespace
}  // namespace kgnet::sparql
