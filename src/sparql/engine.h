// Query engine: executes parsed queries against a TripleStore.
#ifndef KGNET_SPARQL_ENGINE_H_
#define KGNET_SPARQL_ENGINE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"
#include "rdf/triple_store.h"
#include "sparql/ast.h"
#include "sparql/udf_registry.h"

namespace kgnet::sparql {

/// The materialized answer of a query.
struct QueryResult {
  /// Projected column names (without '?').
  std::vector<std::string> columns;
  /// One row per solution; decoded terms, aligned with `columns`.
  std::vector<std::vector<rdf::Term>> rows;
  /// For ASK queries.
  bool ask_result = false;
  /// For updates: triples added / removed.
  size_t num_inserted = 0;
  size_t num_deleted = 0;

  size_t NumRows() const { return rows.size(); }

  /// Index of a column or -1.
  int ColumnIndex(std::string_view name) const;

  /// Renders an aligned table (tests / examples).
  std::string ToTable() const;
};

/// Per-query execution report: the EXPLAIN-style plan plus runtime
/// counters (tests assert that LIMIT short-circuits rows_scanned).
struct ExecInfo {
  /// Rendered operator tree of the WHERE clause (UNION/OPTIONAL
  /// included) that the query drained. Empty for INSERT DATA, which has
  /// no WHERE clause.
  std::string plan;
  /// Matching triples pulled out of index cursors across the whole query.
  size_t rows_scanned = 0;
  /// Index rows those cursors consumed: every matching row plus the rows
  /// the pattern filter dropped (a bound position outside the seekable
  /// prefix) and any rows a cursor decoded only to reach its first row.
  /// rows_walked >> rows_scanned means scans filter instead of seeking.
  /// The skip-table seek that positions a cursor is not counted.
  size_t rows_walked = 0;
  /// The storage epoch the query's snapshot observed and the number of
  /// uncompacted delta entries it merged over the run generation (see
  /// rdf::Snapshot) — every read in the query saw exactly this epoch.
  uint64_t snapshot_epoch = 0;
  size_t snapshot_delta = 0;
  /// Cancellation polls performed during execution (0 when the caller
  /// supplied no token). Tests assert that long scans poll often enough
  /// for a deadline to bite mid-query (docs/RESILIENCE.md).
  uint64_t cancel_checks = 0;
};

/// Executes SPARQL queries against a single TripleStore.
///
/// Basic graph patterns are compiled by a cost-based planner into a
/// streaming operator tree (IndexScan over the six sorted permutation
/// indexes, SortMergeJoin when both inputs stream in the same
/// shared-variable order, BindJoin for selective outers, a lazily-built
/// symmetric HashJoin as the fallback). FILTERs apply at the lowest
/// operator where every variable they mention is bound. Every query kind
/// drains that one tree — UNION and OPTIONAL groups included, via UnionAll
/// and LeftOuterJoin operators. SELECT/ASK results stream, so LIMIT
/// queries stop scanning early; INSERT/DELETE WHERE collect the whole
/// solution set before they touch the store.
///
/// Single-triple-pattern SELECT/ASK queries (no FILTER/UNION/OPTIONAL/
/// sub-SELECT) skip the operator tree entirely and answer from one
/// index cursor — planning such a query costs more than running it.
/// Pass an ExecInfo to see (and execute) the full planned tree instead.
class QueryEngine {
 public:
  explicit QueryEngine(rdf::TripleStore* store) : store_(store) {}

  /// Parses and executes `text`.
  Result<QueryResult> ExecuteString(std::string_view text);

  /// Executes an already-parsed query against a snapshot opened at call
  /// time. `info`, when non-null, receives the chosen plan and runtime
  /// counters.
  Result<QueryResult> Execute(const Query& query, ExecInfo* info = nullptr);

  /// Executes an already-parsed query against an explicit storage
  /// snapshot — all reads (planner estimates, scans, sub-SELECTs) see
  /// that epoch even if the store has mutated since it was opened.
  /// Updates (INSERT/DELETE) still apply to the live store. `cancel`,
  /// when valid, is polled per pulled row: a tripped token aborts the
  /// query with Cancelled/DeadlineExceeded instead of finishing the
  /// scan (the serving layer's deadline/drain path).
  Result<QueryResult> Execute(const Query& query, const rdf::Snapshot& snapshot,
                              ExecInfo* info = nullptr,
                              common::CancelToken cancel = {});

  /// Renders the physical plan the streaming executor would use for the
  /// WHERE clause of `query` (plus Project/Limit wrappers for SELECT)
  /// without executing it — the plain-SPARQL analogue of EXPLAIN.
  Result<std::string> Explain(const Query& query);

  /// Parses `text` and renders its plan.
  Result<std::string> ExplainString(std::string_view text);

  /// Estimated number of solutions of the WHERE clause of `query`
  /// (product of per-pattern estimates after greedy ordering; an upper
  /// bound used by the SPARQL-ML optimizer).
  size_t EstimateWhereCardinality(const Query& query) const;

  UdfRegistry& udfs() { return udfs_; }
  rdf::TripleStore* store() { return store_; }

 private:
  rdf::TripleStore* store_;
  UdfRegistry udfs_;
};

}  // namespace kgnet::sparql

#endif  // KGNET_SPARQL_ENGINE_H_
