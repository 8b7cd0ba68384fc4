// Cost-based physical planning for basic graph patterns.
//
// For every triple pattern the planner enumerates all six permutation-
// index scans (cost = index range size, output order = the first free key
// position after the bound prefix), then greedily builds a left-deep join
// tree. Equal-cost scans prefer streaming in join-variable order, so a
// subject-position join variable under an unbound predicate rides the PSO
// index instead of forcing a full SPO scan. At each step the planner
// joins the cheapest remaining pattern using the cheapest applicable
// algorithm:
//
//   SortMergeJoin  when the running plan and one of the pattern's scans
//                  stream in the same shared-variable order,
//   BindJoin       (index nested-loop, seeking the inner index once per
//                  outer row) when the running plan is small,
//   HashJoin       as the general fallback (symmetric, lazily built, so
//                  its output is unordered); with no shared variables it
//                  degenerates to a cross product.
//
// FILTER expressions attach at the lowest operator where all of their
// variables are bound. Plan::ToString() renders the chosen tree, which is
// what QueryEngine::Explain() surfaces and tests assert on.
#ifndef KGNET_SPARQL_PLAN_H_
#define KGNET_SPARQL_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "sparql/exec.h"

namespace kgnet::sparql {

/// One node of the plan description tree (the EXPLAIN rendering).
struct PlanNode {
  enum class Kind {
    kSeed,
    kIndexScan,
    kMergeJoin,
    kHashJoin,
    kBindJoin,
    kUnion,
    kLeftJoin,
    kFilter,
    kProject,
    kLimit,
  };
  Kind kind = Kind::kIndexScan;
  /// The rendered operator, e.g. "MergeJoin(?x)" or
  /// "IndexScan[pos] ?x <p> <o>".
  std::string label;
  /// Planner estimate of this operator's output rows.
  size_t est_rows = 0;
  std::vector<std::unique_ptr<PlanNode>> children;
};

/// Allocates a unary wrapper node (used for Project / Limit rendering).
std::unique_ptr<PlanNode> MakePlanNode(PlanNode::Kind kind, std::string label,
                                       std::unique_ptr<PlanNode> child);

/// Renders `root` as an indented tree, one operator per line:
///   MergeJoin(?x) est=100
///     IndexScan[pos] ?x a <T> est=100
///     IndexScan[pos] ?x <color> <c1> est=50
std::string RenderPlanTree(const PlanNode& root);

/// A compiled physical plan: the executable operator tree plus the
/// description tree it was built from.
struct Plan {
  std::unique_ptr<PlanNode> desc;
  std::unique_ptr<Operator> exec;
  /// Solution width (ctx->vars.size() when the plan was built).
  size_t width = 0;
  /// Planner estimate of the result cardinality.
  size_t est_rows = 0;
  /// Per slot: nonzero when every row the plan emits binds that slot.
  std::vector<char> bound;

  std::string ToString() const {
    return desc ? RenderPlanTree(*desc) : std::string();
  }
};

/// Compiles a *full* group pattern — BGP + FILTERs, then UNION chains,
/// then OPTIONAL groups, recursively — into one streaming plan, so those
/// groups no longer materialize between stages:
///
///   Union(n)         the outer plan drives a UnionAll of the branch
///                    plans, re-opened once per outer row (dependent
///                    union: an outer row multiplies by its matching
///                    alternatives and drops when none match);
///   LeftJoin(optional)  streams the optional group per outer row,
///                    emitting the bare outer row when nothing matches.
///
/// Both inner groups are planned with the slots the outer plan binds in
/// every row, so a scan that shares one seeks per open (`IndexScan[auto]`,
/// sideways information passing as in RDF-3X) rather than filtering a
/// fixed index range.
///
/// Every variable of the whole group tree is registered in ctx->vars up
/// front so all sub-plans share one final solution width. Nested
/// sub-SELECTs inside UNION/OPTIONAL groups are ignored: only top-level
/// sub-SELECTs seed the query (through `seeds`, which must outlive the
/// returned plan; nullptr starts from one all-unbound row).
///
/// `build_desc` controls whether the EXPLAIN description tree (labels,
/// PlanNode allocations) is built alongside the operators; executions
/// that never render a plan pass false and skip that string work — it
/// is measurable on sub-millisecond selective queries. With false,
/// Plan::desc is null and ToString() returns "".
Plan PlanGroupPattern(const GraphPattern& gp, EvalContext* ctx,
                      const std::vector<Solution>* seeds, ExecStats* stats,
                      bool build_desc = true);

}  // namespace kgnet::sparql

#endif  // KGNET_SPARQL_PLAN_H_
