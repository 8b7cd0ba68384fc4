#include "sparql/engine.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "sparql/exec.h"
#include "sparql/parser.h"
#include "sparql/plan.h"

namespace kgnet::sparql {

namespace {

using rdf::kNullTermId;
using rdf::Term;
using rdf::TermId;
using rdf::Triple;
using rdf::TriplePattern;

std::string RowKey(const std::vector<Term>& row) {
  std::string key;
  for (const Term& t : row) {
    key += t.EncodeKey();
    key += '\x02';
  }
  return key;
}

/// The effective projection list: explicit SELECT items, or one bare-var
/// item per registered variable for SELECT *.
std::vector<SelectItem> ProjectionItems(const Query& query,
                                        const EvalContext& ctx) {
  std::vector<SelectItem> items = query.select;
  if (query.select_all) {
    for (size_t i = 0; i < ctx.vars.size(); ++i) {
      SelectItem it;
      it.expr = Expr::Var(ctx.vars.name(static_cast<int>(i)));
      it.alias = ctx.vars.name(static_cast<int>(i));
      items.push_back(std::move(it));
    }
  }
  return items;
}

/// ProjectionSlots() marker for an item that is an expression, not a
/// plain variable.
constexpr int kExprItem = -2;

/// Resolves each plain-variable projection item to its slot once per
/// query (-1 when the variable never occurs, so it is always UNDEF);
/// expression items get kExprItem.
std::vector<int> ProjectionSlots(const std::vector<SelectItem>& items,
                                 const EvalContext& ctx) {
  std::vector<int> slots;
  slots.reserve(items.size());
  for (const SelectItem& it : items)
    slots.push_back(it.expr->op == ExprOp::kVar ? ctx.vars.Find(it.expr->var)
                                                : kExprItem);
  return slots;
}

/// The id a plain-variable item with slot `slot` projects from `sol`
/// (kNullTermId: UNDEF).
TermId ItemId(int slot, const Solution& sol) {
  return slot >= 0 && static_cast<size_t>(slot) < sol.size()
             ? sol[static_cast<size_t>(slot)]
             : kNullTermId;
}

/// Evaluates one projected row; unbound variables become explicit
/// Term::Undef() cells — never an empty literal, which a row could
/// genuinely bind (DISTINCT and serialization must tell them apart).
/// `slots` comes from ProjectionSlots(items, ...).
Result<std::vector<Term>> ProjectRow(const std::vector<SelectItem>& items,
                                     const std::vector<int>& slots,
                                     EvalContext* ctx, const Solution& sol) {
  std::vector<Term> row;
  row.reserve(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    const int slot = slots[i];
    if (slot != kExprItem) {
      // Two push_backs, not one over a conditional expression: that
      // would copy the dictionary term into a temporary and then move
      // it, measurably slower on wide projections.
      const TermId id = ItemId(slot, sol);
      if (id == kNullTermId)
        row.push_back(Term::Undef());
      else
        row.push_back(ctx->store->dict().Lookup(id));
      continue;
    }
    auto v = EvalExpr(items[i].expr, ctx, sol);
    if (!v.ok()) {
      if (v.status().code() == StatusCode::kFailedPrecondition) {
        // Unbound variable in projection: explicit unbound cell.
        row.push_back(Term::Undef());
        continue;
      }
      return v.status();
    }
    row.push_back(std::move(*v));
  }
  return row;
}

/// A set of fixed-width TermId rows for id-level DISTINCT: a row arena
/// plus an open-addressing index over it (linear probing, load <= 1/2).
/// Membership only; never iterated.
class IdRowSet {
 public:
  explicit IdRowSet(size_t width) : width_(width) {}

  /// Adds `row` (width ids); false when an equal row is already in.
  bool Insert(const TermId* row) {
    if ((count_ + 1) * 2 > index_.size()) Grow();
    const size_t mask = index_.size() - 1;
    for (size_t i = Hash(row) & mask;; i = (i + 1) & mask) {
      const uint32_t r = index_[i];
      if (r == 0) {
        ids_.insert(ids_.end(), row, row + width_);
        index_[i] = static_cast<uint32_t>(++count_);
        return true;
      }
      if (std::equal(row, row + width_, ids_.data() + (r - 1) * width_))
        return false;
    }
  }

 private:
  uint64_t Hash(const TermId* row) const {
    uint64_t h = 1469598103934665603ull;
    for (size_t i = 0; i < width_; ++i) {
      h ^= row[i];
      h *= 1099511628211ull;
    }
    return h ^ (h >> 29);
  }
  void Grow() {
    index_.assign(std::max<size_t>(16, index_.size() * 2), 0);
    const size_t mask = index_.size() - 1;
    for (size_t r = 0; r < count_; ++r) {
      size_t i = Hash(ids_.data() + r * width_) & mask;
      while (index_[i] != 0) i = (i + 1) & mask;
      index_[i] = static_cast<uint32_t>(r + 1);
    }
  }

  size_t width_;
  size_t count_ = 0;
  std::vector<TermId> ids_;      // inserted rows, width_ ids each
  std::vector<uint32_t> index_;  // 1-based row number; 0 = empty
};

/// Drains `exec` (one full-width solution per Next) into `result`,
/// applying the query's projection, then DISTINCT, then OFFSET, then
/// LIMIT — in that order.
///
/// When every projection item is a plain variable, DISTINCT compares the
/// projected TermIds before anything is decoded: ids are 1:1 with terms
/// and UNDEF is the null id, so the id rows kept are exactly the rows
/// the term-key comparison keeps, and only rows that survive DISTINCT
/// and OFFSET are decoded. A projection with an expression falls back
/// to comparing decoded term keys.
Status DrainSelectRows(const Query& query, EvalContext* ctx,
                       const std::vector<SelectItem>& items, Operator* exec,
                       Solution* sol, QueryResult* result) {
  const std::vector<int> slots = ProjectionSlots(items, *ctx);
  // Plain variables project without evaluation and never fail, so their
  // rows can be deduped and skipped before they are decoded.
  const bool all_plain =
      std::count(slots.begin(), slots.end(), kExprItem) == 0;
  const bool id_distinct = query.distinct && all_plain;
  IdRowSet seen_ids(items.size());
  std::vector<TermId> ids(items.size());
  std::unordered_set<std::string> seen;
  size_t skipped = 0;
  while ((query.limit < 0 ||
          result->rows.size() < static_cast<size_t>(query.limit)) &&
         exec->Next(sol)) {
    // Cancellation poll per drained row: catches a trip between operator
    // pulls.
    KGNET_RETURN_IF_ERROR(ctx->cancel.Check());
    if (id_distinct) {
      for (size_t i = 0; i < items.size(); ++i) ids[i] = ItemId(slots[i], *sol);
      if (!seen_ids.Insert(ids.data())) continue;
    }
    if (all_plain && static_cast<int64_t>(skipped) < query.offset) {
      ++skipped;
      continue;
    }
    auto row = ProjectRow(items, slots, ctx, *sol);
    if (!row.ok()) return row.status();
    if (!all_plain) {
      if (query.distinct && !seen.insert(RowKey(*row)).second) continue;
      if (static_cast<int64_t>(skipped) < query.offset) {
        ++skipped;
        continue;
      }
    }
    result->rows.push_back(std::move(*row));
  }
  return Status::OK();
}

/// Wraps the WHERE-clause plan in Project/Limit nodes and renders it.
std::string DescribePlan(std::unique_ptr<PlanNode> desc, const Query& query) {
  std::unique_ptr<PlanNode> root = std::move(desc);
  if (query.kind == QueryKind::kSelect) {
    std::string cols;
    if (query.distinct) cols = "distinct ";
    if (query.select_all) {
      cols += "*";
    } else {
      for (size_t i = 0; i < query.select.size(); ++i) {
        if (i > 0) cols += ' ';
        cols += '?';
        cols += query.select[i].alias;
      }
    }
    root = MakePlanNode(PlanNode::Kind::kProject, "Project(" + cols + ")",
                        std::move(root));
    if (query.limit >= 0 || query.offset > 0) {
      std::string label = "Limit(";
      label += query.limit >= 0 ? std::to_string(query.limit) : "all";
      if (query.offset > 0)
        label += " offset=" + std::to_string(query.offset);
      label += ")";
      root = MakePlanNode(PlanNode::Kind::kLimit, std::move(label),
                          std::move(root));
    }
  }
  return RenderPlanTree(*root);
}

}  // namespace

int QueryResult::ColumnIndex(std::string_view name) const {
  for (size_t i = 0; i < columns.size(); ++i)
    if (columns[i] == name) return static_cast<int>(i);
  return -1;
}

std::string QueryResult::ToTable() const {
  std::vector<size_t> width(columns.size());
  std::vector<std::vector<std::string>> cells;
  for (size_t i = 0; i < columns.size(); ++i) width[i] = columns[i].size();
  for (const auto& row : rows) {
    std::vector<std::string> line;
    // A hand-built result may carry rows wider than `columns`; clamp so
    // the width bookkeeping never indexes past the column count.
    const size_t ncells = std::min(row.size(), columns.size());
    for (size_t i = 0; i < ncells; ++i) {
      line.push_back(row[i].ToNTriples());
      width[i] = std::max(width[i], line.back().size());
    }
    cells.push_back(std::move(line));
  }
  std::ostringstream os;
  for (size_t i = 0; i < columns.size(); ++i) {
    os << (i ? " | " : "");
    os << columns[i] << std::string(width[i] - columns[i].size(), ' ');
  }
  os << "\n";
  for (const auto& line : cells) {
    for (size_t i = 0; i < line.size(); ++i) {
      os << (i ? " | " : "");
      os << line[i] << std::string(width[i] - line[i].size(), ' ');
    }
    os << "\n";
  }
  return os.str();
}

Result<QueryResult> QueryEngine::ExecuteString(std::string_view text) {
  KGNET_ASSIGN_OR_RETURN(Query q, ParseQuery(text));
  return Execute(q);
}

size_t QueryEngine::EstimateWhereCardinality(const Query& query) const {
  // Product of the per-pattern estimates with all variables free; an upper
  // bound that is cheap to compute.
  size_t est = 1;
  for (const auto& pt : query.where.triples) {
    TriplePattern p;
    // A constant that was never interned cannot match anything.
    if (!pt.s.is_var) {
      p.s = store_->dict().Find(pt.s.term);
      if (p.s == kNullTermId) return 0;
    }
    if (!pt.p.is_var) {
      p.p = store_->dict().Find(pt.p.term);
      if (p.p == kNullTermId) return 0;
    }
    if (!pt.o.is_var) {
      p.o = store_->dict().Find(pt.o.term);
      if (p.o == kNullTermId) return 0;
    }
    size_t card = store_->EstimateCardinality(p);
    if (card == 0) return 0;
    // Saturating multiply.
    if (est > SIZE_MAX / card) return SIZE_MAX;
    est *= card;
  }
  return est;
}

Result<std::string> QueryEngine::Explain(const Query& query) {
  EvalContext ctx;
  ctx.store = store_;
  ctx.snapshot = store_->OpenSnapshot();
  ctx.udfs = &udfs_;
  // Pre-register variables in the same order Execute() would, so the plan
  // shows the slots a real execution uses. Sub-SELECT columns come first.
  for (const auto& sub : query.where.subselects)
    for (const auto& it : ProjectionItems(*sub, ctx)) ctx.vars.SlotOf(it.alias);
  for (const auto& pt : query.where.triples) {
    if (pt.s.is_var) ctx.vars.SlotOf(pt.s.var);
    if (pt.p.is_var) ctx.vars.SlotOf(pt.p.var);
    if (pt.o.is_var) ctx.vars.SlotOf(pt.o.var);
  }
  ExecStats stats;
  Plan plan = PlanGroupPattern(query.where, &ctx, nullptr, &stats);
  std::string out = DescribePlan(std::move(plan.desc), query);
  if (!query.where.subselects.empty())
    out += "(+ " + std::to_string(query.where.subselects.size()) +
           " sub-SELECT seed(s))\n";
  out += "Snapshot(epoch=" + std::to_string(ctx.snapshot.epoch()) +
         " delta=" + std::to_string(ctx.snapshot.delta_size()) + ")\n";
  return out;
}

Result<std::string> QueryEngine::ExplainString(std::string_view text) {
  KGNET_ASSIGN_OR_RETURN(Query q, ParseQuery(text));
  return Explain(q);
}

Result<QueryResult> QueryEngine::Execute(const Query& query, ExecInfo* info) {
  return Execute(query, store_->OpenSnapshot(), info);
}

Result<QueryResult> QueryEngine::Execute(const Query& query,
                                         const rdf::Snapshot& snapshot,
                                         ExecInfo* info,
                                         common::CancelToken cancel) {
  EvalContext ctx;
  ctx.store = store_;
  ctx.snapshot = snapshot;
  ctx.udfs = &udfs_;
  ctx.cancel = std::move(cancel);
  if (info != nullptr) {
    info->snapshot_epoch = snapshot.epoch();
    info->snapshot_delta = snapshot.delta_size();
  }
  ExecStats stats;

  QueryResult result;
  if (query.kind == QueryKind::kInsertData) {
    for (const auto& pt : query.update_template) {
      if (pt.s.is_var || pt.p.is_var || pt.o.is_var)
        return Status::InvalidArgument("INSERT DATA requires ground triples");
      if (store_->Insert(pt.s.term, pt.p.term, pt.o.term))
        ++result.num_inserted;
    }
    return result;
  }

  // 1. Evaluate sub-SELECTs; seed the outer BGP with their solutions.
  std::vector<Solution> seeds;
  seeds.emplace_back();  // one empty solution
  for (const auto& sub : query.where.subselects) {
    ExecInfo sub_info;
    // Sub-SELECTs read through the same snapshot, so the whole query —
    // outer BGP and seeds alike — observes one storage epoch.
    KGNET_ASSIGN_OR_RETURN(QueryResult sub_result,
                           Execute(*sub, ctx.snapshot, &sub_info, ctx.cancel));
    stats.rows_scanned += sub_info.rows_scanned;
    stats.rows_walked += sub_info.rows_walked;
    // Register subselect output columns as variables.
    std::vector<int> slots;
    for (const auto& col : sub_result.columns)
      slots.push_back(ctx.vars.SlotOf(col));
    std::vector<Solution> joined;
    for (const auto& seed : seeds) {
      for (const auto& row : sub_result.rows) {
        Solution s = seed;
        s.resize(ctx.vars.size(), kNullTermId);
        bool consistent = true;
        for (size_t i = 0; i < slots.size(); ++i) {
          // A cell the sub-SELECT left unbound seeds nothing: the outer
          // slot stays free instead of being interned as a bogus term.
          if (row[i].is_undef()) continue;
          TermId id = store_->dict().Intern(row[i]);
          if (s[slots[i]] != kNullTermId && s[slots[i]] != id) {
            consistent = false;
            break;
          }
          s[slots[i]] = id;
        }
        if (consistent) joined.push_back(std::move(s));
      }
    }
    seeds = std::move(joined);
  }

  // Pre-register variables from triples so solution vectors are sized.
  for (const auto& pt : query.where.triples) {
    if (pt.s.is_var) ctx.vars.SlotOf(pt.s.var);
    if (pt.p.is_var) ctx.vars.SlotOf(pt.p.var);
    if (pt.o.is_var) ctx.vars.SlotOf(pt.o.var);
  }

  // 2. Every query kind pulls rows out of one operator tree — UNION and
  // OPTIONAL groups included, via the streaming UnionAll/LeftOuterJoin
  // operators — so LIMIT (and ASK's first hit) stop the underlying scans
  // early instead of materializing everything.
  // The description tree is only built when the caller wants it.
  Plan plan = PlanGroupPattern(query.where, &ctx, &seeds, &stats,
                               /*build_desc=*/info != nullptr);
  if (info != nullptr) {
    // DescribePlan consumes the description tree; render it up front.
    info->plan = DescribePlan(std::move(plan.desc), query);
  }
  plan.exec->Open(Solution(plan.width, kNullTermId));
  Solution sol(plan.width, kNullTermId);
  auto report = [&] {
    if (info != nullptr) {
      info->rows_scanned = stats.rows_scanned;
      info->rows_walked = stats.rows_walked;
      info->cancel_checks = ctx.cancel.checks();
    }
  };

  if (query.kind == QueryKind::kAsk) {
    result.ask_result = plan.exec->Next(&sol);
    KGNET_RETURN_IF_ERROR(plan.exec->status());
    report();
    return result;
  }

  if (query.kind == QueryKind::kSelect) {
    std::vector<SelectItem> items = ProjectionItems(query, ctx);
    for (const auto& it : items) result.columns.push_back(it.alias);
    KGNET_RETURN_IF_ERROR(
        DrainSelectRows(query, &ctx, items, plan.exec.get(), &sol, &result));
    KGNET_RETURN_IF_ERROR(plan.exec->status());
    report();
    return result;
  }

  // 3. INSERT/DELETE WHERE: the whole solution set is drained before the
  // store mutates, so the WHERE clause never observes its own update.
  std::vector<Solution> solutions;
  while (plan.exec->Next(&sol)) solutions.push_back(sol);
  KGNET_RETURN_IF_ERROR(plan.exec->status());
  report();

  const bool inserting = query.kind == QueryKind::kInsertWhere;
  std::vector<Triple> batch;
  for (const auto& s : solutions) {
    for (const auto& pt : query.update_template) {
      auto resolve = [&](const NodeRef& n) -> TermId {
        if (!n.is_var) return store_->dict().Intern(n.term);
        int slot = ctx.vars.Find(n.var);
        return slot < 0 ? kNullTermId : s[slot];
      };
      Triple t(resolve(pt.s), resolve(pt.p), resolve(pt.o));
      if (t.s == kNullTermId || t.p == kNullTermId || t.o == kNullTermId)
        return Status::InvalidArgument(
            "update template variable not bound by WHERE clause");
      batch.push_back(t);
    }
  }
  for (const Triple& t : batch) {
    if (inserting) {
      if (store_->Insert(t)) ++result.num_inserted;
    } else {
      if (store_->Erase(t)) ++result.num_deleted;
    }
  }
  return result;
}

}  // namespace kgnet::sparql
