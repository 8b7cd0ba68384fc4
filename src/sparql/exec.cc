#include "sparql/exec.h"

#include <algorithm>
#include <utility>

namespace kgnet::sparql {

using rdf::kNullTermId;
using rdf::Term;
using rdf::TermId;
using rdf::Triple;
using rdf::TriplePattern;

// ------------------------------------------------- expression evaluation --

namespace {

/// The comparison semantics of EvalExpr for one of kEq..kGe: numeric
/// when both terms parse as numbers, otherwise kind-aware lexical.
bool CompareTerms(ExprOp op, const Term& l, const Term& r) {
  double ld, rd;
  int cmp;
  if (l.AsDouble(&ld) && r.AsDouble(&rd)) {
    cmp = ld < rd ? -1 : (ld > rd ? 1 : 0);
  } else {
    // Kind-aware lexical comparison.
    if (l.kind != r.kind && (op == ExprOp::kEq || op == ExprOp::kNe))
      return op == ExprOp::kNe;
    cmp = l.lexical.compare(r.lexical);
    cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
    if (cmp == 0 && (l.datatype != r.datatype || l.lang != r.lang) &&
        (op == ExprOp::kEq || op == ExprOp::kNe))
      cmp = 1;
  }
  switch (op) {
    case ExprOp::kEq:
      return cmp == 0;
    case ExprOp::kNe:
      return cmp != 0;
    case ExprOp::kLt:
      return cmp < 0;
    case ExprOp::kLe:
      return cmp <= 0;
    case ExprOp::kGt:
      return cmp > 0;
    case ExprOp::kGe:
      return cmp >= 0;
    default:
      return false;
  }
}

}  // namespace

bool EffectiveBool(const Term& t) {
  if (t.is_literal()) {
    if (t.lexical == "true") return true;
    if (t.lexical == "false") return false;
    double d;
    if (t.AsDouble(&d)) return d != 0.0;
    return !t.lexical.empty();
  }
  return true;  // IRIs / blanks are truthy
}

Term BoolTerm(bool b) {
  return Term::TypedLiteral(b ? "true" : "false",
                            "http://www.w3.org/2001/XMLSchema#boolean");
}

void CollectExprVars(const ExprPtr& e, std::set<std::string>* out) {
  if (!e) return;
  if (e->op == ExprOp::kVar) out->insert(e->var);
  for (const auto& a : e->args) CollectExprVars(a, out);
}

Result<Term> EvalExpr(const ExprPtr& e, EvalContext* ctx,
                      const Solution& sol) {
  switch (e->op) {
    case ExprOp::kVar: {
      int slot = ctx->vars.Find(e->var);
      if (slot < 0 || static_cast<size_t>(slot) >= sol.size() ||
          sol[slot] == kNullTermId)
        return Status::FailedPrecondition("unbound variable ?" + e->var);
      return ctx->store->dict().Lookup(sol[slot]);
    }
    case ExprOp::kConst:
      return e->constant;
    case ExprOp::kNot: {
      KGNET_ASSIGN_OR_RETURN(Term inner, EvalExpr(e->args[0], ctx, sol));
      return BoolTerm(!EffectiveBool(inner));
    }
    case ExprOp::kAnd:
    case ExprOp::kOr: {
      KGNET_ASSIGN_OR_RETURN(Term l, EvalExpr(e->args[0], ctx, sol));
      bool lv = EffectiveBool(l);
      if (e->op == ExprOp::kAnd && !lv) return BoolTerm(false);
      if (e->op == ExprOp::kOr && lv) return BoolTerm(true);
      KGNET_ASSIGN_OR_RETURN(Term r, EvalExpr(e->args[1], ctx, sol));
      return BoolTerm(EffectiveBool(r));
    }
    case ExprOp::kEq:
    case ExprOp::kNe:
    case ExprOp::kLt:
    case ExprOp::kLe:
    case ExprOp::kGt:
    case ExprOp::kGe: {
      KGNET_ASSIGN_OR_RETURN(Term l, EvalExpr(e->args[0], ctx, sol));
      KGNET_ASSIGN_OR_RETURN(Term r, EvalExpr(e->args[1], ctx, sol));
      return BoolTerm(CompareTerms(e->op, l, r));
    }
    case ExprOp::kCall: {
      std::vector<Term> args;
      args.reserve(e->args.size());
      for (const auto& a : e->args) {
        KGNET_ASSIGN_OR_RETURN(Term t, EvalExpr(a, ctx, sol));
        args.push_back(std::move(t));
      }
      return ctx->udfs->Call(e->fn, args);
    }
  }
  return Status::Internal("unhandled expression op");
}

// ------------------------------------------------------------ CompiledExpr --

CompiledExpr::CompiledExpr(ExprPtr expr, EvalContext* ctx)
    : expr_(std::move(expr)), ctx_(ctx) {
  Compile(expr_, ctx);
}

int CompiledExpr::Compile(const ExprPtr& e, EvalContext* ctx) {
  const int i = static_cast<int>(nodes_.size());
  nodes_.push_back({e, -1, -1, -1});
  switch (e->op) {
    case ExprOp::kVar:
      nodes_[static_cast<size_t>(i)].slot = ctx->vars.Find(e->var);
      break;
    case ExprOp::kConst:
    case ExprOp::kCall:  // evaluated whole by EvalExpr
      break;
    case ExprOp::kNot: {
      const int a = Compile(e->args[0], ctx);
      nodes_[static_cast<size_t>(i)].lhs = a;
      break;
    }
    default: {  // kAnd, kOr and the comparisons: two operands
      const int a = Compile(e->args[0], ctx);
      const int b = Compile(e->args[1], ctx);
      nodes_[static_cast<size_t>(i)].lhs = a;
      nodes_[static_cast<size_t>(i)].rhs = b;
      break;
    }
  }
  return i;
}

Result<const Term*> CompiledExpr::Operand(int i, const Solution& row,
                                          Term* scratch) const {
  const Node& n = nodes_[static_cast<size_t>(i)];
  switch (n.src->op) {
    case ExprOp::kVar:
      if (n.slot < 0 || static_cast<size_t>(n.slot) >= row.size() ||
          row[static_cast<size_t>(n.slot)] == kNullTermId)
        return Status::FailedPrecondition("unbound variable ?" + n.src->var);
      return &ctx_->store->dict().Lookup(row[static_cast<size_t>(n.slot)]);
    case ExprOp::kConst:
      return &n.src->constant;
    case ExprOp::kCall: {
      KGNET_ASSIGN_OR_RETURN(*scratch, EvalExpr(n.src, ctx_, row));
      return scratch;
    }
    default: {
      KGNET_ASSIGN_OR_RETURN(const bool v, TestNode(i, row));
      *scratch = BoolTerm(v);
      return scratch;
    }
  }
}

Result<bool> CompiledExpr::TestNode(int i, const Solution& row) const {
  const Node& n = nodes_[static_cast<size_t>(i)];
  switch (n.src->op) {
    case ExprOp::kVar:
    case ExprOp::kConst:
    case ExprOp::kCall: {
      Term scratch;
      KGNET_ASSIGN_OR_RETURN(const Term* t, Operand(i, row, &scratch));
      return EffectiveBool(*t);
    }
    case ExprOp::kNot: {
      KGNET_ASSIGN_OR_RETURN(const bool v, TestNode(n.lhs, row));
      return !v;
    }
    case ExprOp::kAnd:
    case ExprOp::kOr: {
      KGNET_ASSIGN_OR_RETURN(const bool l, TestNode(n.lhs, row));
      if (n.src->op == ExprOp::kAnd && !l) return false;
      if (n.src->op == ExprOp::kOr && l) return true;
      return TestNode(n.rhs, row);
    }
    default: {
      Term ls, rs;
      KGNET_ASSIGN_OR_RETURN(const Term* l, Operand(n.lhs, row, &ls));
      KGNET_ASSIGN_OR_RETURN(const Term* r, Operand(n.rhs, row, &rs));
      return CompareTerms(n.src->op, *l, *r);
    }
  }
}

Result<bool> CompiledExpr::Test(const Solution& row) const {
  return TestNode(0, row);
}

// ------------------------------------------------------ pattern compiling --

namespace {

TermId ResolveNode(const NodeRef& n, EvalContext* ctx, int* slot) {
  if (n.is_var) {
    *slot = ctx->vars.SlotOf(n.var);
    return kNullTermId;
  }
  *slot = -1;
  // A constant never present in the dictionary cannot match; we intern it
  // so updates can still create it, and matching degrades to id-compare.
  return ctx->store->dict().Intern(n.term);
}

}  // namespace

CompiledPattern CompilePattern(const PatternTriple& pt, EvalContext* ctx) {
  CompiledPattern cp;
  cp.s_const = ResolveNode(pt.s, ctx, &cp.s_slot);
  cp.p_const = ResolveNode(pt.p, ctx, &cp.p_slot);
  cp.o_const = ResolveNode(pt.o, ctx, &cp.o_slot);
  return cp;
}

TriplePattern BindPattern(const CompiledPattern& cp, const Solution& sol) {
  TriplePattern p;
  p.s = cp.s_slot >= 0 ? sol[cp.s_slot] : cp.s_const;
  p.p = cp.p_slot >= 0 ? sol[cp.p_slot] : cp.p_const;
  p.o = cp.o_slot >= 0 ? sol[cp.o_slot] : cp.o_const;
  return p;
}

// --------------------------------------------------------------- helpers --

namespace {

/// MergeRows over `n`-slot rows held anywhere (e.g. a row arena).
bool MergeIds(const TermId* l, const TermId* r, TermId* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const TermId lv = l[i];
    const TermId rv = r[i];
    if (lv != kNullTermId && rv != kNullTermId && lv != rv) return false;
    out[i] = lv != kNullTermId ? lv : rv;
  }
  return true;
}

}  // namespace

bool MergeRows(const Solution& l, const Solution& r, Solution* out) {
  const size_t n = out->size();
  if (l.size() >= n && r.size() >= n)
    return MergeIds(l.data(), r.data(), out->data(), n);
  for (size_t i = 0; i < n; ++i) {
    const TermId lv = i < l.size() ? l[i] : kNullTermId;
    const TermId rv = i < r.size() ? r[i] : kNullTermId;
    if (lv != kNullTermId && rv != kNullTermId && lv != rv) return false;
    (*out)[i] = lv != kNullTermId ? lv : rv;
  }
  return true;
}

// -------------------------------------------------------------- SeedScan --

void SeedScan::Open(const Solution& outer) {
  outer_ = outer;
  outer_.resize(width_, kNullTermId);
  pos_ = 0;
}

bool SeedScan::Next(Solution* row) {
  while (pos_ < seeds_->size()) {
    const Solution& seed = (*seeds_)[pos_++];
    row->assign(width_, kNullTermId);
    if (MergeRows(outer_, seed, row)) return true;
  }
  return false;
}

// ------------------------------------------------------------- IndexScan --

void IndexScan::Open(const Solution& outer) {
  base_ = outer;
  base_.resize(width_, kNullTermId);
  TriplePattern pattern = BindPattern(cp_, base_);
  rdf::IndexOrder order = order_ ? *order_ : snapshot_->ChooseIndex(pattern);
  snapshot_->Reopen(order, pattern, &cursor_);
}

bool IndexScan::BindRow(const Triple& t, Solution* row) const {
  *row = base_;
  // Bind free positions; repeated variables must agree with themselves
  // (positions already bound in base_ were part of the seek pattern).
  bool ok = true;
  auto bind = [&](int slot, TermId value) {
    if (slot < 0) return;
    TermId& cell = (*row)[slot];
    if (cell != kNullTermId && cell != value)
      ok = false;
    else
      cell = value;
  };
  bind(cp_.s_slot, t.s);
  bind(cp_.p_slot, t.p);
  bind(cp_.o_slot, t.o);
  return ok;
}

bool IndexScan::Next(Solution* row) {
  const size_t walked = cursor_.walked();
  Triple t;
  bool found = false;
  while (cursor_.Next(&t)) {
    if (Cancelled()) break;
    ++stats_->rows_scanned;
    if (BindRow(t, row)) {
      found = true;
      break;
    }
  }
  stats_->rows_walked += cursor_.walked() - walked;
  return found;
}

// --------------------------------------------------------- SortMergeJoin --

void SortMergeJoin::Open(const Solution& outer) {
  left_->Open(outer);
  right_->Open(outer);
  lrow_.clear();
  rrow_.clear();
  lvalid_ = AdvanceLeft();
  rvalid_ = AdvanceRight();
  group_.clear();
  gpos_ = 0;
  matching_ = false;
}

bool SortMergeJoin::AdvanceLeft() {
  lvalid_ = left_->Next(&lrow_);
  if (!lvalid_ && !left_->status().ok()) status_ = left_->status();
  return lvalid_;
}

bool SortMergeJoin::AdvanceRight() {
  rvalid_ = right_->Next(&rrow_);
  if (!rvalid_ && !right_->status().ok()) status_ = right_->status();
  return rvalid_;
}

bool SortMergeJoin::Next(Solution* row) {
  for (;;) {
    if (!status_.ok()) return false;
    if (Cancelled()) return false;
    if (matching_) {
      // Emit remaining (current left row) x (buffered right group) pairs.
      if (gpos_ < group_.size()) {
        const Solution& r = group_[gpos_++];
        row->resize(lrow_.size());
        if (MergeRows(lrow_, r, row)) return true;
        continue;
      }
      // Group exhausted for this left row; the next left row may share
      // the same key and reuse the buffered group.
      if (!AdvanceLeft()) return false;
      if (lrow_[key_] == gkey_) {
        gpos_ = 0;
        continue;
      }
      matching_ = false;
    }
    if (!lvalid_ || !rvalid_) return false;
    const TermId lk = lrow_[key_];
    const TermId rk = rrow_[key_];
    if (lk < rk) {
      if (!AdvanceLeft()) return false;
      continue;
    }
    if (lk > rk) {
      if (!AdvanceRight()) return false;
      continue;
    }
    // Keys align: buffer the full right group for this key.
    group_.clear();
    gkey_ = rk;
    while (rvalid_ && rrow_[key_] == gkey_) {
      group_.push_back(rrow_);
      AdvanceRight();
    }
    gpos_ = 0;
    matching_ = true;
  }
}

// -------------------------------------------------------------- HashJoin --

void HashJoin::Table::Clear() {
  ids.clear();
  keys.clear();
  next.clear();
  head.assign(16, kEnd);
  tail.assign(16, kEnd);
}

void HashJoin::Table::Insert(const Solution& row, uint64_t key) {
  const uint32_t r = static_cast<uint32_t>(keys.size());
  ids.insert(ids.end(), row.begin(), row.end());
  keys.push_back(key);
  next.push_back(kEnd);
  if (keys.size() > head.size()) {
    // Load factor 1 reached: double the buckets and re-chain every row
    // in arrival order, which keeps each key's chain in arrival order.
    head.assign(head.size() * 2, kEnd);
    tail.assign(head.size(), kEnd);
    const uint64_t mask = head.size() - 1;
    for (uint32_t i = 0; i < static_cast<uint32_t>(keys.size()); ++i) {
      const size_t b = keys[i] & mask;
      next[i] = kEnd;
      (head[b] == kEnd ? head[b] : next[tail[b]]) = i;
      tail[b] = i;
    }
    return;
  }
  const size_t b = key & (head.size() - 1);
  (head[b] == kEnd ? head[b] : next[tail[b]]) = r;
  tail[b] = r;
}

uint64_t HashJoin::KeyOf(const Solution& row) const {
  uint64_t h = 1469598103934665603ull;
  for (int s : key_slots_) {
    h ^= row[s];
    h *= 1099511628211ull;
  }
  return h;
}

void HashJoin::Open(const Solution& outer) {
  ptable_.Clear();
  btable_.Clear();
  pending_.clear();
  out_pos_ = 0;
  probe_done_ = build_done_ = false;
  turn_probe_ = true;
  probe_->Open(outer);
  build_->Open(outer);
}

bool HashJoin::Next(Solution* row) {
  for (;;) {
    if (out_pos_ < pending_.size()) {
      row->assign(pending_.begin() + static_cast<std::ptrdiff_t>(out_pos_),
                  pending_.begin() +
                      static_cast<std::ptrdiff_t>(out_pos_ + width_));
      out_pos_ += width_;
      return true;
    }
    pending_.clear();
    out_pos_ = 0;
    if (!status_.ok()) return false;
    if (Cancelled()) return false;
    if (probe_done_ && build_done_) return false;
    StepOne();
  }
}

void HashJoin::StepOne() {
  // Pull one row, alternating sides while both are live so neither
  // input is materialized ahead of need.
  const bool take_probe = build_done_ || (!probe_done_ && turn_probe_);
  turn_probe_ = !turn_probe_;
  Operator* src = take_probe ? probe_.get() : build_.get();
  if (!src->Next(&pulled_)) {
    if (!src->status().ok())
      status_ = src->status();
    else
      (take_probe ? probe_done_ : build_done_) = true;
    return;
  }
  width_ = pulled_.size();
  const uint64_t key = KeyOf(pulled_);
  const Table& other = take_probe ? btable_ : ptable_;
  for (uint32_t r = other.head[key & (other.head.size() - 1)];
       r != Table::kEnd; r = other.next[r]) {
    if (other.keys[r] != key) continue;
    const size_t at = pending_.size();
    pending_.resize(at + width_);
    if (!MergeIds(pulled_.data(), other.ids.data() + size_t{r} * width_,
                  pending_.data() + at, width_))
      pending_.resize(at);
  }
  // Store the row only while the other side can still probe it: once
  // one input is exhausted, the survivor's rows have already seen every
  // partner, so keeping them would just materialize the larger input.
  if (!(take_probe ? build_done_ : probe_done_))
    (take_probe ? ptable_ : btable_).Insert(pulled_, key);
}

// -------------------------------------------------------------- BindJoin --

void BindJoin::Open(const Solution& outer) {
  left_->Open(outer);
  lvalid_ = left_->Next(&lrow_);
  if (!lvalid_ && !left_->status().ok()) status_ = left_->status();
  if (lvalid_) right_->Open(lrow_);
}

bool BindJoin::Next(Solution* row) {
  while (lvalid_ && status_.ok()) {
    if (right_->Next(row)) return true;
    if (!right_->status().ok()) {
      status_ = right_->status();
      return false;
    }
    lvalid_ = left_->Next(&lrow_);
    if (!lvalid_ && !left_->status().ok()) status_ = left_->status();
    if (lvalid_) right_->Open(lrow_);
  }
  return false;
}

// -------------------------------------------------------------- UnionAll --

void UnionAll::Open(const Solution& outer) {
  outer_ = outer;
  cur_ = 0;
  if (!children_.empty()) children_[0]->Open(outer_);
}

bool UnionAll::Next(Solution* row) {
  while (cur_ < children_.size()) {
    Operator* child = children_[cur_].get();
    if (child->Next(row)) return true;
    if (!child->status().ok()) {
      status_ = child->status();
      return false;
    }
    if (++cur_ < children_.size()) children_[cur_]->Open(outer_);
  }
  return false;
}

// --------------------------------------------------------- LeftOuterJoin --

void LeftOuterJoin::Open(const Solution& outer) {
  left_->Open(outer);
  lvalid_ = left_->Next(&lrow_);
  if (!lvalid_ && !left_->status().ok()) status_ = left_->status();
  matched_ = false;
  if (lvalid_) right_->Open(lrow_);
}

bool LeftOuterJoin::Next(Solution* row) {
  while (lvalid_ && status_.ok()) {
    if (right_->Next(row)) {
      matched_ = true;
      return true;
    }
    if (!right_->status().ok()) {
      status_ = right_->status();
      return false;
    }
    // Right side exhausted for this left row: emit it bare if nothing
    // matched, then advance the left side either way.
    const bool emit_bare = !matched_;
    if (emit_bare) *row = lrow_;
    lvalid_ = left_->Next(&lrow_);
    if (!lvalid_ && !left_->status().ok()) status_ = left_->status();
    matched_ = false;
    if (lvalid_) right_->Open(lrow_);
    if (emit_bare) return true;
  }
  return false;
}

// -------------------------------------------------------------- FilterOp --

void FilterOp::Open(const Solution& outer) { child_->Open(outer); }

bool FilterOp::Next(Solution* row) {
  while (child_->Next(row)) {
    bool pass = true;
    for (const Condition& f : filters_) {
      bool ready = true;
      for (int slot : f.required_slots) {
        if ((*row)[slot] == kNullTermId) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;  // lenient: not all variables bound yet
      auto v = f.expr.Test(*row);
      if (!v.ok()) {
        status_ = v.status();
        return false;
      }
      if (!*v) {
        pass = false;
        break;
      }
    }
    if (pass) return true;
  }
  if (!child_->status().ok()) status_ = child_->status();
  return false;
}

}  // namespace kgnet::sparql
