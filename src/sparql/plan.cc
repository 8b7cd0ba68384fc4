#include "sparql/plan.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <sstream>

#include "sparql/serializer.h"

namespace kgnet::sparql {

namespace {

using rdf::IndexOrder;
using rdf::kNullTermId;
using rdf::TermId;
using rdf::TriplePattern;

// Estimates saturate well below SIZE_MAX so sums stay overflow-free.
constexpr size_t kMaxEst = SIZE_MAX / 8;

size_t SatMul(size_t a, size_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > kMaxEst / b) return kMaxEst;
  return a * b;
}

/// Standard equi-join output estimate: |L x R| / max(distinct keys),
/// approximated with distinct = the larger side, i.e. min(L, R).
size_t JoinEst(size_t l, size_t r) {
  if (l == 0 || r == 0) return 0;
  return std::min(l, r);
}

int SlotAtPosition(const CompiledPattern& cp, int pos) {
  return pos == 0 ? cp.s_slot : (pos == 1 ? cp.p_slot : cp.o_slot);
}

/// One way to scan a pattern: which index, how big the seekable range is,
/// and which variable the range streams in order of.
struct ScanChoice {
  IndexOrder order = IndexOrder::kSpo;
  size_t range = 0;
  int ordered_slot = -1;
};

struct PatternState {
  const PatternTriple* src = nullptr;
  CompiledPattern cp;
  TriplePattern consts;  // constant positions only, variables open
  // One entry per permutation index the store maintains (6 by default,
  // 3 with Options::IndexSet::kClassicTrio) — absent orders are never
  // enumerated, so every candidate below is executable.
  std::vector<ScanChoice> choices;
  size_t cheapest = 0;    // index into `choices` with the smallest range
  size_t out_est = 0;     // estimated matching triples (per open when outer)
  std::vector<int> slots;  // distinct variable slots
  // Shares a slot the outer plan binds in every row: the scan seeks on
  // the outer value at each open, so its order is chosen then ([auto]).
  bool outer = false;
  bool joined = false;
};

struct CompiledFilter {
  ExprPtr expr;
  std::vector<int> slots;
  bool attached = false;
};

std::string PatternLabel(const PatternState& p, const char* index_name) {
  std::string s = "IndexScan[";
  s += index_name;
  s += "] ";
  s += SerializeNode(p.src->s);
  s += ' ';
  s += SerializeNode(p.src->p);
  s += ' ';
  s += SerializeNode(p.src->o);
  return s;
}

/// EXPLAIN marker: this scan is a cancellation point — the execution
/// carries a live CancelToken it polls per pulled row. Absent for plain
/// in-process queries, which run with the inert default token.
std::string CancelMark(const EvalContext* ctx) {
  return ctx->cancel.valid() ? " [cancel]" : "";
}

std::string SlotList(const std::vector<int>& slots, const VarTable& vars) {
  std::string s;
  for (int slot : slots) {
    if (!s.empty()) s += ' ';
    s += '?';
    s += vars.name(slot);
  }
  return s;
}

/// The running left-deep plan under construction. `bound` is indexed by
/// slot (flat flags, not a node-based set: the planner runs on every
/// query, and rb-tree allocations dominate planning time on selective
/// sub-millisecond queries).
struct Running {
  std::unique_ptr<Operator> op;
  std::unique_ptr<PlanNode> desc;
  size_t est = 1;
  int ordered = -1;
  std::vector<char> bound;  // one flag per variable slot

  bool IsBound(int slot) const {
    return slot >= 0 && static_cast<size_t>(slot) < bound.size() &&
           bound[static_cast<size_t>(slot)] != 0;
  }
  void Bind(const std::vector<int>& slots) {
    for (int s : slots) bound[static_cast<size_t>(s)] = 1;
  }
};

std::unique_ptr<PlanNode> LeafNode(PlanNode::Kind kind, std::string label,
                                   size_t est) {
  auto n = std::make_unique<PlanNode>();
  n->kind = kind;
  n->label = std::move(label);
  n->est_rows = est;
  return n;
}

std::unique_ptr<PlanNode> JoinNode(PlanNode::Kind kind, std::string label,
                                   size_t est, std::unique_ptr<PlanNode> l,
                                   std::unique_ptr<PlanNode> r) {
  auto n = LeafNode(kind, std::move(label), est);
  n->children.push_back(std::move(l));
  n->children.push_back(std::move(r));
  return n;
}

}  // namespace

std::unique_ptr<PlanNode> MakePlanNode(PlanNode::Kind kind, std::string label,
                                       std::unique_ptr<PlanNode> child) {
  auto n = std::make_unique<PlanNode>();
  n->kind = kind;
  n->label = std::move(label);
  if (child) {
    n->est_rows = child->est_rows;
    n->children.push_back(std::move(child));
  }
  return n;
}

static void RenderInto(const PlanNode& node, int depth, std::ostringstream* os) {
  for (int i = 0; i < depth; ++i) *os << "  ";
  *os << node.label;
  if (node.kind != PlanNode::Kind::kProject &&
      node.kind != PlanNode::Kind::kLimit)
    *os << " est=" << node.est_rows;
  *os << '\n';
  for (const auto& c : node.children) RenderInto(*c, depth + 1, os);
}

std::string RenderPlanTree(const PlanNode& root) {
  std::ostringstream os;
  RenderInto(root, 0, &os);
  return os.str();
}

namespace {

/// Compiles the BGP + FILTERs of `gp` into a streaming plan.
///
/// `seeds` supplies starting solutions (sub-SELECT rows); nullptr starts
/// from one all-unbound row. New variables are registered in ctx->vars;
/// every IndexScan reports into `stats`. Filters whose variables the plan
/// cannot prove bound attach at the top in lenient mode (evaluated only
/// on rows binding all their variables). `build_desc` is
/// PlanGroupPattern's.
///
/// `outer_bound`, when given, flags the slots every outer row binds (the
/// plan is then the inner side of an OPTIONAL or UNION, opened once per
/// outer row). Patterns sharing such a slot scan in auto-index mode
/// (`IndexScan[auto]`), seeking on the outer value at every open —
/// sideways information passing, as in RDF-3X.
Plan PlanBasicGraphPattern(const GraphPattern& gp, EvalContext* ctx,
                           const std::vector<Solution>* seeds,
                           ExecStats* stats, bool build_desc,
                           const std::vector<char>* outer_bound) {
  const rdf::Snapshot& snapshot = ctx->snapshot;
  const double log_n = std::log2(static_cast<double>(snapshot.size()) + 2.0);

  // --- compile patterns and filters first so the slot width is final ---
  std::vector<PatternState> patterns;
  patterns.reserve(gp.triples.size());
  for (const auto& pt : gp.triples) {
    PatternState ps;
    ps.src = &pt;
    ps.cp = CompilePattern(pt, ctx);
    patterns.push_back(std::move(ps));
  }
  std::vector<CompiledFilter> filters;
  for (const auto& f : gp.filters) {
    CompiledFilter cf;
    cf.expr = f;
    std::set<std::string> names;
    CollectExprVars(f, &names);
    for (const auto& n : names) cf.slots.push_back(ctx->vars.SlotOf(n));
    filters.push_back(std::move(cf));
  }
  const size_t width = ctx->vars.size();
  auto outer_has = [&](int slot) {
    return outer_bound != nullptr && slot >= 0 &&
           static_cast<size_t>(slot) < outer_bound->size() &&
           (*outer_bound)[static_cast<size_t>(slot)] != 0;
  };

  // --- per-pattern scan choices ---
  for (PatternState& ps : patterns) {
    const Solution empty(width, kNullTermId);
    ps.consts = BindPattern(ps.cp, empty);
    ps.out_est = std::min(snapshot.EstimateCardinality(ps.consts), kMaxEst);
    for (int pos = 0; pos < 3; ++pos) {
      int slot = SlotAtPosition(ps.cp, pos);
      if (slot >= 0) ps.slots.push_back(slot);
    }
    std::sort(ps.slots.begin(), ps.slots.end());
    ps.slots.erase(std::unique(ps.slots.begin(), ps.slots.end()),
                   ps.slots.end());
    // Bound triple positions of the pattern (constants only).
    const bool bound_pos[3] = {ps.consts.s != kNullTermId,
                               ps.consts.p != kNullTermId,
                               ps.consts.o != kNullTermId};
    const int num_bound =
        (bound_pos[0] ? 1 : 0) + (bound_pos[1] ? 1 : 0) + (bound_pos[2] ? 1 : 0);
    ps.choices.reserve(static_cast<size_t>(rdf::kNumIndexOrders));
    std::array<int, rdf::kNumIndexOrders> prefix_lens{};
    std::array<int, rdf::kNumIndexOrders> full_prefix_slots{};
    size_t num_full_prefix = 0;
    for (int i = 0; i < rdf::kNumIndexOrders; ++i) {
      const IndexOrder order = static_cast<IndexOrder>(i);
      if (!snapshot.has_index(order)) continue;
      ScanChoice c;
      c.order = order;
      auto positions = IndexOrderPositions(c.order);
      // Seekable prefix: leading key slots whose triple position is
      // bound. Its length alone often determines the range without an
      // index lookup: an empty prefix scans the whole store, and a
      // prefix covering *every* bound position selects exactly the
      // pattern's matches — the exact cardinality already computed
      // above. Only strict in-between prefixes need a skip-table probe,
      // taken below.
      int prefix_len = 0;
      while (prefix_len < 3 && bound_pos[positions[static_cast<size_t>(
                                   prefix_len)]])
        ++prefix_len;
      c.range = prefix_len == 0 ? std::min(snapshot.size(), kMaxEst)
                                : ps.out_est;
      c.ordered_slot = -1;
      for (int k = 0; k < 3; ++k) {
        int slot = SlotAtPosition(ps.cp, positions[k]);
        if (slot >= 0) {
          // First variable key position; everything before it is a bound
          // constant prefix, so the range streams ordered by this slot.
          c.ordered_slot = slot;
          break;
        }
      }
      if (prefix_len == num_bound)
        full_prefix_slots[num_full_prefix++] = c.ordered_slot;
      prefix_lens[ps.choices.size()] = prefix_len;
      ps.choices.push_back(c);
    }
    // An in-between prefix range holds every match and more, so a scan
    // over the full prefix in the same row order beats it everywhere the
    // planner compares scans; such a choice is dropped unprobed.
    size_t kept = 0;
    for (size_t i = 0; i < ps.choices.size(); ++i) {
      ScanChoice c = ps.choices[i];
      if (prefix_lens[i] > 0 && prefix_lens[i] < num_bound) {
        const auto full_end =
            full_prefix_slots.begin() +
            static_cast<std::ptrdiff_t>(num_full_prefix);
        if (std::find(full_prefix_slots.begin(), full_end, c.ordered_slot) !=
            full_end)
          continue;
        c.range =
            std::min(snapshot.EstimateRange(c.order, ps.consts), kMaxEst);
      }
      ps.choices[kept++] = c;
    }
    ps.choices.resize(kept);
    // A pattern seeking on an outer binding returns, per open, what a
    // join with the single outer row would: JoinEst(1, matches).
    for (int slot : ps.slots)
      if (outer_has(slot)) ps.outer = true;
    if (ps.outer) ps.out_est = JoinEst(1, ps.out_est);
  }

  // Slots appearing in more than one pattern: candidate merge-join keys
  // (flat per-slot counters; see the Running comment).
  std::vector<char> join_slot(width, 0);
  {
    std::vector<int> uses(width, 0);
    for (const PatternState& ps : patterns)
      for (int slot : ps.slots)
        if (++uses[static_cast<size_t>(slot)] > 1)
          join_slot[static_cast<size_t>(slot)] = 1;
  }
  auto is_join_slot = [&](int slot) {
    return slot >= 0 && static_cast<size_t>(slot) < join_slot.size() &&
           join_slot[static_cast<size_t>(slot)] != 0;
  };

  // Cheapest scan per pattern; among equal ranges prefer one streaming in
  // join-variable order, so the initial scan can feed a SortMergeJoin —
  // with all six permutations maintained there is an ordered option for
  // every position (e.g. PSO for a subject-position join variable under a
  // bound predicate, which previously needed a full SPO scan). With the
  // classic trio, fewer ordered options exist and the tie-break simply
  // finds fewer merge-friendly scans.
  for (PatternState& ps : patterns) {
    for (size_t i = 1; i < ps.choices.size(); ++i) {
      const ScanChoice& c = ps.choices[i];
      const ScanChoice& best = ps.choices[ps.cheapest];
      if (c.range < best.range ||
          (c.range == best.range && is_join_slot(c.ordered_slot) &&
           !is_join_slot(best.ordered_slot))) {
        ps.cheapest = i;
      }
    }
  }

  // --- seed relation ---
  Running run;
  run.bound.assign(width, 0);
  for (size_t slot = 0; slot < width; ++slot)
    if (outer_has(static_cast<int>(slot))) run.bound[slot] = 1;
  bool have_relation = false;
  bool use_seeds = false;
  if (seeds != nullptr) {
    // A single all-unbound row is the trivial seed: skip the relation.
    use_seeds = seeds->size() != 1;
    if (!use_seeds && !seeds->empty()) {
      for (TermId id : (*seeds)[0])
        if (id != kNullTermId) use_seeds = true;
    }
  }
  if (use_seeds) {
    run.op = std::make_unique<SeedScan>(seeds, width);
    if (build_desc)
      run.desc = LeafNode(PlanNode::Kind::kSeed,
                          "Seed(n=" + std::to_string(seeds->size()) + ")",
                          seeds->size());
    run.est = seeds->size();
    run.ordered = -1;
    // A slot counts as seed-bound only when every seed row binds it.
    if (!seeds->empty()) {
      for (size_t slot = 0; slot < width; ++slot) {
        bool in_all = true;
        for (const Solution& s : *seeds) {
          if (slot >= s.size() || s[slot] == kNullTermId) {
            in_all = false;
            break;
          }
        }
        if (in_all) run.bound[slot] = 1;
      }
    }
    have_relation = true;
  }

  // Attaches every not-yet-attached filter whose variables are all bound.
  auto attach_filters = [&]() {
    std::vector<FilterOp::Condition> ready;
    for (CompiledFilter& cf : filters) {
      if (cf.attached) continue;
      bool ok = true;
      for (int slot : cf.slots)
        if (!run.IsBound(slot)) {
          ok = false;
          break;
        }
      if (!ok) continue;
      cf.attached = true;
      ready.push_back({CompiledExpr(cf.expr, ctx), {}});
      if (build_desc) {
        run.desc = MakePlanNode(PlanNode::Kind::kFilter,
                                "Filter(" + SerializeExpr(cf.expr) + ")",
                                std::move(run.desc));
        run.desc->est_rows = run.est;
      }
    }
    if (!ready.empty())
      run.op = std::make_unique<FilterOp>(std::move(run.op), std::move(ready));
  };

  auto make_scan = [&](PatternState& ps, const ScanChoice* choice)
      -> std::unique_ptr<Operator> {
    std::unique_ptr<Operator> scan;
    if (choice != nullptr)
      scan = std::make_unique<IndexScan>(&ctx->snapshot, ps.cp, width,
                                         choice->order, choice->ordered_slot,
                                         stats);
    else
      scan = std::make_unique<IndexScan>(&ctx->snapshot, ps.cp, width,
                                         std::nullopt, -1, stats);
    scan->set_cancel_token(ctx->cancel);
    return scan;
  };

  // --- initial relation: the most selective pattern ---
  size_t remaining = patterns.size();
  if (!have_relation && remaining > 0) {
    size_t best = 0;
    for (size_t i = 1; i < patterns.size(); ++i)
      if (patterns[i].out_est < patterns[best].out_est) best = i;
    PatternState& ps = patterns[best];
    if (ps.outer) {
      // Sideways information passing: the scan seeks on the outer row's
      // bindings at every open instead of filtering a fixed range.
      run.op = make_scan(ps, nullptr);
      if (build_desc)
        run.desc = LeafNode(PlanNode::Kind::kIndexScan,
                            PatternLabel(ps, "auto") + CancelMark(ctx),
                            ps.out_est);
      run.ordered = -1;
    } else {
      const ScanChoice& c = ps.choices[ps.cheapest];
      run.op = make_scan(ps, &c);
      if (build_desc)
        run.desc = LeafNode(PlanNode::Kind::kIndexScan,
                            PatternLabel(ps, IndexOrderName(c.order)) +
                                CancelMark(ctx),
                            ps.out_est);
      run.ordered = c.ordered_slot;
    }
    run.est = ps.out_est;
    run.Bind(ps.slots);
    ps.joined = true;
    --remaining;
    have_relation = true;
  }
  if (!have_relation) {
    // No patterns and no seeds: the BGP contributes the single empty row.
    std::vector<Solution> one{Solution(width, kNullTermId)};
    run.op = std::make_unique<SeedScan>(std::move(one), width);
    if (build_desc) run.desc = LeafNode(PlanNode::Kind::kSeed, "Seed(n=1)", 1);
    run.est = 1;
  }
  attach_filters();

  // --- greedy left-deep join of the remaining patterns ---
  enum class Algo { kMerge, kBind, kHash };
  while (remaining > 0) {
    struct Candidate {
      size_t pattern = 0;
      Algo algo = Algo::kHash;
      const ScanChoice* choice = nullptr;  // fixed-order scan (merge/hash)
      double cost = 0;
      size_t out = 0;
      bool cross = false;
      std::vector<int> shared;
    };
    bool any_shared = false;
    for (const PatternState& ps : patterns) {
      if (ps.joined) continue;
      for (int slot : ps.slots)
        if (run.IsBound(slot)) any_shared = true;
    }
    const double kL = static_cast<double>(run.est);
    Candidate best;
    bool have_best = false;
    auto consider = [&](const Candidate& cand) {
      // Prefer lower cost; break ties merge < bind < hash.
      if (!have_best || cand.cost < best.cost - 1e-9 ||
          (cand.cost < best.cost + 1e-9 &&
           static_cast<int>(cand.algo) < static_cast<int>(best.algo))) {
        best = cand;
        have_best = true;
      }
    };
    for (size_t i = 0; i < patterns.size(); ++i) {
      PatternState& ps = patterns[i];
      if (ps.joined) continue;
      std::vector<int> shared;
      for (int slot : ps.slots)
        if (run.IsBound(slot)) shared.push_back(slot);
      if (shared.empty()) {
        if (any_shared) continue;  // join connected patterns first
        Candidate c;
        c.pattern = i;
        c.algo = Algo::kHash;
        c.choice = &ps.choices[ps.cheapest];
        c.out = SatMul(run.est, ps.out_est);
        c.cost = kL + static_cast<double>(c.choice->range) +
                 static_cast<double>(c.out);
        c.cross = true;
        consider(c);
        continue;
      }
      const size_t out = JoinEst(run.est, ps.out_est);
      // Hash join: build the pattern's cheapest range, probe the plan.
      // A pattern on an outer binding only seeks: its fixed-order ranges
      // ignore the outer value, so only the bind join is considered.
      if (!ps.outer) {
        Candidate c;
        c.pattern = i;
        c.algo = Algo::kHash;
        c.choice = &ps.choices[ps.cheapest];
        c.out = out;
        c.shared = shared;
        c.cost = kL + static_cast<double>(c.choice->range) +
                 static_cast<double>(out);
        consider(c);
      }
      // Bind join: one index seek per plan row.
      {
        Candidate c;
        c.pattern = i;
        c.algo = Algo::kBind;
        c.out = out;
        c.shared = shared;
        c.cost = kL * (1.0 + log_n) + static_cast<double>(out);
        consider(c);
      }
      // Merge join: needs the plan and a scan ordered on a shared slot.
      if (!ps.outer && run.ordered >= 0 &&
          std::count(shared.begin(), shared.end(), run.ordered) > 0) {
        const ScanChoice* mc = nullptr;
        for (const ScanChoice& sc : ps.choices) {
          if (sc.ordered_slot != run.ordered) continue;
          if (mc == nullptr || sc.range < mc->range) mc = &sc;
        }
        if (mc != nullptr) {
          Candidate c;
          c.pattern = i;
          c.algo = Algo::kMerge;
          c.choice = mc;
          c.out = out;
          c.shared = shared;
          c.cost = kL + static_cast<double>(mc->range) +
                   static_cast<double>(out);
          consider(c);
        }
      }
    }

    PatternState& ps = patterns[best.pattern];
    switch (best.algo) {
      case Algo::kMerge: {
        auto right = make_scan(ps, best.choice);
        if (build_desc) {
          auto rdesc =
              LeafNode(PlanNode::Kind::kIndexScan,
                       PatternLabel(ps, IndexOrderName(best.choice->order)) +
                           CancelMark(ctx),
                       ps.out_est);
          std::string label =
              "MergeJoin(?" + ctx->vars.name(run.ordered) + ")";
          run.desc = JoinNode(PlanNode::Kind::kMergeJoin, std::move(label),
                              best.out, std::move(run.desc), std::move(rdesc));
        }
        run.op = std::make_unique<SortMergeJoin>(std::move(run.op),
                                                 std::move(right), run.ordered);
        run.op->set_cancel_token(ctx->cancel);
        // run.ordered stays: merge output is ordered on the key.
        break;
      }
      case Algo::kBind: {
        auto right = make_scan(ps, nullptr);
        if (build_desc) {
          auto rdesc = LeafNode(PlanNode::Kind::kIndexScan,
                                PatternLabel(ps, "auto") + CancelMark(ctx),
                                ps.out_est);
          std::string label =
              "BindJoin(" + SlotList(best.shared, ctx->vars) + ")";
          run.desc = JoinNode(PlanNode::Kind::kBindJoin, std::move(label),
                              best.out, std::move(run.desc), std::move(rdesc));
        }
        run.op = std::make_unique<BindJoin>(std::move(run.op),
                                            std::move(right));
        // BindJoin preserves the outer order; run.ordered unchanged.
        break;
      }
      case Algo::kHash: {
        auto build = make_scan(ps, best.choice);
        if (build_desc) {
          auto bdesc =
              LeafNode(PlanNode::Kind::kIndexScan,
                       PatternLabel(ps, IndexOrderName(best.choice->order)) +
                           CancelMark(ctx),
                       ps.out_est);
          std::string label =
              best.cross
                  ? "HashJoin(cross)"
                  : "HashJoin(" + SlotList(best.shared, ctx->vars) + ")";
          run.desc = JoinNode(PlanNode::Kind::kHashJoin, std::move(label),
                              best.out, std::move(run.desc), std::move(bdesc));
        }
        run.op = std::make_unique<HashJoin>(std::move(run.op),
                                            std::move(build), best.shared);
        run.op->set_cancel_token(ctx->cancel);
        // The symmetric hash join interleaves its two inputs, so the
        // running plan loses any streaming order here.
        run.ordered = -1;
        break;
      }
    }
    run.est = best.out;
    run.Bind(ps.slots);
    ps.joined = true;
    --remaining;
    attach_filters();
  }

  // Filters the plan could not prove bound (e.g. variables bound only in
  // some seed rows) attach at the top in lenient mode: evaluated only on
  // rows that bind all their variables, passing otherwise.
  {
    std::vector<FilterOp::Condition> lenient;
    for (CompiledFilter& cf : filters) {
      if (cf.attached) continue;
      cf.attached = true;
      lenient.push_back({CompiledExpr(cf.expr, ctx), cf.slots});
      if (build_desc) {
        run.desc = MakePlanNode(
            PlanNode::Kind::kFilter,
            "Filter(" + SerializeExpr(cf.expr) + ") [if-bound]",
            std::move(run.desc));
        run.desc->est_rows = run.est;
      }
    }
    if (!lenient.empty())
      run.op = std::make_unique<FilterOp>(std::move(run.op),
                                          std::move(lenient));
  }

  Plan plan;
  plan.desc = std::move(run.desc);
  plan.exec = std::move(run.op);
  plan.width = width;
  plan.est_rows = run.est;
  plan.bound = std::move(run.bound);
  return plan;
}

size_t SatAdd(size_t a, size_t b) {
  return a > kMaxEst - std::min(b, kMaxEst) ? kMaxEst : a + b;
}

/// Registers every variable the group tree mentions — patterns, filters,
/// union alternatives, optionals, depth first — which fixes the SELECT *
/// column order and the one solution width all sub-plans share.
void RegisterGroupVars(const GraphPattern& gp, EvalContext* ctx) {
  for (const auto& pt : gp.triples) {
    if (pt.s.is_var) ctx->vars.SlotOf(pt.s.var);
    if (pt.p.is_var) ctx->vars.SlotOf(pt.p.var);
    if (pt.o.is_var) ctx->vars.SlotOf(pt.o.var);
  }
  for (const auto& f : gp.filters) {
    std::set<std::string> names;
    CollectExprVars(f, &names);
    for (const auto& n : names) ctx->vars.SlotOf(n);
  }
  for (const auto& alternatives : gp.unions)
    for (const auto& alt : alternatives) RegisterGroupVars(alt, ctx);
  for (const auto& opt : gp.optionals) RegisterGroupVars(opt, ctx);
}

Plan BuildGroupPlan(const GraphPattern& gp, EvalContext* ctx,
                    const std::vector<Solution>* seeds,
                    const std::vector<char>* outer_bound, ExecStats* stats,
                    bool build_desc) {
  Plan run =
      PlanBasicGraphPattern(gp, ctx, seeds, stats, build_desc, outer_bound);

  // UNION chains: the running plan drives every alternative per row; a
  // row multiplies by its matching alternatives (and drops when none
  // match), so a BindJoin over a UnionAll of the branch plans gives the
  // dependent-union semantics while streaming. Each branch is planned
  // with the slots the running plan binds in every row, so it seeks on
  // them; afterwards a slot is certainly bound if every branch binds it.
  for (const auto& alternatives : gp.unions) {
    std::vector<std::unique_ptr<Operator>> branches;
    std::unique_ptr<PlanNode> unode;
    if (build_desc) {
      unode = std::make_unique<PlanNode>();
      unode->kind = PlanNode::Kind::kUnion;
      unode->label =
          "Union(" + std::to_string(alternatives.size()) + " branches)";
      unode->children.push_back(std::move(run.desc));
    }
    size_t est = 0;
    std::vector<char> bound;
    for (const GraphPattern& alt : alternatives) {
      Plan branch =
          BuildGroupPlan(alt, ctx, nullptr, &run.bound, stats, build_desc);
      // The branch runs once per outer row; its estimate is per run.
      est = SatAdd(est, SatMul(run.est_rows, branch.est_rows));
      if (bound.empty()) {
        bound = std::move(branch.bound);
      } else {
        for (size_t i = 0; i < bound.size(); ++i)
          bound[i] = bound[i] != 0 && branch.bound[i] != 0 ? 1 : 0;
      }
      branches.push_back(std::move(branch.exec));
      if (build_desc) unode->children.push_back(std::move(branch.desc));
    }
    if (build_desc) {
      unode->est_rows = est;
      run.desc = std::move(unode);
    }
    run.exec = std::make_unique<BindJoin>(
        std::move(run.exec), std::make_unique<UnionAll>(std::move(branches)));
    run.est_rows = est;
    if (!bound.empty()) run.bound = std::move(bound);
  }

  // OPTIONAL groups: a streaming left-outer join per group, the inner
  // plan seeking on the left row's certain bindings. Its own variables
  // may stay unbound, so the certainly-bound set does not grow.
  for (const GraphPattern& opt : gp.optionals) {
    Plan inner =
        BuildGroupPlan(opt, ctx, nullptr, &run.bound, stats, build_desc);
    const size_t est =
        std::max(run.est_rows, SatMul(run.est_rows, inner.est_rows));
    if (build_desc)
      run.desc = JoinNode(PlanNode::Kind::kLeftJoin, "LeftJoin(optional)", est,
                          std::move(run.desc), std::move(inner.desc));
    run.exec = std::make_unique<LeftOuterJoin>(std::move(run.exec),
                                               std::move(inner.exec));
    run.est_rows = est;
  }
  return run;
}

}  // namespace

Plan PlanGroupPattern(const GraphPattern& gp, EvalContext* ctx,
                      const std::vector<Solution>* seeds, ExecStats* stats,
                      bool build_desc) {
  // Fix the solution width before any operator is built: sub-plans of
  // nested groups must all agree on it.
  RegisterGroupVars(gp, ctx);
  Plan plan = BuildGroupPlan(gp, ctx, seeds, nullptr, stats, build_desc);
  plan.width = ctx->vars.size();
  return plan;
}

}  // namespace kgnet::sparql
