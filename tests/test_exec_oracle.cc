// Randomized differential harness for the streaming executor.
//
// Each seeded case generates a random graph and a random query mixing
// BGP joins, FILTERs, UNION chains, OPTIONAL groups and LIMIT/OFFSET,
// then checks that
// the engine's row multiset matches a deliberately naive brute-force
// reference evaluator (nested loops over the full triple list, no
// indexes, no planner). Both executor modes are checked: kStreaming
// against the oracle and against kMaterialized, so a divergence pins the
// bug to the new operator tree rather than to shared helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "sparql/engine.h"
#include "sparql/exec.h"
#include "sparql/parser.h"
#include "tensor/rng.h"
#include "tests/parallel_test_util.h"

namespace kgnet::sparql {
namespace {

using rdf::Term;

/// Saves and restores the process-wide MorselConfig, and installs tiny
/// thresholds (plus force_parallel) so the 15-60-triple oracle graphs
/// actually drive the morsel-parallel scan and group merge code paths
/// that production sizes would leave dormant.
class TinyMorselGuard {
 public:
  TinyMorselGuard() : saved_(GetMorselConfig()) {
    MorselConfig& cfg = GetMorselConfig();
    cfg.scan_morsel_rows = 3;
    cfg.scan_min_parallel_rows = 4;
    cfg.scan_max_wave_morsels = 4;
    cfg.smj_min_parallel_group = 2;
    cfg.force_parallel = true;
  }
  ~TinyMorselGuard() { GetMorselConfig() = saved_; }
  TinyMorselGuard(const TinyMorselGuard&) = delete;
  TinyMorselGuard& operator=(const TinyMorselGuard&) = delete;

 private:
  MorselConfig saved_;
};

// ------------------------------------------------------ reference model --

/// A term as the reference sees it: an IRI or a literal lexical form.
struct RTerm {
  bool iri = true;
  std::string lex;

  bool operator==(const RTerm& o) const {
    return iri == o.iri && lex == o.lex;
  }
  bool operator<(const RTerm& o) const {
    return std::tie(iri, lex) < std::tie(o.iri, o.lex);
  }
};

struct RTriple {
  RTerm s, p, o;
  bool operator<(const RTriple& t) const {
    return std::tie(s, p, o) < std::tie(t.s, t.p, t.o);
  }
};

/// A pattern position: a variable name or a constant.
struct RNode {
  bool is_var = false;
  std::string var;
  RTerm term;

  static RNode Var(std::string v) {
    RNode n;
    n.is_var = true;
    n.var = std::move(v);
    return n;
  }
  static RNode Const(RTerm t) {
    RNode n;
    n.term = std::move(t);
    return n;
  }
};

struct RPattern {
  RNode s, p, o;
};

enum class ROp { kEq, kNe, kLt, kLe, kGt, kGe };

struct RFilter {
  ROp op;
  RNode lhs, rhs;  // variables or constants
};

using Binding = std::map<std::string, RTerm>;

bool TryDouble(const RTerm& t, double* out) {
  // Mirrors Term::AsDouble: literals whose full lexical form parses.
  if (t.iri || t.lex.empty()) return false;
  const char* begin = t.lex.data();
  const char* end = begin + t.lex.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

/// Mirrors the engine's comparison semantics (EvalExpr in exec.cc):
/// numeric when both sides parse as numbers, otherwise kind-aware
/// lexical comparison.
bool RefCompare(ROp op, const RTerm& l, const RTerm& r) {
  double ld, rd;
  int cmp;
  if (TryDouble(l, &ld) && TryDouble(r, &rd)) {
    cmp = ld < rd ? -1 : (ld > rd ? 1 : 0);
  } else {
    if (l.iri != r.iri && (op == ROp::kEq || op == ROp::kNe))
      return op == ROp::kNe;
    int c = l.lex.compare(r.lex);
    cmp = c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  switch (op) {
    case ROp::kEq:
      return cmp == 0;
    case ROp::kNe:
      return cmp != 0;
    case ROp::kLt:
      return cmp < 0;
    case ROp::kLe:
      return cmp <= 0;
    case ROp::kGt:
      return cmp > 0;
    case ROp::kGe:
      return cmp >= 0;
  }
  return false;
}

const RTerm* ResolveRef(const RNode& n, const Binding& b) {
  if (!n.is_var) return &n.term;
  auto it = b.find(n.var);
  return it == b.end() ? nullptr : &it->second;
}

bool MatchPosition(const RNode& n, const RTerm& value, Binding* b) {
  if (!n.is_var) return n.term == value;
  auto it = b->find(n.var);
  if (it != b->end()) return it->second == value;
  b->emplace(n.var, value);
  return true;
}

std::vector<Binding> RefEvalBgp(const std::vector<RPattern>& patterns,
                                const std::vector<RTriple>& facts,
                                std::vector<Binding> sols) {
  for (const RPattern& pat : patterns) {
    std::vector<Binding> next;
    for (const Binding& sol : sols) {
      for (const RTriple& f : facts) {
        Binding ext = sol;
        if (MatchPosition(pat.s, f.s, &ext) &&
            MatchPosition(pat.p, f.p, &ext) &&
            MatchPosition(pat.o, f.o, &ext))
          next.push_back(std::move(ext));
      }
    }
    sols = std::move(next);
  }
  return sols;
}

/// Full reference evaluation: BGP, then filters (all their variables are
/// core BGP variables, so they are always bound), then dependent UNION
/// chains (each solution multiplies by its matching alternatives and is
/// dropped when none match), then OPTIONAL left joins — mirroring the
/// engine's group-evaluation order.
std::vector<Binding> RefEval(const std::vector<RPattern>& patterns,
                             const std::vector<RFilter>& filters,
                             const std::vector<std::vector<RPattern>>& unions,
                             const std::vector<RPattern>& optionals,
                             const std::vector<RTriple>& facts) {
  std::vector<Binding> sols = RefEvalBgp(patterns, facts, {Binding{}});
  std::vector<Binding> filtered;
  for (const Binding& sol : sols) {
    bool pass = true;
    for (const RFilter& f : filters) {
      const RTerm* l = ResolveRef(f.lhs, sol);
      const RTerm* r = ResolveRef(f.rhs, sol);
      if (l == nullptr || r == nullptr) continue;  // never-ready: ignored
      if (!RefCompare(f.op, *l, *r)) {
        pass = false;
        break;
      }
    }
    if (pass) filtered.push_back(sol);
  }
  sols = std::move(filtered);
  for (const std::vector<RPattern>& alternatives : unions) {
    std::vector<Binding> merged;
    for (const RPattern& alt : alternatives) {
      std::vector<Binding> branch = RefEvalBgp({alt}, facts, sols);
      merged.insert(merged.end(), branch.begin(), branch.end());
    }
    sols = std::move(merged);
  }
  for (const RPattern& opt : optionals) {
    std::vector<Binding> joined;
    for (const Binding& sol : sols) {
      std::vector<Binding> ext = RefEvalBgp({opt}, facts, {sol});
      if (ext.empty())
        joined.push_back(sol);
      else
        joined.insert(joined.end(), ext.begin(), ext.end());
    }
    sols = std::move(joined);
  }
  return sols;
}

// -------------------------------------------------------- case generator --

std::string NodeSparql(const RNode& n) {
  if (n.is_var) return "?" + n.var;
  if (n.term.iri) return "<" + n.term.lex + ">";
  return n.term.lex;  // numeric literal
}

const char* OpSparql(ROp op) {
  switch (op) {
    case ROp::kEq:
      return "=";
    case ROp::kNe:
      return "!=";
    case ROp::kLt:
      return "<";
    case ROp::kLe:
      return "<=";
    case ROp::kGt:
      return ">";
    case ROp::kGe:
      return ">=";
  }
  return "=";
}

struct Case {
  std::vector<RTriple> facts;
  std::vector<RPattern> patterns;
  std::vector<RFilter> filters;
  std::vector<std::vector<RPattern>> unions;  // chains of alternatives
  std::vector<RPattern> optionals;
  bool distinct = false;
  int64_t limit = -1;
  int64_t offset = 0;
  std::string sparql;
};

/// Feature toggles so each TEST below emphasizes one query shape while
/// all of them share the generator.
struct GenOptions {
  bool filters = false;
  bool unions = false;
  bool optionals = false;
  bool modifiers = false;  // LIMIT / OFFSET
  bool distinct = false;   // SELECT DISTINCT
};

Case GenerateCase(tensor::Rng* rng, const GenOptions& opts) {
  Case c;
  const int nodes = 4 + static_cast<int>(rng->NextUint(10));
  const int preds = 2 + static_cast<int>(rng->NextUint(3));
  const int ntrip = 15 + static_cast<int>(rng->NextUint(45));

  auto node = [&](int i) {
    return RTerm{true, "n" + std::to_string(i)};
  };
  auto pred = [&](int i) {
    return RTerm{true, "p" + std::to_string(i)};
  };

  std::set<RTriple> fact_set;
  for (int i = 0; i < ntrip; ++i) {
    fact_set.insert({node(static_cast<int>(rng->NextUint(nodes))),
                     pred(static_cast<int>(rng->NextUint(preds))),
                     node(static_cast<int>(rng->NextUint(nodes)))});
  }
  // Half the cases also carry a numeric attribute for range filters.
  const bool with_ranks = rng->NextFloat() < 0.5f;
  if (with_ranks) {
    for (int i = 0; i < nodes; ++i)
      fact_set.insert({node(i), RTerm{true, "rank"},
                       RTerm{false, std::to_string(rng->NextUint(10))}});
  }
  c.facts.assign(fact_set.begin(), fact_set.end());

  // Core BGP: 1-3 patterns over a small variable pool; constant
  // predicates except for an occasional variable-predicate pattern.
  const char* pool[] = {"a", "b", "c"};
  const int npat = 1 + static_cast<int>(rng->NextUint(3));
  bool used_var_pred = false;
  std::set<std::string> node_vars;
  for (int i = 0; i < npat; ++i) {
    RPattern pat;
    if (rng->NextFloat() < 0.7f) {
      std::string v = pool[rng->NextUint(3)];
      pat.s = RNode::Var(v);
      node_vars.insert(v);
    } else {
      pat.s = RNode::Const(node(static_cast<int>(rng->NextUint(nodes))));
    }
    if (!used_var_pred && rng->NextFloat() < 0.1f) {
      pat.p = RNode::Var("pp");
      used_var_pred = true;
    } else {
      pat.p = RNode::Const(pred(static_cast<int>(rng->NextUint(preds))));
    }
    if (rng->NextFloat() < 0.6f) {
      std::string v = pool[rng->NextUint(3)];
      pat.o = RNode::Var(v);
      node_vars.insert(v);
    } else {
      pat.o = RNode::Const(node(static_cast<int>(rng->NextUint(nodes))));
    }
    c.patterns.push_back(std::move(pat));
  }

  if (opts.filters && !node_vars.empty() && rng->NextFloat() < 0.8f) {
    std::vector<std::string> vars(node_vars.begin(), node_vars.end());
    if (with_ranks && rng->NextFloat() < 0.5f) {
      // Numeric range filter over a rank attribute of a bound variable.
      std::string v = vars[rng->NextUint(vars.size())];
      RPattern rank_pat;
      rank_pat.s = RNode::Var(v);
      rank_pat.p = RNode::Const(RTerm{true, "rank"});
      rank_pat.o = RNode::Var("r");
      c.patterns.push_back(std::move(rank_pat));
      const ROp ops[] = {ROp::kLt, ROp::kLe, ROp::kGt, ROp::kGe,
                         ROp::kEq, ROp::kNe};
      RFilter f;
      f.op = ops[rng->NextUint(6)];
      f.lhs = RNode::Var("r");
      f.rhs = RNode::Const(
          RTerm{false, std::to_string(rng->NextUint(10))});
      c.filters.push_back(std::move(f));
    } else if (vars.size() >= 2 && rng->NextFloat() < 0.4f) {
      RFilter f;
      f.op = rng->NextFloat() < 0.5f ? ROp::kEq : ROp::kNe;
      f.lhs = RNode::Var(vars[0]);
      f.rhs = RNode::Var(vars[1]);
      c.filters.push_back(std::move(f));
    } else {
      RFilter f;
      f.op = rng->NextFloat() < 0.5f ? ROp::kEq : ROp::kNe;
      f.lhs = RNode::Var(vars[rng->NextUint(vars.size())]);
      f.rhs = RNode::Const(node(static_cast<int>(rng->NextUint(nodes))));
      c.filters.push_back(std::move(f));
    }
  }

  if (opts.unions && !node_vars.empty() && rng->NextFloat() < 0.8f) {
    // One UNION chain of 2-3 single-pattern alternatives. Each branch
    // shares a variable with the core BGP (so the chain is a dependent
    // union) and may bind a branch-private variable — the heterogeneous
    // case where some output rows leave slots unbound.
    std::vector<std::string> vars(node_vars.begin(), node_vars.end());
    const int nalts = 2 + (rng->NextFloat() < 0.3f ? 1 : 0);
    std::vector<RPattern> alternatives;
    for (int i = 0; i < nalts; ++i) {
      RPattern alt;
      alt.s = RNode::Var(vars[rng->NextUint(vars.size())]);
      alt.p = RNode::Const(pred(static_cast<int>(rng->NextUint(preds))));
      const float kind = rng->NextFloat();
      if (kind < 0.4f) {
        alt.o = RNode::Var("u" + std::to_string(i));  // branch-private
      } else if (kind < 0.7f) {
        alt.o = RNode::Var(vars[rng->NextUint(vars.size())]);
      } else {
        alt.o = RNode::Const(node(static_cast<int>(rng->NextUint(nodes))));
      }
      alternatives.push_back(std::move(alt));
    }
    c.unions.push_back(std::move(alternatives));
  }

  if (opts.optionals && !node_vars.empty() && rng->NextFloat() < 0.7f) {
    std::vector<std::string> vars(node_vars.begin(), node_vars.end());
    RPattern opt;
    opt.s = RNode::Var(vars[rng->NextUint(vars.size())]);
    opt.p = RNode::Const(pred(static_cast<int>(rng->NextUint(preds))));
    opt.o = rng->NextFloat() < 0.7f
                ? RNode::Var("x")
                : RNode::Const(node(static_cast<int>(rng->NextUint(nodes))));
    c.optionals.push_back(std::move(opt));
  }

  if (opts.modifiers) {
    if (rng->NextFloat() < 0.7f)
      c.limit = 1 + static_cast<int64_t>(rng->NextUint(8));
    if (rng->NextFloat() < 0.3f)
      c.offset = static_cast<int64_t>(rng->NextUint(4));
  }
  if (opts.distinct) c.distinct = rng->NextFloat() < 0.8f;

  std::string q = c.distinct ? "SELECT DISTINCT * WHERE { "
                             : "SELECT * WHERE { ";
  for (const RPattern& p : c.patterns)
    q += NodeSparql(p.s) + " " + NodeSparql(p.p) + " " + NodeSparql(p.o) +
         " . ";
  for (const RFilter& f : c.filters)
    q += "FILTER(" + NodeSparql(f.lhs) + " " + OpSparql(f.op) + " " +
         NodeSparql(f.rhs) + ") ";
  for (const auto& alternatives : c.unions) {
    for (size_t i = 0; i < alternatives.size(); ++i) {
      if (i > 0) q += "UNION ";
      const RPattern& p = alternatives[i];
      q += "{ " + NodeSparql(p.s) + " " + NodeSparql(p.p) + " " +
           NodeSparql(p.o) + " . } ";
    }
  }
  for (const RPattern& p : c.optionals)
    q += "OPTIONAL { " + NodeSparql(p.s) + " " + NodeSparql(p.p) + " " +
         NodeSparql(p.o) + " . } ";
  q += "}";
  if (c.limit >= 0) q += " LIMIT " + std::to_string(c.limit);
  if (c.offset > 0) q += " OFFSET " + std::to_string(c.offset);
  c.sparql = q;
  return c;
}

// ------------------------------------------------------------ comparison --

/// Engine rows rendered as comparable string tuples, sorted.
std::vector<std::vector<std::string>> EngineRows(const QueryResult& r) {
  std::vector<std::vector<std::string>> rows;
  for (const auto& row : r.rows) {
    std::vector<std::string> cells;
    for (const Term& t : row)
      cells.push_back(t.is_undef() ? "u:"
                                   : (t.is_iri() ? "i:" : "l:") + t.lexical);
    rows.push_back(std::move(cells));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Reference bindings rendered against the engine's column list.
std::vector<std::vector<std::string>> RefRows(
    const std::vector<Binding>& sols, const std::vector<std::string>& cols) {
  std::vector<std::vector<std::string>> rows;
  for (const Binding& sol : sols) {
    std::vector<std::string> cells;
    for (const std::string& col : cols) {
      auto it = sol.find(col);
      if (it == sol.end()) {
        cells.push_back("u:");  // unbound projects as an explicit UNDEF
      } else {
        cells.push_back((it->second.iri ? "i:" : "l:") + it->second.lex);
      }
    }
    rows.push_back(std::move(cells));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// True when `sub` is a sub-multiset of `full` (both sorted).
bool IsSubMultiset(const std::vector<std::vector<std::string>>& sub,
                   const std::vector<std::vector<std::string>>& full) {
  size_t j = 0;
  for (const auto& row : sub) {
    while (j < full.size() && full[j] < row) ++j;
    if (j >= full.size() || full[j] != row) return false;
    ++j;
  }
  return true;
}

void RunSeeds(uint64_t first_seed, int count, const GenOptions& opts) {
  for (int i = 0; i < count; ++i) {
    const uint64_t seed = first_seed + static_cast<uint64_t>(i);
    tensor::Rng rng(seed);
    Case c = GenerateCase(&rng, opts);

    // The store configuration rotates with the seed so the differential
    // cases also cover the classic-trio index subset (planner fallback
    // when a permutation is absent) and tiny compressed-block sizes
    // (cursor decode across many block boundaries).
    rdf::TripleStore::Options sopts;
    if (seed % 3 == 1)
      sopts.index_set = rdf::TripleStore::Options::IndexSet::kClassicTrio;
    if (seed % 2 == 1) sopts.block_size = 1 + seed % 5;
    rdf::TripleStore store(sopts);
    for (const RTriple& f : c.facts) {
      auto to_term = [](const RTerm& t) {
        return t.iri ? Term::Iri(t.lex)
                     : Term::TypedLiteral(
                           t.lex, "http://www.w3.org/2001/XMLSchema#integer");
      };
      store.Insert(to_term(f.s), to_term(f.p), to_term(f.o));
    }

    QueryEngine engine(&store);
    engine.set_exec_mode(ExecMode::kStreaming);
    auto streamed = engine.ExecuteString(c.sparql);
    ASSERT_TRUE(streamed.ok())
        << streamed.status() << "\nseed=" << seed << "\n" << c.sparql;
    engine.set_exec_mode(ExecMode::kMaterialized);
    auto legacy = engine.ExecuteString(c.sparql);
    ASSERT_TRUE(legacy.ok())
        << legacy.status() << "\nseed=" << seed << "\n" << c.sparql;

    // Third pass: the same streaming plan driven through the
    // morsel-parallel operators (tiny thresholds + force_parallel). The
    // determinism contract says the parallel operators emit the exact
    // serial row stream, so even LIMIT/OFFSET results — free to pick any
    // rows — must be *identical* to the serial streaming run.
    {
      TinyMorselGuard morsels;
      engine.set_exec_mode(ExecMode::kStreaming);
      auto parallel = engine.ExecuteString(c.sparql);
      ASSERT_TRUE(parallel.ok())
          << parallel.status() << "\nseed=" << seed << "\n" << c.sparql;
      ASSERT_EQ(parallel->rows, streamed->rows)
          << "parallel operators diverged from serial\nseed=" << seed << "\n"
          << c.sparql;
    }

    std::vector<Binding> oracle =
        RefEval(c.patterns, c.filters, c.unions, c.optionals, c.facts);
    auto engine_rows = EngineRows(*streamed);
    auto legacy_rows = EngineRows(*legacy);
    auto oracle_rows = RefRows(oracle, streamed->columns);
    if (c.distinct)
      oracle_rows.erase(std::unique(oracle_rows.begin(), oracle_rows.end()),
                        oracle_rows.end());

    const size_t total = oracle_rows.size();
    const size_t after_offset =
        c.offset >= static_cast<int64_t>(total)
            ? 0
            : total - static_cast<size_t>(c.offset);
    const size_t expected =
        c.limit >= 0 ? std::min<size_t>(after_offset, c.limit) : after_offset;

    ASSERT_EQ(engine_rows.size(), expected)
        << "seed=" << seed << "\n" << c.sparql;
    ASSERT_EQ(legacy_rows.size(), expected)
        << "seed=" << seed << "\n" << c.sparql;
    if (c.limit < 0 && c.offset == 0) {
      // Full result: exact multiset equality, in both modes.
      ASSERT_EQ(engine_rows, oracle_rows)
          << "seed=" << seed << "\n" << c.sparql;
      ASSERT_EQ(legacy_rows, oracle_rows)
          << "seed=" << seed << "\n" << c.sparql;
    } else {
      // LIMIT/OFFSET may pick any rows, but only oracle rows.
      ASSERT_TRUE(IsSubMultiset(engine_rows, oracle_rows))
          << "seed=" << seed << "\n" << c.sparql;
      ASSERT_TRUE(IsSubMultiset(legacy_rows, oracle_rows))
          << "seed=" << seed << "\n" << c.sparql;
    }
  }
}

// Regression: a FILTER inside a nested group whose variable is bound by
// only one UNION branch reaches the streaming planner through seed rows
// with heterogeneous bindings. It must be applied leniently per row
// (when the row binds the variable), exactly like the legacy evaluator —
// not dropped.
TEST(ExecOracleTest, FilterOnHeterogeneousSeedBindingsMatchesLegacy) {
  rdf::TripleStore store;
  store.InsertIris("n1", "p1", "n2");
  store.InsertIris("n1", "p2", "x1");
  store.InsertIris("n2", "p2", "good");
  store.InsertIris("n2", "p2", "bad");
  const std::string query =
      "SELECT * WHERE { ?s <p1> ?o . "
      "{ ?s <p2> ?x } UNION { ?o <p2> ?y } "
      "{ ?s <p1> ?o . FILTER(?y = <good>) } UNION { ?s <p3> ?z } }";

  QueryEngine engine(&store);
  auto streamed = engine.ExecuteString(query);
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  engine.set_exec_mode(ExecMode::kMaterialized);
  auto legacy = engine.ExecuteString(query);
  ASSERT_TRUE(legacy.ok()) << legacy.status();
  EXPECT_EQ(EngineRows(*streamed), EngineRows(*legacy));
  // ?y=<bad> fails the filter; ?y unbound (first branch) passes it.
  EXPECT_EQ(streamed->NumRows(), 2u);
}

// 300 randomized cases total, weighted across the query shapes the
// streaming executor must get right. The random graphs and BGPs exercise
// every bound-position combination, so the planner's scans cover all six
// permutation indexes (spo/pos/osp/pso/ops/sop) in both executor modes.
TEST(ExecOracleTest, BasicGraphPatternsMatchBruteForce) {
  RunSeeds(1000, 60, GenOptions{});
}

TEST(ExecOracleTest, FiltersMatchBruteForce) {
  GenOptions opts;
  opts.filters = true;
  RunSeeds(2000, 60, opts);
}

TEST(ExecOracleTest, OptionalsMatchBruteForce) {
  GenOptions opts;
  opts.filters = true;
  opts.optionals = true;
  RunSeeds(3000, 50, opts);
}

TEST(ExecOracleTest, UnionsMatchBruteForce) {
  GenOptions opts;
  opts.unions = true;
  RunSeeds(5000, 50, opts);
}

TEST(ExecOracleTest, UnionsWithFiltersAndOptionalsMatchBruteForce) {
  GenOptions opts;
  opts.filters = true;
  opts.unions = true;
  opts.optionals = true;
  RunSeeds(6000, 40, opts);
}

TEST(ExecOracleTest, LimitOffsetMatchBruteForce) {
  GenOptions opts;
  opts.filters = true;
  opts.unions = true;
  opts.optionals = true;
  opts.modifiers = true;
  RunSeeds(4000, 40, opts);
}

// DISTINCT composed with OFFSET and LIMIT (dedup happens before the
// modifiers), over union/optional shapes whose rows carry unbound slots
// — the case where DISTINCT must not merge an unbound cell with a bound
// one.
TEST(ExecOracleTest, DistinctLimitOffsetMatchBruteForce) {
  GenOptions opts;
  opts.filters = true;
  opts.unions = true;
  opts.optionals = true;
  opts.modifiers = true;
  opts.distinct = true;
  RunSeeds(7000, 40, opts);
}

// Regression: unbound projection cells used to materialize as empty
// *literals*, so DISTINCT merged a row whose ?x is genuinely "" with a
// row whose ?x is unbound. With the explicit UNDEF representation the
// two rows stay distinct (and serialize distinguishably).
TEST(ExecOracleTest, DistinctKeepsUnboundApartFromEmptyLiteral) {
  rdf::TripleStore store;
  store.Insert(Term::Iri("s"), Term::Iri("p"), Term::Literal(""));
  store.InsertIris("s", "q", "o");
  const std::string query =
      "SELECT DISTINCT ?s ?x WHERE { { ?s <p> ?x } UNION { ?s <q> <o> } }";
  QueryEngine engine(&store);
  for (ExecMode mode : {ExecMode::kStreaming, ExecMode::kMaterialized}) {
    engine.set_exec_mode(mode);
    auto r = engine.ExecuteString(query);
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_EQ(r->NumRows(), 2u) << "DISTINCT merged unbound with \"\"";
    // One row binds ?x to the empty literal, the other leaves it UNDEF.
    int undef = 0, empty_lit = 0;
    for (const auto& row : r->rows) {
      if (row[1].is_undef()) ++undef;
      if (row[1].is_literal() && row[1].lexical.empty()) ++empty_lit;
    }
    EXPECT_EQ(undef, 1);
    EXPECT_EQ(empty_lit, 1);
  }
}

// The MVCC guarantee at the query layer: a query executed against a
// snapshot opened *before* a mutation batch returns exactly the
// pre-batch answer, while the same parsed query on the live store
// tracks the updated graph — both sides differentially checked against
// the brute-force reference on their respective fact sets, across
// interleaved insert/erase batches and a mid-sequence compaction.
TEST(ExecOracleTest, SnapshotQueriesSurviveInterleavedMutationBatches) {
  for (uint64_t seed = 9200; seed < 9212; ++seed) {
    tensor::Rng rng(seed);
    GenOptions opts;
    opts.filters = true;
    opts.unions = seed % 2 == 0;
    opts.optionals = seed % 3 == 0;
    Case c = GenerateCase(&rng, opts);

    rdf::TripleStore::Options sopts;
    if (seed % 2 == 1) sopts.block_size = 1 + seed % 5;
    rdf::TripleStore store(sopts);
    auto to_term = [](const RTerm& t) {
      return t.iri ? Term::Iri(t.lex)
                   : Term::TypedLiteral(
                         t.lex, "http://www.w3.org/2001/XMLSchema#integer");
    };
    std::set<RTriple> live(c.facts.begin(), c.facts.end());
    for (const RTriple& f : c.facts)
      store.Insert(to_term(f.s), to_term(f.p), to_term(f.o));

    auto parsed = ParseQuery(c.sparql);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << c.sparql;
    QueryEngine engine(&store);

    for (int round = 0; round < 3; ++round) {
      const std::vector<RTriple> frozen(live.begin(), live.end());
      rdf::Snapshot snap = store.OpenSnapshot();

      // Mutation batch: erase a handful of live facts, insert fresh
      // ones (duplicates skipped in both the store and the model).
      for (int i = 0; i < 6 && !live.empty(); ++i) {
        auto it = live.begin();
        std::advance(it, rng.NextUint(live.size()));
        const RTriple victim = *it;
        const rdf::Triple t(store.dict().Find(to_term(victim.s)),
                            store.dict().Find(to_term(victim.p)),
                            store.dict().Find(to_term(victim.o)));
        ASSERT_TRUE(store.Erase(t)) << "seed=" << seed;
        live.erase(it);
      }
      for (int i = 0; i < 8; ++i) {
        const RTriple f{{true, "n" + std::to_string(rng.NextUint(14))},
                        {true, "p" + std::to_string(rng.NextUint(5))},
                        {true, "n" + std::to_string(rng.NextUint(14))}};
        if (live.insert(f).second) {
          ASSERT_TRUE(store.Insert(to_term(f.s), to_term(f.p), to_term(f.o)));
        }
      }
      if (round == 1) store.Compact();

      // The pre-batch snapshot answers from the pre-batch graph.
      ExecInfo info;
      auto snap_result = engine.Execute(*parsed, snap, &info);
      ASSERT_TRUE(snap_result.ok())
          << snap_result.status() << "\nseed=" << seed << "\n" << c.sparql;
      EXPECT_EQ(info.snapshot_epoch, snap.epoch());
      EXPECT_EQ(info.snapshot_delta, snap.delta_size());
      const std::vector<Binding> oracle_pre =
          RefEval(c.patterns, c.filters, c.unions, c.optionals, frozen);
      ASSERT_EQ(EngineRows(*snap_result),
                RefRows(oracle_pre, snap_result->columns))
          << "pre-mutation snapshot diverged\nseed=" << seed << " round="
          << round << "\n" << c.sparql;

      // The live store answers from the updated graph.
      const std::vector<RTriple> now(live.begin(), live.end());
      auto live_result = engine.Execute(*parsed);
      ASSERT_TRUE(live_result.ok())
          << live_result.status() << "\nseed=" << seed << "\n" << c.sparql;
      const std::vector<Binding> oracle_now =
          RefEval(c.patterns, c.filters, c.unions, c.optionals, now);
      ASSERT_EQ(EngineRows(*live_result),
                RefRows(oracle_now, live_result->columns))
          << "post-mutation store diverged\nseed=" << seed << " round="
          << round << "\n" << c.sparql;
    }
  }
}

// The store's index flush (and the N-Triples bulk load above it) runs on
// the shared thread pool; every query result table must be identical no
// matter how many pool threads rebuilt the permutation runs. Full result
// tables (rendered rows, both executor modes) are compared across
// thread counts on a spread of seeded graph/query cases.
TEST(ExecOracleTest, ResultTablesIdenticalAcrossThreadCounts) {
  kgnet::testing::ThreadCountGuard thread_guard;
  GenOptions opts;
  opts.filters = true;
  opts.unions = true;
  opts.optionals = true;

  using Table = std::vector<std::vector<std::string>>;
  auto run = [&](int threads) {
    common::ThreadPool::SetNumThreads(threads);
    std::vector<Table> tables;
    for (uint64_t seed = 9000; seed < 9012; ++seed) {
      tensor::Rng rng(seed);
      Case c = GenerateCase(&rng, opts);
      rdf::TripleStore store;
      for (const RTriple& f : c.facts) {
        auto to_term = [](const RTerm& t) {
          return t.iri ? Term::Iri(t.lex)
                       : Term::TypedLiteral(
                             t.lex,
                             "http://www.w3.org/2001/XMLSchema#integer");
        };
        store.Insert(to_term(f.s), to_term(f.p), to_term(f.o));
      }
      QueryEngine engine(&store);
      for (ExecMode mode : {ExecMode::kStreaming, ExecMode::kMaterialized}) {
        engine.set_exec_mode(mode);
        auto result = engine.ExecuteString(c.sparql);
        EXPECT_TRUE(result.ok())
            << result.status() << "\nseed=" << seed << "\n" << c.sparql;
        tables.push_back(result.ok() ? EngineRows(*result) : Table{});
      }
    }
    return tables;
  };

  const std::vector<Table> want = run(1);
  for (int threads : {2, 4})
    EXPECT_EQ(want, run(threads)) << threads << " threads";
}

// The tentpole guarantee for the morsel-driven executor: with the
// parallel operators engaged (tiny thresholds + force_parallel), the
// result tables — in emission order, not just as multisets — are
// bitwise-identical at 1, 2 and 4 pool threads, and identical to the
// plain serial streaming run. DISTINCT/LIMIT/OFFSET cases are included
// so the modifier pipeline sees the same stream too.
TEST(ExecOracleTest, ParallelOperatorsIdenticalAcrossThreadCounts) {
  kgnet::testing::ThreadCountGuard thread_guard;
  GenOptions opts;
  opts.filters = true;
  opts.unions = true;
  opts.optionals = true;
  opts.modifiers = true;
  opts.distinct = true;

  using OrderedTable = std::vector<std::vector<Term>>;
  auto run = [&](int threads, bool parallel_ops) {
    common::ThreadPool::SetNumThreads(threads);
    std::unique_ptr<TinyMorselGuard> morsels;
    if (parallel_ops) morsels = std::make_unique<TinyMorselGuard>();
    std::vector<OrderedTable> tables;
    for (uint64_t seed = 9100; seed < 9116; ++seed) {
      tensor::Rng rng(seed);
      Case c = GenerateCase(&rng, opts);
      rdf::TripleStore store;
      for (const RTriple& f : c.facts) {
        auto to_term = [](const RTerm& t) {
          return t.iri ? Term::Iri(t.lex)
                       : Term::TypedLiteral(
                             t.lex,
                             "http://www.w3.org/2001/XMLSchema#integer");
        };
        store.Insert(to_term(f.s), to_term(f.p), to_term(f.o));
      }
      QueryEngine engine(&store);
      engine.set_exec_mode(ExecMode::kStreaming);
      auto result = engine.ExecuteString(c.sparql);
      EXPECT_TRUE(result.ok())
          << result.status() << "\nseed=" << seed << "\n" << c.sparql;
      tables.push_back(result.ok() ? result->rows : OrderedTable{});
    }
    return tables;
  };

  const std::vector<OrderedTable> serial = run(1, /*parallel_ops=*/false);
  for (int threads : {1, 2, 4}) {
    EXPECT_TRUE(serial == run(threads, /*parallel_ops=*/true))
        << "parallel executor diverged at " << threads << " threads";
  }
}

}  // namespace
}  // namespace kgnet::sparql
