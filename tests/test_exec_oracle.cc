// Randomized differential harness for the query executor.
//
// Each seeded case generates a random graph and a random query mixing
// BGP joins, FILTERs, UNION chains, OPTIONAL groups and LIMIT/OFFSET,
// then checks that the engine's row multiset matches a deliberately
// naive brute-force reference evaluator (nested loops over the full
// triple list, no indexes, no planner). The same generated groups also
// drive INSERT WHERE and DELETE WHERE, whose effect on the store must
// match the reference's solution set.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "sparql/engine.h"
#include "sparql/parser.h"
#include "tensor/rng.h"
#include "tests/parallel_test_util.h"

namespace kgnet::sparql {
namespace {

using rdf::Term;

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

/// The store term of a reference term (literals are xsd:integer).
Term ToTerm(const RTerm& t) {
  return t.iri ? Term::Iri(t.lex)
               : Term::TypedLiteral(t.lex,
                                    "http://www.w3.org/2001/XMLSchema#integer");
}

/// A reference term rendered like an EngineRows cell.
std::string Cell(const RTerm& t) { return (t.iri ? "i:" : "l:") + t.lex; }

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
        cells.push_back(Cell(it->second));
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
    for (const RTriple& f : c.facts)
      store.Insert(ToTerm(f.s), ToTerm(f.p), ToTerm(f.o));

    QueryEngine engine(&store);
    auto streamed = engine.ExecuteString(c.sparql);
    ASSERT_TRUE(streamed.ok())
        << streamed.status() << "\nseed=" << seed << "\n" << c.sparql;

    std::vector<Binding> oracle =
        RefEval(c.patterns, c.filters, c.unions, c.optionals, c.facts);
    auto engine_rows = EngineRows(*streamed);
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
    if (c.limit < 0 && c.offset == 0) {
      // Full result: exact multiset equality.
      ASSERT_EQ(engine_rows, oracle_rows)
          << "seed=" << seed << "\n" << c.sparql;
    } else {
      // LIMIT/OFFSET may pick any rows, but only oracle rows.
      ASSERT_TRUE(IsSubMultiset(engine_rows, oracle_rows))
          << "seed=" << seed << "\n" << c.sparql;
    }
  }
}

// Regression: a FILTER inside a nested group whose variable is bound by
// only one UNION branch reaches the planner through seed rows with
// heterogeneous bindings. It must be applied leniently per row (when the
// row binds the variable) — not dropped, and not applied to rows that
// leave the variable unbound.
TEST(ExecOracleTest, FilterOnHeterogeneousSeedBindingsMatchesExpectedRows) {
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
  auto result = engine.ExecuteString(query);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->columns,
            (std::vector<std::string>{"s", "o", "x", "y", "z"}));
  // ?y=<bad> fails the filter; ?y unbound (first branch) passes it.
  const std::vector<std::vector<std::string>> want = {
      {"i:n1", "i:n2", "i:x1", "u:", "u:"},
      {"i:n1", "i:n2", "u:", "i:good", "u:"},
  };
  EXPECT_EQ(EngineRows(*result), want);
}

// 300 randomized cases total, weighted across the query shapes the
// streaming executor must get right. The random graphs and BGPs exercise
// every bound-position combination, so the planner's scans cover all six
// permutation indexes (spo/pos/osp/pso/ops/sop).
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

/// The marked pairs in `store`: every (s, o) of an `s <urn:mark> o`
/// triple, rendered like EngineRows cells.
std::set<std::pair<std::string, std::string>> MarkedPairs(
    const rdf::TripleStore& store) {
  std::set<std::pair<std::string, std::string>> pairs;
  const rdf::TermId mark = store.dict().Find(Term::Iri("urn:mark"));
  if (mark == rdf::kNullTermId) return pairs;
  auto cell = [&](rdf::TermId id) {
    const Term t = store.dict().Lookup(id);
    return (t.is_iri() ? "i:" : "l:") + t.lexical;
  };
  for (const rdf::Triple& t :
       store.Match(rdf::TriplePattern(rdf::kNullTermId, mark,
                                      rdf::kNullTermId)))
    pairs.emplace(cell(t.s), cell(t.o));
  return pairs;
}

// INSERT WHERE and DELETE WHERE over the generated groups — UNION
// chains, OPTIONAL groups and FILTERs included. The template marks a
// pair of core-BGP variables, which every reference solution binds (the
// subject one to an IRI). The INSERT must add exactly the pairs of the
// reference's solutions; the matching DELETE must remove every one of
// them and nothing else.
TEST(ExecOracleTest, UpdatesOverGroupsMatchBruteForce) {
  GenOptions opts;
  opts.filters = true;
  opts.unions = true;
  opts.optionals = true;
  int checked = 0;
  for (uint64_t seed = 8000; seed < 8060; ++seed) {
    tensor::Rng rng(seed);
    const Case c = GenerateCase(&rng, opts);
    const std::vector<Binding> oracle =
        RefEval(c.patterns, c.filters, c.unions, c.optionals, c.facts);

    std::set<std::string> core;
    for (const RPattern& p : c.patterns)
      for (const RNode* n : {&p.s, &p.p, &p.o})
        if (n->is_var) core.insert(n->var);
    std::string subject;
    for (const std::string& v : core) {
      if (std::all_of(oracle.begin(), oracle.end(), [&](const Binding& b) {
            return b.at(v).iri;
          })) {
        subject = v;
        break;
      }
    }
    if (subject.empty()) continue;
    const std::string object = *core.rbegin();
    std::set<std::pair<std::string, std::string>> want;
    for (const Binding& b : oracle)
      want.emplace(Cell(b.at(subject)), Cell(b.at(object)));

    rdf::TripleStore::Options sopts;
    if (seed % 3 == 1)
      sopts.index_set = rdf::TripleStore::Options::IndexSet::kClassicTrio;
    if (seed % 2 == 1) sopts.block_size = 1 + seed % 5;
    rdf::TripleStore store(sopts);
    for (const RTriple& f : c.facts)
      store.Insert(ToTerm(f.s), ToTerm(f.p), ToTerm(f.o));
    QueryEngine engine(&store);

    const std::string group = c.sparql.substr(c.sparql.find('{'));
    const std::string tmpl =
        "{ ?" + subject + " <urn:mark> ?" + object + " } WHERE " + group;
    auto inserted = engine.ExecuteString("INSERT " + tmpl);
    ASSERT_TRUE(inserted.ok())
        << inserted.status() << "\nseed=" << seed << "\n" << tmpl;
    EXPECT_EQ(inserted->num_inserted, want.size())
        << "seed=" << seed << "\n" << tmpl;
    ASSERT_EQ(MarkedPairs(store), want) << "seed=" << seed << "\n" << tmpl;

    auto deleted = engine.ExecuteString("DELETE " + tmpl);
    ASSERT_TRUE(deleted.ok())
        << deleted.status() << "\nseed=" << seed << "\n" << tmpl;
    EXPECT_EQ(deleted->num_deleted, want.size())
        << "seed=" << seed << "\n" << tmpl;
    EXPECT_TRUE(MarkedPairs(store).empty()) << "seed=" << seed << "\n" << tmpl;
    EXPECT_EQ(store.size(), c.facts.size()) << "seed=" << seed;
    ++checked;
  }
  EXPECT_GE(checked, 50);
}

// A template variable that some solution leaves unbound fails the whole
// update before the store changes, and a template constant is interned
// only once some solution needs it.
TEST(ExecOracleTest, UpdateTemplateNeedsEveryVariableBound) {
  rdf::TripleStore store;
  store.InsertIris("n1", "p", "n2");
  store.InsertIris("n3", "p", "n4");
  store.InsertIris("n2", "q", "n5");
  QueryEngine engine(&store);

  auto partly = engine.ExecuteString(
      "INSERT { ?x <m> ?u } WHERE { ?x <p> ?o . OPTIONAL { ?o <q> ?u . } }");
  ASSERT_FALSE(partly.ok());
  EXPECT_EQ(partly.status().code(), StatusCode::kInvalidArgument)
      << partly.status();
  EXPECT_EQ(store.size(), 3u);

  auto none = engine.ExecuteString(
      "INSERT { ?x <urn:never> ?o } WHERE { ?x <absent> ?o . }");
  ASSERT_TRUE(none.ok()) << none.status();
  EXPECT_EQ(none->num_inserted, 0u);
  EXPECT_EQ(store.dict().Find(Term::Iri("urn:never")), rdf::kNullTermId);
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
  auto r = engine.ExecuteString(query);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->NumRows(), 2u) << "DISTINCT merged unbound with \"\"";
  // One row binds ?x to the empty literal, the other leaves it UNDEF.
  const std::vector<std::vector<std::string>> want = {{"i:s", "l:"},
                                                      {"i:s", "u:"}};
  EXPECT_EQ(EngineRows(*r), want);
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
    std::set<RTriple> live(c.facts.begin(), c.facts.end());
    for (const RTriple& f : c.facts)
      store.Insert(ToTerm(f.s), ToTerm(f.p), ToTerm(f.o));

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
        const rdf::Triple t(store.dict().Find(ToTerm(victim.s)),
                            store.dict().Find(ToTerm(victim.p)),
                            store.dict().Find(ToTerm(victim.o)));
        ASSERT_TRUE(store.Erase(t)) << "seed=" << seed;
        live.erase(it);
      }
      for (int i = 0; i < 8; ++i) {
        const RTriple f{{true, "n" + std::to_string(rng.NextUint(14))},
                        {true, "p" + std::to_string(rng.NextUint(5))},
                        {true, "n" + std::to_string(rng.NextUint(14))}};
        if (live.insert(f).second) {
          ASSERT_TRUE(store.Insert(ToTerm(f.s), ToTerm(f.p), ToTerm(f.o)));
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

// Compaction and every executor operator run serially on the calling
// thread, so no query result may depend on the pool width. Full result
// tables (rendered rows) are compared with the reference and across
// thread counts on a spread of seeded graph/query cases, so a parallel
// path added later must keep the serial row stream.
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
      for (const RTriple& f : c.facts)
        store.Insert(ToTerm(f.s), ToTerm(f.p), ToTerm(f.o));
      QueryEngine engine(&store);
      auto result = engine.ExecuteString(c.sparql);
      EXPECT_TRUE(result.ok())
          << result.status() << "\nseed=" << seed << "\n" << c.sparql;
      if (!result.ok()) {
        tables.emplace_back();
        continue;
      }
      tables.push_back(EngineRows(*result));
      const std::vector<Binding> oracle =
          RefEval(c.patterns, c.filters, c.unions, c.optionals, c.facts);
      EXPECT_EQ(tables.back(), RefRows(oracle, result->columns))
          << threads << " threads\nseed=" << seed << "\n" << c.sparql;
    }
    return tables;
  };

  const std::vector<Table> want = run(1);
  for (int threads : {2, 4})
    EXPECT_EQ(want, run(threads)) << threads << " threads";
}

}  // namespace
}  // namespace kgnet::sparql
