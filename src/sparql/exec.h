// Volcano-style streaming execution for the SPARQL engine.
//
// The planner (sparql/plan.h) compiles a basic graph pattern into a tree
// of Operators. Execution is pull-based: every Next() call produces one
// solution row (a slot -> TermId vector), so work proceeds lazily and a
// LIMIT at the top of the tree stops the index scans underneath after
// just enough rows. IndexScan streams one TripleStore permutation-index
// range in sorted order; SortMergeJoin exploits that order; HashJoin
// (symmetric, lazily-built) and BindJoin (index nested-loop) cover the
// unordered cases; UnionAll and LeftOuterJoin stream UNION and OPTIONAL
// groups without materializing between stages.
//
// Morsel-driven parallelism: when more than one thread is configured
// (see common/thread_pool.h) IndexScan decodes waves of index-range
// morsels on the shared pool and SortMergeJoin merges large right-side
// groups in chunks; HashJoin has one serial code path. Every parallel
// path is latched at Open(): with one thread (and force_parallel off)
// the exact serial code runs, and when a parallel path does engage,
// morsel bounds and merge order are pure functions of the MorselConfig
// — never of the thread count — so the emitted row stream is
// bitwise-identical to the serial one at any KGNET_NUM_THREADS. LIMIT
// short-circuiting survives because scan waves ramp up from small sizes
// instead of materializing inputs.
//
// This header also hosts the evaluation helpers shared with the engine's
// projection/filter code: the variable table, compiled patterns and the
// expression evaluator.
#ifndef KGNET_SPARQL_EXEC_H_
#define KGNET_SPARQL_EXEC_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"
#include "rdf/triple_store.h"
#include "sparql/ast.h"
#include "sparql/udf_registry.h"

namespace kgnet::sparql {

/// Maps variable names to dense solution slots for one query.
class VarTable {
 public:
  int SlotOf(const std::string& name) {
    auto it = index_.find(name);
    if (it != index_.end()) return it->second;
    int slot = static_cast<int>(names_.size());
    index_.emplace(name, slot);
    names_.push_back(name);
    return slot;
  }
  int Find(const std::string& name) const {
    auto it = index_.find(name);
    return it == index_.end() ? -1 : it->second;
  }
  size_t size() const { return names_.size(); }
  const std::string& name(int slot) const { return names_[slot]; }

 private:
  std::unordered_map<std::string, int> index_;
  std::vector<std::string> names_;
};

/// One (partial) solution: slot -> bound term id (kNullTermId = unbound).
using Solution = std::vector<rdf::TermId>;

/// Shared state for one query execution. All data reads go through
/// `snapshot` — one epoch-stamped view opened at plan time, so the
/// whole query (planner estimates, scans, sub-SELECTs) observes a
/// single consistent epoch regardless of concurrent writers. The store
/// pointer remains for the dictionary (term interning/lookup) and for
/// applying updates.
struct EvalContext {
  rdf::TripleStore* store = nullptr;
  rdf::Snapshot snapshot;
  UdfRegistry* udfs = nullptr;
  VarTable vars;
  /// Cooperative cancellation handle for this execution. The default
  /// token is inert; the serving layer installs a real one so deadlined
  /// or abandoned queries stop mid-scan (docs/RESILIENCE.md).
  common::CancelToken cancel;
};

/// Truthiness of a term under SPARQL effective-boolean-value rules
/// (simplified).
bool EffectiveBool(const rdf::Term& t);

/// An xsd:boolean literal.
rdf::Term BoolTerm(bool b);

/// Collects the variables an expression mentions.
void CollectExprVars(const ExprPtr& e, std::set<std::string>* out);

/// Evaluates an expression under the bindings of `sol`.
Result<rdf::Term> EvalExpr(const ExprPtr& e, EvalContext* ctx,
                           const Solution& sol);

/// A FILTER expression compiled at plan time: variables are resolved to
/// slots once, and Test() compares the bound terms in place in the
/// dictionary — no Term copy and no result-term allocation per row.
/// Test() returns exactly EffectiveBool(EvalExpr(expr, ...)), errors
/// included; UDF calls and the operands nested under them fall back to
/// EvalExpr.
class CompiledExpr {
 public:
  CompiledExpr(ExprPtr expr, EvalContext* ctx);

  Result<bool> Test(const Solution& row) const;
  const ExprPtr& expr() const { return expr_; }

 private:
  struct Node {
    ExprPtr src;
    int slot = -1;           // kVar: the variable's slot (-1: unknown)
    int lhs = -1, rhs = -1;  // child node indices
  };
  int Compile(const ExprPtr& e, EvalContext* ctx);
  Result<bool> TestNode(int i, const Solution& row) const;
  /// The term an operand denotes: the dictionary entry of a variable,
  /// the constant itself, or — for any other expression — its EvalExpr
  /// value stored in `*scratch`.
  Result<const rdf::Term*> Operand(int i, const Solution& row,
                                   rdf::Term* scratch) const;

  ExprPtr expr_;
  EvalContext* ctx_;
  std::vector<Node> nodes_;  // nodes_[0] is the root
};

/// A triple pattern with every position resolved to either a variable
/// slot (>= 0) or a constant term id.
struct CompiledPattern {
  int s_slot = -1;  // -1 = constant
  int p_slot = -1;
  int o_slot = -1;
  rdf::TermId s_const = rdf::kNullTermId;
  rdf::TermId p_const = rdf::kNullTermId;
  rdf::TermId o_const = rdf::kNullTermId;
};

/// Resolves `pt`, registering its variables in ctx->vars and interning its
/// constants.
CompiledPattern CompilePattern(const PatternTriple& pt, EvalContext* ctx);

/// Substitutes current bindings: a bound slot acts as a constant, a free
/// slot stays a wildcard.
rdf::TriplePattern BindPattern(const CompiledPattern& cp, const Solution& sol);

/// Counters shared by every operator of one plan; surfaced to callers as
/// QueryEngine::ExecInfo so tests can assert that LIMIT short-circuits.
/// Updated only on the driver thread — parallel morsels count into
/// per-morsel slots that the driver folds in after each wave — so the
/// totals are deterministic for a fixed MorselConfig.
struct ExecStats {
  size_t rows_scanned = 0;  // matching triples pulled out of index cursors
  size_t rows_walked = 0;   // index rows those cursors consumed to do so
};

/// Tuning knobs for the executor's morsel-driven parallelism. All sizes
/// are thread-count independent on purpose: they fix the morsel bounds
/// and merge order, which is what keeps results
/// bitwise-identical at any thread count. The defaults keep small
/// queries (and every existing LIMIT short-circuit guarantee) on the
/// serial code path; tests shrink them to drive the parallel operators
/// over tiny graphs.
struct MorselConfig {
  /// Index rows per scan morsel (one ParallelFor chunk).
  size_t scan_morsel_rows = 1024;
  /// Minimum index range before IndexScan parallelizes at all.
  size_t scan_min_parallel_rows = 4096;
  /// Wave ramp cap: a scan decodes 1, 2, 4, ... up to this many morsels
  /// ahead of consumption, so a LIMIT near the top still stops early.
  size_t scan_max_wave_morsels = 32;
  /// Minimum right-group size before SortMergeJoin merges a group on the
  /// pool instead of row-at-a-time.
  size_t smj_min_parallel_group = 256;
  /// Engage the parallel code paths even at one configured thread
  /// (ParallelFor then runs inline with identical chunk bounds). Lets
  /// single-threaded tests and benchmarks exercise the morsel machinery.
  bool force_parallel = false;
};

/// The process-wide executor parallelism knobs. Mutate only between
/// queries (operators snapshot it at Open); the defaults are right for
/// production use.
MorselConfig& GetMorselConfig();

/// A pull-based streaming operator.
class Operator {
 public:
  virtual ~Operator() = default;

  /// (Re)starts the stream. `outer` supplies bindings from the enclosing
  /// context: the all-unbound row at the plan root, or the current outer
  /// row when a BindJoin re-opens its inner side.
  virtual void Open(const Solution& outer) = 0;

  /// Produces the next row (full slot width) into `*row`. Returns false
  /// when the stream is exhausted or an error occurred (check status()).
  virtual bool Next(Solution* row) = 0;

  /// Variable slot whose values are non-decreasing across emitted rows,
  /// or -1 when the stream is unordered. SortMergeJoin requires both of
  /// its inputs to be ordered on the join slot.
  virtual int ordered_slot() const { return -1; }

  const Status& status() const { return status_; }

  /// Installs the cancellation token this operator polls from Next().
  /// The planner sets it on the operators it constructs; the default
  /// token is inert. Not recursive — each operator gets its own call.
  void set_cancel_token(common::CancelToken token) {
    cancel_ = std::move(token);
  }

 protected:
  /// Cancellation poll for Next() loops: true once the token tripped,
  /// with status_ set to the Cancelled/DeadlineExceeded status. Polls
  /// only on the driver thread (Next() is driver-only), per the
  /// CancelToken threading contract.
  bool Cancelled() {
    if (!cancel_.valid()) return false;
    Status s = cancel_.Check();
    if (s.ok()) return false;
    status_ = std::move(s);
    return true;
  }

  Status status_ = Status::OK();
  common::CancelToken cancel_;
};

/// Merges two partial rows into `out`; false when some slot carries
/// different ids on the two sides (join inconsistency).
bool MergeRows(const Solution& l, const Solution& r, Solution* out);

/// Emits a fixed set of seed solutions (sub-SELECT output, OPTIONAL outer
/// rows, or the single empty row that starts a plain query).
class SeedScan : public Operator {
 public:
  /// Borrows `seeds` (must outlive the operator); rows are widened to
  /// `width` slots as they stream out.
  SeedScan(const std::vector<Solution>* seeds, size_t width)
      : seeds_(seeds), width_(width) {}
  /// Owns a seed set (used for the implicit single empty seed).
  SeedScan(std::vector<Solution> seeds, size_t width)
      : owned_(std::move(seeds)), seeds_(&owned_), width_(width) {}

  void Open(const Solution& outer) override;
  bool Next(Solution* row) override;

 private:
  std::vector<Solution> owned_;
  const std::vector<Solution>* seeds_;
  size_t width_;
  size_t pos_ = 0;
  Solution outer_;
};

/// Streams one triple pattern from a permutation-index range, binding the
/// pattern's free slots. With a fixed `order`, rows arrive sorted by
/// `ordered_slot`; without one, the best index is chosen at Open() time
/// from the then-bound positions (the BindJoin inner side, and UNION /
/// OPTIONAL scans that seek on an outer binding).
class IndexScan : public Operator {
 public:
  IndexScan(const rdf::Snapshot* snapshot, const CompiledPattern& cp,
            size_t width, std::optional<rdf::IndexOrder> order,
            int ordered_slot, ExecStats* stats)
      : snapshot_(snapshot),
        cp_(cp),
        width_(width),
        order_(order),
        ordered_slot_(ordered_slot),
        stats_(stats) {}

  void Open(const Solution& outer) override;
  bool Next(Solution* row) override;
  int ordered_slot() const override { return ordered_slot_; }

 private:
  /// Binds `t` into `*row` (starting from base_); false when a repeated
  /// variable disagrees with itself.
  bool BindRow(const rdf::Triple& t, Solution* row) const;
  /// Decodes the next wave of morsels from the index range into buf_
  /// (parallel mode only).
  void DecodeWave();

  const rdf::Snapshot* snapshot_;
  CompiledPattern cp_;
  size_t width_;
  std::optional<rdf::IndexOrder> order_;
  int ordered_slot_;
  ExecStats* stats_;
  rdf::TripleCursor cursor_;
  Solution base_;
  // Morsel-parallel scan state. When parallel_ (latched at Open: range
  // >= scan_min_parallel_rows and pool configured wide, or
  // force_parallel), cursor_ stays parked at the range start and waves
  // of Slice() morsels decode on the pool into buf_, merged in morsel
  // order; otherwise Next() advances cursor_ exactly as before.
  bool parallel_ = false;
  size_t morsel_rows_ = 1;   // MorselConfig values latched when parallel_
  size_t max_wave_ = 1;
  size_t total_rows_ = 0;    // index rows in the range at Open
  size_t scan_pos_ = 0;      // index rows already decoded
  size_t wave_morsels_ = 1;  // ramp: morsels in the next wave
  std::vector<Solution> buf_;
  size_t buf_pos_ = 0;
};

/// Merge join of two inputs ordered on the same variable slot. Residual
/// shared variables (beyond the key) are checked by MergeRows.
class SortMergeJoin : public Operator {
 public:
  SortMergeJoin(std::unique_ptr<Operator> left,
                std::unique_ptr<Operator> right, int key_slot)
      : left_(std::move(left)), right_(std::move(right)), key_(key_slot) {}

  void Open(const Solution& outer) override;
  bool Next(Solution* row) override;
  int ordered_slot() const override { return key_; }

 private:
  bool AdvanceLeft();
  bool AdvanceRight();
  /// Merges the rest of the current right group with lrow_ on the pool
  /// (chunk-ordered, so the emitted order equals the serial one) into
  /// emit_, consuming the group.
  void MergeGroupParallel();

  std::unique_ptr<Operator> left_, right_;
  int key_;
  Solution lrow_, rrow_;
  bool lvalid_ = false, rvalid_ = false;
  std::vector<Solution> group_;  // right rows sharing the current key
  rdf::TermId gkey_ = rdf::kNullTermId;
  size_t gpos_ = 0;
  bool matching_ = false;
  // Parallel group emission (latched at Open; engages per group when the
  // group is at least smj_min_parallel_group rows).
  bool parallel_ = false;
  MorselConfig cfg_;
  std::vector<Solution> emit_;
  size_t epos_ = 0;
};

/// Hash join with a lazily-drained build side (symmetric hash join).
/// Instead of materializing the whole build input at Open(), Next() pulls
/// one row at a time, alternating between the two inputs; each new row is
/// hashed into its side's table and probed against the other side's, so
/// every matching pair is emitted exactly once — when the later of its
/// two rows arrives. A LIMIT above therefore stops *both* scans early,
/// where an eager build always paid for its full index range. The price
/// is that output interleaves the two sides, so the stream is unordered
/// (ordered_slot -1). An empty key set degenerates to a cross product
/// (single bucket). Tables and pending output are flat arenas reused
/// across re-opens, so steady-state pulls allocate nothing.
class HashJoin : public Operator {
 public:
  HashJoin(std::unique_ptr<Operator> probe, std::unique_ptr<Operator> build,
           std::vector<int> key_slots)
      : probe_(std::move(probe)),
        build_(std::move(build)),
        key_slots_(std::move(key_slots)) {}

  void Open(const Solution& outer) override;
  bool Next(Solution* row) override;

 private:
  /// One input's stored rows: a row arena plus a chained key index over
  /// it. A key's rows chain in arrival order, which fixes the order in
  /// which a new row's matches are emitted. Only keyed lookups — never
  /// iterated as a whole.
  struct Table {
    static constexpr uint32_t kEnd = UINT32_MAX;
    std::vector<rdf::TermId> ids;   // rows, `width` ids each
    std::vector<uint64_t> keys;     // per row: its key hash
    std::vector<uint32_t> next;     // per row: next row of its bucket
    std::vector<uint32_t> head, tail;  // per bucket (a power of two)

    void Clear();
    void Insert(const Solution& row, uint64_t key);
  };

  /// FNV-1a over the key slot ids. A (vanishingly rare) collision merges
  /// two buckets, which only costs extra MergeIds attempts — MergeIds
  /// re-validates every shared slot, so results stay exact.
  uint64_t KeyOf(const Solution& row) const;

  /// Pulls one row following the alternation protocol, probes the other
  /// side's table and stores it. Appends matches to pending_.
  void StepOne();

  std::unique_ptr<Operator> probe_, build_;
  std::vector<int> key_slots_;
  Table ptable_, btable_;
  Solution pulled_;
  size_t width_ = 0;
  std::vector<rdf::TermId> pending_;  // merged rows awaiting emission
  size_t out_pos_ = 0;                // next pending_ id to emit
  bool probe_done_ = false, build_done_ = false;
  bool turn_probe_ = true;
};

/// Index nested-loop join: re-opens the inner side (an IndexScan in
/// auto-index mode) once per outer row, pushing the outer bindings into
/// the scan's seek prefix. Preserves the outer side's order.
class BindJoin : public Operator {
 public:
  BindJoin(std::unique_ptr<Operator> left, std::unique_ptr<Operator> right)
      : left_(std::move(left)), right_(std::move(right)) {}

  void Open(const Solution& outer) override;
  bool Next(Solution* row) override;
  int ordered_slot() const override { return left_->ordered_slot(); }

 private:
  std::unique_ptr<Operator> left_, right_;
  Solution lrow_;
  bool lvalid_ = false;
};

/// Concatenates its children's streams: all rows of child 0, then child 1,
/// and so on. Every child is (re)opened with the same outer row, so a
/// UnionAll used as the inner side of a BindJoin replays every UNION
/// alternative once per outer row — the streaming form of the engine's
/// dependent-union semantics. Deliberately barrier-free under the morsel
/// executor: each child's partial waves stream through as they decode;
/// no alternative waits for another to finish.
class UnionAll : public Operator {
 public:
  explicit UnionAll(std::vector<std::unique_ptr<Operator>> children)
      : children_(std::move(children)) {}

  void Open(const Solution& outer) override;
  bool Next(Solution* row) override;

 private:
  std::vector<std::unique_ptr<Operator>> children_;
  Solution outer_;
  size_t cur_ = 0;
};

/// Streaming OPTIONAL: an index-nested-loop left-outer join. The right
/// side is re-opened once per left row with that row's bindings pushed
/// into its seek prefixes (like BindJoin); when it yields no extension,
/// the bare left row is emitted instead of being dropped. Preserves the
/// left side's order. Barrier-free under the morsel executor: left-side
/// waves stream through one row at a time — the join never waits for a
/// full left partition before probing the right side.
class LeftOuterJoin : public Operator {
 public:
  LeftOuterJoin(std::unique_ptr<Operator> left,
                std::unique_ptr<Operator> right)
      : left_(std::move(left)), right_(std::move(right)) {}

  void Open(const Solution& outer) override;
  bool Next(Solution* row) override;
  int ordered_slot() const override { return left_->ordered_slot(); }

 private:
  std::unique_ptr<Operator> left_, right_;
  Solution lrow_;
  bool lvalid_ = false;
  bool matched_ = false;
};

/// Streams child rows that satisfy every attached FILTER expression. The
/// planner attaches a filter at the lowest operator where all of its
/// variables are statically bound. Filters the plan cannot prove bound
/// (e.g. variables bound in only some seed rows) attach at the top in
/// lenient mode: they are evaluated only on rows that do bind all their
/// variables and pass otherwise, matching the legacy evaluator's
/// apply-when-ready semantics.
class FilterOp : public Operator {
 public:
  struct Condition {
    CompiledExpr expr;
    /// Non-empty = lenient: skip the expression unless every listed slot
    /// is bound in the row.
    std::vector<int> required_slots;
  };

  FilterOp(std::unique_ptr<Operator> child, std::vector<Condition> filters)
      : child_(std::move(child)), filters_(std::move(filters)) {}

  void Open(const Solution& outer) override;
  bool Next(Solution* row) override;
  int ordered_slot() const override { return child_->ordered_slot(); }

 private:
  std::unique_ptr<Operator> child_;
  std::vector<Condition> filters_;
};

}  // namespace kgnet::sparql

#endif  // KGNET_SPARQL_EXEC_H_
