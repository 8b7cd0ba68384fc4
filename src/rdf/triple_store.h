// An in-memory dictionary-encoded triple store with versioned (MVCC)
// compressed permutation indexes: immutable run generations, an
// in-memory delta layer, and epoch-stamped snapshots.
#ifndef KGNET_RDF_TRIPLE_STORE_H_
#define KGNET_RDF_TRIPLE_STORE_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "rdf/dictionary.h"
#include "rdf/index_block.h"
#include "rdf/triple.h"

namespace kgnet::rdf {

/// Which of the six collation orders an index stores. With the full set,
/// every combination of bound positions has an index whose seekable
/// prefix covers it AND every triple position can stream in sorted order
/// under any single bound position — e.g. kPso streams subjects in order
/// within one predicate, the case merge joins on subject-position join
/// variables need.
enum class IndexOrder { kSpo, kPos, kOsp, kPso, kOps, kSop };

/// Number of IndexOrder values (= permutations of three positions).
inline constexpr int kNumIndexOrders = 6;

/// Lower-case index name ("spo", "pos", ..., "sop") for plan rendering.
const char* IndexOrderName(IndexOrder order);

/// The triple positions (0 = s, 1 = p, 2 = o) occupying each key slot of
/// an index order; e.g. kPos -> {1, 2, 0} (keys are p, o, s).
std::array<int, 3> IndexOrderPositions(IndexOrder order);

/// Permutes a triple into the key order of `order`. Derived from
/// IndexOrderPositions so seek/sort keys and the planner's ordered-slot
/// logic agree on every permutation.
IndexKey PermuteTriple(IndexOrder order, const Triple& t);

/// Inverse of PermuteTriple: key slot i holds triple position
/// IndexOrderPositions(order)[i].
Triple UnpermuteKey(IndexOrder order, const IndexKey& k);

/// Built-in delta size at which a writer triggers an automatic
/// Compact(); overridable per store (TripleStore::Options) or process-
/// wide via KGNET_DELTA_COMPACT_THRESHOLD.
inline constexpr size_t kDefaultDeltaCompactThreshold = 4096;

/// One immutable generation of compressed permutation runs, sealed at a
/// mutation epoch and never modified afterwards. Generations are shared
/// (std::shared_ptr) between the store and every open Snapshot; when the
/// last pinning snapshot drops, the destructor releases the generation's
/// MemoryMeter bytes — that release *is* the version garbage collection:
/// no list of dead versions, no sweeper, just shared ownership.
class Generation {
 public:
  struct Run {
    IndexOrder order = IndexOrder::kSpo;
    bool present = true;
    CompressedRun run;
  };

  /// Takes ownership of fully-built runs, registers their bytes with the
  /// process-wide MemoryMeter index pools and bumps `live` (both undone
  /// in the destructor). `epoch` is the mutation epoch this generation
  /// reflects; `num_triples` its exact triple count.
  Generation(std::array<Run, kNumIndexOrders> runs, size_t num_triples,
             uint64_t epoch, std::shared_ptr<std::atomic<int64_t>> live);
  ~Generation();
  Generation(const Generation&) = delete;
  Generation& operator=(const Generation&) = delete;

  const Run& run(IndexOrder order) const {
    return runs_[static_cast<size_t>(order)];
  }
  size_t num_triples() const { return num_triples_; }
  uint64_t epoch() const { return epoch_; }

 private:
  std::array<Run, kNumIndexOrders> runs_;
  size_t num_triples_ = 0;
  uint64_t epoch_ = 0;
  std::shared_ptr<std::atomic<int64_t>> live_;
};

/// The sorted per-order view of a store's uncompacted mutation log at
/// one epoch, built against one generation. Every entry is *definite*:
/// an insert key is absent from the generation, a tombstone key is
/// present in it (no-op pairs — an erase of a never-merged insert, a
/// re-insert of an erased generation key — cancel at build time). Each
/// entry therefore adjusts any containing range count by exactly +-1,
/// which is what keeps EstimateRange exact on a dirty store. Immutable
/// once built and shared by every snapshot at its epoch.
class DeltaView {
 public:
  /// One permutation order's delta: permuted keys in that order's sort
  /// order, parallel tombstone flags, and an insert-count prefix sum.
  struct OrderDelta {
    std::vector<IndexKey> keys;
    /// tombstone[i] != 0: keys[i] erases a generation key; otherwise it
    /// inserts a key the generation lacks.
    std::vector<uint8_t> tombstone;
    /// ins_before[i] = inserts among keys[0..i); keys.size() + 1 long.
    /// Inserts in [lo, hi) = ins_before[hi] - ins_before[lo]; tombstones
    /// are the remainder of the range length.
    std::vector<uint32_t> ins_before;

    /// Row range [lo, hi) of keys whose first `prefix_len` slots equal
    /// those of `prefix` (0 selects everything); mirrors
    /// CompressedRun::PrefixRange.
    std::pair<size_t, size_t> PrefixRange(int prefix_len,
                                          const IndexKey& prefix) const;
    size_t InsertsIn(size_t lo, size_t hi) const {
      return ins_before[hi] - ins_before[lo];
    }
  };

  const OrderDelta& order_delta(IndexOrder order) const {
    return orders_[static_cast<size_t>(order)];
  }
  /// The mutation epoch this view reflects.
  uint64_t epoch() const { return epoch_; }
  size_t num_inserts() const { return num_inserts_; }
  size_t num_tombstones() const { return num_tombstones_; }
  /// Total definite entries (inserts + tombstones).
  size_t size() const { return num_inserts_ + num_tombstones_; }

 private:
  friend class TripleStore;
  std::array<OrderDelta, kNumIndexOrders> orders_;
  uint64_t epoch_ = 0;
  size_t num_inserts_ = 0;
  size_t num_tombstones_ = 0;
};

/// A streaming cursor over the triples matching a pattern, yielded in
/// the sorted order of one permutation index (see Snapshot::OpenCursor):
/// a merge of the pinned generation's compressed run range with the
/// snapshot's delta range, suppressing tombstoned rows. The cursor
/// shares ownership of both, so it stays valid across store mutation,
/// compaction, even store destruction.
class TripleCursor {
 public:
  TripleCursor() = default;

  /// Advances to the next matching triple. Returns false at end.
  bool Next(Triple* out) {
    for (;;) {
      if (!has_run_) has_run_ = run_.Next(&run_key_);
      const bool has_delta = dpos_ < dend_;
      if (!has_run_ && !has_delta) return false;
      IndexKey key;
      if (has_delta && (!has_run_ || !(run_key_ < delta_->keys[dpos_]))) {
        const IndexKey& dk = delta_->keys[dpos_];
        if (has_run_ && run_key_ == dk) {
          // Keys collide only for tombstones (a delta insert key is
          // never in the generation): consume both, emit nothing.
          ++dpos_;
          has_run_ = false;
          continue;
        }
        // Delta-only key: a definite insert.
        key = dk;
        ++dpos_;
      } else {
        key = run_key_;
        has_run_ = false;
      }
      // Un-permute: key slot i holds triple position positions_[i].
      std::array<TermId, 3> spo = {0, 0, 0};
      for (int i = 0; i < 3; ++i) spo[positions_[i]] = key[i];
      const Triple t(spo[0], spo[1], spo[2]);
      if (pattern_.Matches(t)) {
        *out = t;
        return true;
      }
    }
  }

  /// Upper bound on the remaining results: rest of the index range
  /// (run rows + delta inserts - tombstones, each tombstone cancelling
  /// exactly one run row), including rows the non-prefix positions will
  /// filter out. Exact as a range size at every point of consumption.
  size_t remaining() const {
    const size_t run_rem = run_.remaining() + (has_run_ ? 1 : 0);
    if (dpos_ >= dend_) return run_rem;
    const size_t ins = delta_->InsertsIn(dpos_, dend_);
    const size_t tomb = (dend_ - dpos_) - ins;
    return run_rem + ins - tomb;
  }

  /// Index rows this cursor has consumed: run rows it decoded (see
  /// RunCursor::walked) plus delta entries it stepped over, whether the
  /// pattern filter kept them or not.
  size_t walked() const { return run_.walked() + (dpos_ - dbegin_); }

  /// True when the remaining range carries no delta entries, i.e. it is
  /// exactly a generation run range. Only then is Slice() meaningful —
  /// the morsel-parallel executor checks this before carving the range.
  bool sliceable() const { return dpos_ >= dend_; }

  /// A fresh cursor over `count` index rows starting `offset` rows past
  /// this cursor's position (clamped), with the same pattern filter and
  /// un-permutation. This cursor is not advanced. Offsets count index
  /// rows, not matches: concatenating Slice(0, k), Slice(k, k), ...
  /// yields exactly this cursor's stream, which is what the executor's
  /// morsel-parallel scan relies on. Precondition: sliceable().
  TripleCursor Slice(size_t offset, size_t count) const {
    TripleCursor c;
    c.run_ = run_.Slice(offset, count);
    c.positions_ = positions_;
    c.pattern_ = pattern_;
    c.gen_ = gen_;
    return c;
  }

 private:
  friend class Snapshot;
  RunCursor run_;
  std::array<int, 3> positions_ = {0, 1, 2};
  TriplePattern pattern_;
  // Run-side lookahead for the merge: run_key_ is the next undecoded-
  // into-output run row when has_run_.
  bool has_run_ = false;
  IndexKey run_key_ = {0, 0, 0};
  // Delta range [dpos_, dend_) into delta_ (null when the range is
  // empty; dend_ == 0 then, so the merge never dereferences it).
  const DeltaView::OrderDelta* delta_ = nullptr;
  size_t dbegin_ = 0;
  size_t dpos_ = 0;
  size_t dend_ = 0;
  // Ownership pins: run_ borrows gen_'s storage and delta_ points into
  // view_, so the cursor keeps both alive.
  std::shared_ptr<const Generation> gen_;
  std::shared_ptr<const DeltaView> view_;
};

/// An immutable, epoch-stamped read view of a TripleStore: one pinned
/// generation plus the delta view at the snapshot's epoch. Opening one
/// is two shared_ptr copies under a short lock (no index is rebuilt on
/// any read path); every query runs against a single snapshot so it
/// sees one consistent epoch end-to-end. Snapshots are values — copy
/// them freely, keep them across mutations, outlive the store; results
/// stay bitwise-identical to the moment the snapshot was opened.
class Snapshot {
 public:
  /// An empty snapshot behaves like an empty store at epoch 0.
  Snapshot() = default;

  /// The mutation epoch this snapshot observes (one Insert/Erase = one
  /// epoch tick).
  uint64_t epoch() const { return epoch_; }

  /// Uncompacted delta entries (inserts + tombstones) this snapshot
  /// merges over its generation.
  size_t delta_size() const { return view_ ? view_->size() : 0; }

  /// Exact number of triples visible.
  size_t size() const;

  /// True if the exact triple is visible in this snapshot.
  bool Contains(const Triple& t) const;

  /// True when the permutation index `order` is maintained.
  bool has_index(IndexOrder order) const;

  /// The index Scan() picks for `pattern` (longest useful bound prefix).
  /// Only ever selects from the classic trio, which every configuration
  /// maintains.
  IndexOrder ChooseIndex(const TriplePattern& pattern) const;

  /// Opens a streaming cursor over `pattern` on the index with collation
  /// `order`. Rows arrive in that index's sort order: after the bound
  /// key prefix (binary-seeked over the block skip table), they are
  /// ordered by the first unbound key position; bound positions outside
  /// the prefix are filtered row by row. If `order` is not maintained,
  /// the scan falls back to ChooseIndex(pattern): results stay correct
  /// but the stream order is unspecified — order-sensitive callers
  /// (merge joins) check has_index() first, as the planner does.
  TripleCursor OpenCursor(IndexOrder order, const TriplePattern& pattern) const;

  /// OpenCursor into an existing cursor: the re-open path of an index
  /// nested-loop probe. Ownership pins already held for this snapshot
  /// are kept rather than copied again.
  void Reopen(IndexOrder order, const TriplePattern& pattern,
              TripleCursor* cursor) const;

  /// Size of the index range OpenCursor(order, pattern) would walk: an
  /// O(log n) upper bound on its result count, exact when every bound
  /// position lies in the seekable prefix — delta entries included, so
  /// it stays exact on a dirty store. Falls back like OpenCursor when
  /// `order` is absent.
  size_t EstimateRange(IndexOrder order, const TriplePattern& pattern) const;

  /// O(log n) cardinality estimate for a pattern; exact for every
  /// pattern (each bound combination has a full index prefix).
  size_t EstimateCardinality(const TriplePattern& pattern) const;

  /// Calls `fn` for every visible triple matching `pattern`; stops early
  /// when `fn` returns false.
  void Scan(const TriplePattern& pattern,
            const std::function<bool(const Triple&)>& fn) const;

  /// Collects all visible triples matching `pattern`.
  std::vector<Triple> Match(const TriplePattern& pattern) const;

  /// Exact number of visible triples matching `pattern` (by scan).
  size_t Count(const TriplePattern& pattern) const;

 private:
  friend class TripleStore;
  /// Reopen without taking the generation/delta-view pins: the cursor
  /// is valid only while this snapshot is.
  void SeekUnpinned(IndexOrder order, const TriplePattern& pattern,
                    TripleCursor* cursor) const;

  std::shared_ptr<const Generation> gen_;
  std::shared_ptr<const DeltaView> view_;
  uint64_t epoch_ = 0;
};

/// An in-memory triple store.
///
/// Triples are dictionary-encoded (see Dictionary) and maintained in
/// sorted permutation indexes stored as block-structured, delta-
/// compressed runs (see rdf/index_block.h). Options picks the index set
/// — all six permutations (SPO POS OSP PSO OPS SOP, the RDF-3X layout,
/// default) or the classic SPO/POS/OSP trio at half the memory — and
/// the block size.
///
/// Storage is versioned (MVCC): the compressed runs live in an
/// immutable Generation; Insert/Erase append to a small in-memory
/// mutation log under `mu_` and *never* rebuild an index on the read
/// path. Reads go through OpenSnapshot(), which pins the current
/// generation and the delta view of the log at the current epoch;
/// cursors merge run + delta with tombstone suppression, preserving
/// index sort order. Compact() — triggered by the writer once the log
/// passes the compaction threshold, or called explicitly — merges the
/// delta into a fresh generation on the shared thread pool (one task
/// per order) off the read path and swaps it in; superseded generations
/// are reclaimed when their last pinning snapshot drops. No reader ever
/// blocks on (or observes) a partial rebuild.
///
/// Concurrency: any number of concurrent readers are safe against one
/// concurrent writer and a concurrent Compact(). Mutations themselves
/// are single-writer (Insert/Erase from one thread at a time). The
/// Dictionary is safe under the same regime: Lookup is lock-free
/// against concurrent interning (terms live in blocks that never move
/// once published), and Intern/Find serialize internally, so readers
/// may intern query constants while the writer interns new terms (see
/// rdf/dictionary.h).
class TripleStore {
 public:
  /// Index configuration knobs, fixed at construction.
  struct Options {
    /// Which permutation indexes to maintain.
    enum class IndexSet {
      /// SPO POS OSP PSO OPS SOP: every bound combination is an exact
      /// index prefix AND every position can stream in sorted order
      /// under any bound prefix (merge-join friendly). Default.
      kAllSix,
      /// SPO POS OSP only: half the index memory. Every bound
      /// combination is still an exact prefix (cardinality estimates
      /// stay exact), but fewer sort orders are available, so the
      /// planner falls back to hash/bind joins where a merge join
      /// needed a missing permutation.
      kClassicTrio,
    };
    IndexSet index_set = IndexSet::kAllSix;
    /// Rows per compressed index block (see rdf/index_block.h).
    size_t block_size = kDefaultIndexBlockSize;
    /// Log length at which the writer triggers an automatic Compact()
    /// (the effective trigger also scales with the generation size so
    /// bulk loads stay O(n log n) amortized). 0 resolves the process
    /// default: KGNET_DELTA_COMPACT_THRESHOLD when set and valid, else
    /// kDefaultDeltaCompactThreshold.
    size_t delta_compact_threshold = 0;
  };

  /// Per-store storage introspection (see kgnet_shell's `.stats`).
  /// Reported as-is — taking stats never compacts the store.
  struct Stats {
    /// Compressed bytes per maintained permutation run, and their sum.
    std::array<size_t, kNumIndexOrders> run_bytes{};
    size_t total_run_bytes = 0;
    /// Live triples (generation + delta net).
    size_t num_triples = 0;
    /// Current mutation epoch and the epoch of the live generation.
    uint64_t epoch = 0;
    uint64_t generation_epoch = 0;
    /// Triples in the live generation's runs.
    size_t generation_triples = 0;
    /// Raw uncompacted log entries, and their definite split (the
    /// inserts / tombstones a snapshot opened now would merge).
    size_t delta_ops = 0;
    size_t delta_inserts = 0;
    size_t delta_tombstones = 0;
    /// Generations still alive: the live one plus any pinned by open
    /// snapshots awaiting reclamation.
    int64_t live_generations = 0;
    /// Completed compaction cycles.
    uint64_t compactions = 0;
  };

  TripleStore() : TripleStore(Options()) {}
  explicit TripleStore(const Options& options);
  ~TripleStore() = default;

  // Index byte accounting travels with the Generation (registered with
  // the process-wide MemoryMeter on construction, released when the last
  // pin drops): moves hand the generation over, leaving the source
  // empty; copies are disallowed.
  TripleStore(const TripleStore&) = delete;
  TripleStore& operator=(const TripleStore&) = delete;
  TripleStore(TripleStore&& other) noexcept;
  TripleStore& operator=(TripleStore&& other) noexcept;

  /// The configuration this store was built with.
  const Options& options() const { return options_; }

  /// True when the permutation index `order` is maintained.
  bool has_index(IndexOrder order) const {
    return static_cast<int>(order) < 3 ||
           options_.index_set == Options::IndexSet::kAllSix;
  }

  /// Number of maintained permutation indexes (3 or 6).
  int num_indexes() const {
    return options_.index_set == Options::IndexSet::kAllSix ? kNumIndexOrders
                                                            : 3;
  }

  /// The dictionary used to encode all triples in this store.
  Dictionary& dict() { return dict_; }
  const Dictionary& dict() const { return dict_; }

  /// Inserts an encoded triple. Duplicate inserts are ignored.
  /// Returns true if the triple was new. Appends to the mutation log —
  /// no index rebuild; may trigger an automatic Compact() once the log
  /// passes the compaction threshold.
  bool Insert(const Triple& t);

  /// Encodes and inserts a (subject, predicate, object) of Terms.
  bool Insert(const Term& s, const Term& p, const Term& o);

  /// Convenience for IRI-only triples.
  bool InsertIris(std::string_view s, std::string_view p, std::string_view o);

  /// Removes a triple. Returns true if it was present. Appends a
  /// tombstone to the mutation log — no index rebuild.
  bool Erase(const Triple& t);

  /// Removes every triple matching `pattern`; returns the number removed.
  size_t EraseMatching(const TriplePattern& pattern);

  /// True if the exact triple is present.
  bool Contains(const Triple& t) const;

  /// Opens an epoch-stamped snapshot of the store: the pinned current
  /// generation plus the delta view of the uncompacted log. O(1) plus a
  /// one-off O(delta) view build per epoch (cached and shared across
  /// snapshots of the same epoch). All the read methods below are
  /// conveniences for OpenSnapshot().<method>().
  Snapshot OpenSnapshot() const;

  /// Calls `fn` for every triple matching `pattern`. If `fn` returns
  /// false, iteration stops early.
  void Scan(const TriplePattern& pattern,
            const std::function<bool(const Triple&)>& fn) const;

  /// Collects all triples matching `pattern`.
  std::vector<Triple> Match(const TriplePattern& pattern) const;

  /// Exact number of triples matching `pattern` (counted by scan).
  size_t Count(const TriplePattern& pattern) const;

  /// O(log n) cardinality estimate for a pattern; used by the SPARQL
  /// optimizer. Both index sets give every bound combination a full
  /// index prefix, so the estimate is exact for every pattern — delta
  /// entries included.
  size_t EstimateCardinality(const TriplePattern& pattern) const;

  /// Snapshot-at-call-time cursor; see Snapshot::OpenCursor. The cursor
  /// pins its snapshot, so it stays valid across later mutations.
  TripleCursor OpenCursor(IndexOrder order, const TriplePattern& pattern) const;

  /// Snapshot-at-call-time range size; see Snapshot::EstimateRange.
  size_t EstimateRange(IndexOrder order, const TriplePattern& pattern) const;

  /// The index Scan() picks for `pattern` (longest useful bound prefix).
  /// Only ever selects from the classic trio, which every Options
  /// configuration maintains.
  IndexOrder ChooseIndex(const TriplePattern& pattern) const;

  /// Total number of triples.
  size_t size() const;

  /// Compressed bytes held by the permutation index `order` (payload
  /// plus skip table), zero when the order is not maintained. Compacts
  /// first so the number reflects every inserted triple.
  size_t IndexBytes(IndexOrder order) const;

  /// Compressed bytes across all maintained permutation indexes.
  size_t TotalIndexBytes() const;

  /// Number of distinct subjects / predicates / objects (exact, O(n)).
  size_t NumDistinctSubjects() const;
  size_t NumDistinctPredicates() const;
  size_t NumDistinctObjects() const;

  /// Merges the uncompacted delta into a fresh run generation — in
  /// parallel on the shared thread pool, one task per maintained order
  /// — and swaps it in. Runs entirely off the read path: concurrent
  /// snapshots keep streaming their pinned generation; the superseded
  /// generation is reclaimed when its last pin drops. Safe to call
  /// concurrently with readers and with the (single) writer; concurrent
  /// Compact() calls serialize. A no-op when the log is empty.
  void Compact() const;

  /// Synonym for Compact(), kept for callers of the pre-MVCC API (and
  /// benchmarks that want merge time excluded from a measurement).
  void FlushInserts() const { Compact(); }

  /// Storage introspection at the current epoch; never compacts.
  Stats GetStats() const;

  /// Strictly parses a KGNET_DELTA_COMPACT_THRESHOLD value: optional
  /// surrounding whitespace around a positive decimal integer that fits
  /// in size_t. Returns 0 for anything else (empty, garbage, trailing
  /// junk, zero, negative, overflow) — the caller falls back to
  /// kDefaultDeltaCompactThreshold. Exposed so the validation is
  /// unit-testable; the environment itself is read once and cached.
  static size_t ParseCompactThresholdEnv(const char* text);

 private:
  /// One buffered mutation; the log is strictly append-only between
  /// compactions and chronological (epoch of log_[i] = log_base_ + i).
  struct LogEntry {
    Triple triple;
    bool erase = false;
  };

  /// Builds the definite delta view of `log` against `gen` (see
  /// DeltaView). Pure; callers pass the guarded members under mu_.
  static std::shared_ptr<const DeltaView> BuildDeltaView(
      const Generation& gen, const std::vector<LogEntry>& log,
      uint64_t epoch);

  /// The empty generation every store starts from (epoch 0).
  std::shared_ptr<const Generation> MakeEmptyGeneration() const;

  /// Ensures view_cache_ matches the current epoch; returns it.
  std::shared_ptr<const DeltaView> ViewAtCurrentEpochLocked() const
      KGNET_REQUIRES(mu_);

  /// Log length at which the writer compacts: the configured threshold,
  /// scaled up geometrically with the generation so bulk loading stays
  /// O(n log n) amortized.
  size_t CompactTrigger(size_t generation_triples) const {
    return std::max(compact_threshold_, generation_triples / 4);
  }

  Options options_;
  size_t compact_threshold_ = kDefaultDeltaCompactThreshold;
  Dictionary dict_;
  /// Live-generation counter, shared with every Generation (outlives
  /// the store while snapshots do).
  std::shared_ptr<std::atomic<int64_t>> live_generations_;
  /// Completed compaction cycles.
  mutable std::atomic<uint64_t> compactions_{0};

  /// Guards the mutable storage state below: the generation pointer,
  /// the mutation log, membership, and the view cache. Held only for
  /// short pointer/append/lookup sections — never across an index
  /// merge (Compact() does its merging outside, under compact_mu_).
  mutable common::Mutex mu_;
  /// The live generation (never null; empty generation at epoch 0).
  mutable std::shared_ptr<const Generation> gen_ KGNET_GUARDED_BY(mu_);
  /// Uncompacted mutations; entry i happened at epoch log_base_ + i.
  mutable std::vector<LogEntry> log_ KGNET_GUARDED_BY(mu_);
  mutable uint64_t log_base_ KGNET_GUARDED_BY(mu_) = 0;
  /// Exact current membership (duplicate-insert / missing-erase checks
  /// and size() in O(1)).
  std::unordered_set<Triple, TripleHash> membership_ KGNET_GUARDED_BY(mu_);
  /// Delta view of log_ at the current epoch, built lazily on the first
  /// snapshot of each epoch and shared by all of them.
  mutable std::shared_ptr<const DeltaView> view_cache_ KGNET_GUARDED_BY(mu_);
  /// Serializes compaction cycles (writer-triggered and explicit).
  mutable common::Mutex compact_mu_;
};

}  // namespace kgnet::rdf

#endif  // KGNET_RDF_TRIPLE_STORE_H_
