#include "rdf/triple_store.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

#include "common/thread_pool.h"
#include "tensor/memory_meter.h"

namespace kgnet::rdf {

const char* IndexOrderName(IndexOrder order) {
  switch (order) {
    case IndexOrder::kSpo:
      return "spo";
    case IndexOrder::kPos:
      return "pos";
    case IndexOrder::kOsp:
      return "osp";
    case IndexOrder::kPso:
      return "pso";
    case IndexOrder::kOps:
      return "ops";
    case IndexOrder::kSop:
      return "sop";
  }
  return "?";
}

std::array<int, 3> IndexOrderPositions(IndexOrder order) {
  switch (order) {
    case IndexOrder::kSpo:
      return {0, 1, 2};
    case IndexOrder::kPos:
      return {1, 2, 0};
    case IndexOrder::kOsp:
      return {2, 0, 1};
    case IndexOrder::kPso:
      return {1, 0, 2};
    case IndexOrder::kOps:
      return {2, 1, 0};
    case IndexOrder::kSop:
      return {0, 2, 1};
  }
  return {0, 1, 2};
}

IndexKey PermuteTriple(IndexOrder order, const Triple& t) {
  const std::array<int, 3> positions = IndexOrderPositions(order);
  auto at = [&](int pos) { return pos == 0 ? t.s : (pos == 1 ? t.p : t.o); };
  return {at(positions[0]), at(positions[1]), at(positions[2])};
}

Triple UnpermuteKey(IndexOrder order, const IndexKey& k) {
  std::array<TermId, 3> spo = {0, 0, 0};
  const std::array<int, 3> positions = IndexOrderPositions(order);
  for (int i = 0; i < 3; ++i) spo[positions[i]] = k[i];
  return Triple(spo[0], spo[1], spo[2]);
}

namespace {

/// Pick an index whose permuted key has the longest bound prefix. The
/// classic trio — maintained under every Options configuration — covers
/// all bound combinations; the full set only adds more sort orders.
IndexOrder ChooseIndexForPattern(const TriplePattern& pattern) {
  const bool s = pattern.s != kNullTermId;
  const bool p = pattern.p != kNullTermId;
  const bool o = pattern.o != kNullTermId;
  if (s) {
    // (s,?,?), (s,p,?), (s,p,o) -> SPO; (s,?,o) -> OSP (prefix o,s)
    return (o && !p) ? IndexOrder::kOsp : IndexOrder::kSpo;
  }
  if (p) return IndexOrder::kPos;  // (?,p,?), (?,p,o)
  if (o) return IndexOrder::kOsp;  // (?,?,o)
  return IndexOrder::kSpo;
}

/// Resolves the effective compaction threshold: an explicit Options
/// value wins; otherwise KGNET_DELTA_COMPACT_THRESHOLD, read and
/// validated once per process with a warn-once fallback to the
/// built-in default (same contract as KGNET_NUM_THREADS).
size_t ResolveCompactThreshold(size_t from_options) {
  if (from_options > 0) return from_options;
  static const size_t kEnvDefault = [] {
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char* env = std::getenv("KGNET_DELTA_COMPACT_THRESHOLD");
    if (env == nullptr) return kDefaultDeltaCompactThreshold;
    const size_t parsed = TripleStore::ParseCompactThresholdEnv(env);
    if (parsed > 0) return parsed;
    std::fprintf(stderr,
                 "kgnet: ignoring invalid KGNET_DELTA_COMPACT_THRESHOLD=\"%s\" "
                 "(want a positive integer); using %zu\n",
                 env, kDefaultDeltaCompactThreshold);
    return kDefaultDeltaCompactThreshold;
  }();
  return kEnvDefault;
}

}  // namespace

size_t TripleStore::ParseCompactThresholdEnv(const char* text) {
  if (text == nullptr) return 0;
  const char* p = text;
  while (*p == ' ' || *p == '\t') ++p;
  // A leading non-digit (including '+', '-', or end of string) is
  // invalid: the accepted grammar is digits only.
  if (*p < '0' || *p > '9') return 0;
  size_t value = 0;
  while (*p >= '0' && *p <= '9') {
    const auto digit = static_cast<size_t>(*p - '0');
    if (value > (std::numeric_limits<size_t>::max() - digit) / 10) return 0;
    value = value * 10 + digit;
    ++p;
  }
  while (*p == ' ' || *p == '\t') ++p;
  if (*p != '\0') return 0;
  // "0" parses but is not a positive threshold; 0 is the error value.
  return value;
}

// ---------------------------------------------------------------------------
// Generation

Generation::Generation(std::array<Run, kNumIndexOrders> runs,
                       size_t num_triples, uint64_t epoch,
                       std::shared_ptr<std::atomic<int64_t>> live)
    : runs_(std::move(runs)),
      num_triples_(num_triples),
      epoch_(epoch),
      live_(std::move(live)) {
  auto& meter = tensor::MemoryMeter::Instance();
  for (const Run& r : runs_)
    if (r.present)
      meter.AllocateIndex(static_cast<int>(r.order), r.run.ByteSize());
  if (live_) live_->fetch_add(1);
}

Generation::~Generation() {
  auto& meter = tensor::MemoryMeter::Instance();
  for (const Run& r : runs_)
    if (r.present)
      meter.ReleaseIndex(static_cast<int>(r.order), r.run.ByteSize());
  if (live_) live_->fetch_sub(1);
}

// ---------------------------------------------------------------------------
// DeltaView

std::pair<size_t, size_t> DeltaView::OrderDelta::PrefixRange(
    int prefix_len, const IndexKey& prefix) const {
  if (prefix_len <= 0) return {0, keys.size()};
  const auto cmp = [prefix_len](const IndexKey& a, const IndexKey& b) {
    for (int i = 0; i < prefix_len; ++i) {
      const auto slot = static_cast<size_t>(i);
      if (a[slot] != b[slot]) return a[slot] < b[slot];
    }
    return false;
  };
  const auto lo = std::lower_bound(keys.begin(), keys.end(), prefix, cmp);
  const auto hi = std::upper_bound(lo, keys.end(), prefix, cmp);
  return {static_cast<size_t>(lo - keys.begin()),
          static_cast<size_t>(hi - keys.begin())};
}

std::shared_ptr<const DeltaView> TripleStore::BuildDeltaView(
    const Generation& gen, const std::vector<LogEntry>& log, uint64_t epoch) {
  auto view = std::make_shared<DeltaView>();
  view->epoch_ = epoch;
  if (log.empty()) return view;
  // Last-op-wins collapse: scan newest-to-oldest and keep the first
  // occurrence of each triple. The set serves keyed lookups only; the
  // surviving entries are re-sorted per order below, so no result
  // depends on hash iteration order.
  std::vector<std::pair<Triple, bool>> ops;  // (triple, is_erase)
  ops.reserve(log.size());
  {
    std::unordered_set<Triple, TripleHash> seen;
    seen.reserve(log.size());
    for (size_t i = log.size(); i > 0; --i) {
      const LogEntry& e = log[i - 1];
      if (seen.insert(e.triple).second) ops.emplace_back(e.triple, e.erase);
    }
  }
  // Keep only definite entries — an insert the generation lacks, an
  // erase of a key the generation has. Insert-then-erase of a new
  // triple and erase-then-reinsert of a generation key net out here,
  // which is what makes every surviving entry worth exactly +-1 in any
  // range count.
  const CompressedRun& spo = gen.run(IndexOrder::kSpo).run;
  std::vector<std::pair<Triple, bool>> entries;
  entries.reserve(ops.size());
  for (const auto& [t, is_erase] : ops) {
    const IndexKey key = PermuteTriple(IndexOrder::kSpo, t);
    const auto [lo, hi] = spo.PrefixRange(3, key);
    const bool in_gen = lo < hi;
    if (is_erase != in_gen) continue;
    entries.emplace_back(t, is_erase);
    if (is_erase)
      ++view->num_tombstones_;
    else
      ++view->num_inserts_;
  }
  for (int oi = 0; oi < kNumIndexOrders; ++oi) {
    const auto order = static_cast<IndexOrder>(oi);
    if (!gen.run(order).present) continue;
    DeltaView::OrderDelta& od = view->orders_[static_cast<size_t>(oi)];
    std::vector<std::pair<IndexKey, uint8_t>> rows;
    rows.reserve(entries.size());
    for (const auto& [t, is_erase] : entries)
      rows.emplace_back(PermuteTriple(order, t), is_erase ? 1 : 0);
    std::sort(rows.begin(), rows.end());
    od.keys.reserve(rows.size());
    od.tombstone.reserve(rows.size());
    od.ins_before.reserve(rows.size() + 1);
    od.ins_before.push_back(0);
    for (const auto& [k, tomb] : rows) {
      od.keys.push_back(k);
      od.tombstone.push_back(tomb);
      od.ins_before.push_back(od.ins_before.back() + (tomb != 0 ? 0u : 1u));
    }
  }
  return view;
}

// ---------------------------------------------------------------------------
// Snapshot

size_t Snapshot::size() const {
  if (!gen_) return 0;
  size_t n = gen_->num_triples();
  if (view_) n = n + view_->num_inserts() - view_->num_tombstones();
  return n;
}

bool Snapshot::Contains(const Triple& t) const {
  if (!gen_) return false;
  const IndexKey key = PermuteTriple(IndexOrder::kSpo, t);
  if (view_) {
    const DeltaView::OrderDelta& od = view_->order_delta(IndexOrder::kSpo);
    const auto it = std::lower_bound(od.keys.begin(), od.keys.end(), key);
    if (it != od.keys.end() && *it == key)
      return od.tombstone[static_cast<size_t>(it - od.keys.begin())] == 0;
  }
  const auto [lo, hi] = gen_->run(IndexOrder::kSpo).run.PrefixRange(3, key);
  return lo < hi;
}

bool Snapshot::has_index(IndexOrder order) const {
  return gen_ != nullptr && gen_->run(order).present;
}

IndexOrder Snapshot::ChooseIndex(const TriplePattern& pattern) const {
  return ChooseIndexForPattern(pattern);
}

TripleCursor Snapshot::OpenCursor(IndexOrder order,
                                  const TriplePattern& pattern) const {
  TripleCursor c;
  Reopen(order, pattern, &c);
  return c;
}

void Snapshot::Reopen(IndexOrder order, const TriplePattern& pattern,
                      TripleCursor* c) const {
  SeekUnpinned(order, pattern, c);
  // Comparing before assigning keeps a re-open free of atomic refcount
  // traffic when the cursor already pins this snapshot's versions.
  if (c->gen_ != gen_) c->gen_ = gen_;
  if (c->delta_ != nullptr && c->view_ != view_) c->view_ = view_;
}

void Snapshot::SeekUnpinned(IndexOrder order, const TriplePattern& pattern,
                            TripleCursor* c) const {
  c->pattern_ = pattern;
  c->has_run_ = false;
  c->delta_ = nullptr;
  c->dbegin_ = c->dpos_ = c->dend_ = 0;
  if (!gen_) {
    c->run_ = RunCursor();
    c->positions_ = IndexOrderPositions(order);
    return;
  }
  const Generation::Run* run = &gen_->run(order);
  if (!run->present) run = &gen_->run(ChooseIndexForPattern(pattern));
  const IndexOrder eff = run->order;
  const IndexKey key =
      PermuteTriple(eff, Triple(pattern.s, pattern.p, pattern.o));
  // Seekable prefix: leading bound key slots (the first unbound slot
  // ends it; later bound slots are filtered row by row).
  int prefix_len = 0;
  while (prefix_len < 3 && key[static_cast<size_t>(prefix_len)] != kNullTermId)
    ++prefix_len;
  c->run_ = run->run.Seek(prefix_len, key);
  c->positions_ = IndexOrderPositions(eff);
  if (view_) {
    const DeltaView::OrderDelta& od = view_->order_delta(eff);
    if (!od.keys.empty()) {
      const auto [dlo, dhi] = od.PrefixRange(prefix_len, key);
      if (dlo < dhi) {
        c->delta_ = &od;
        c->dbegin_ = c->dpos_ = dlo;
        c->dend_ = dhi;
      }
    }
  }
}

size_t Snapshot::EstimateRange(IndexOrder order,
                               const TriplePattern& pattern) const {
  // Only the range size is read, while this snapshot keeps the versions
  // alive, so the cursor needs no pins of its own.
  TripleCursor c;
  SeekUnpinned(order, pattern, &c);
  return c.remaining();
}

size_t Snapshot::EstimateCardinality(const TriplePattern& pattern) const {
  const bool s = pattern.s != kNullTermId;
  const bool p = pattern.p != kNullTermId;
  const bool o = pattern.o != kNullTermId;
  if (s && p && o)
    return Contains(Triple(pattern.s, pattern.p, pattern.o)) ? 1 : 0;
  if (!s && !p && !o) return size();
  // ChooseIndex covers every partially-bound pattern with a full-prefix
  // index, so the range size is the exact cardinality.
  return EstimateRange(ChooseIndexForPattern(pattern), pattern);
}

void Snapshot::Scan(const TriplePattern& pattern,
                    const std::function<bool(const Triple&)>& fn) const {
  TripleCursor c = OpenCursor(ChooseIndexForPattern(pattern), pattern);
  Triple t;
  while (c.Next(&t))
    if (!fn(t)) return;
}

std::vector<Triple> Snapshot::Match(const TriplePattern& pattern) const {
  std::vector<Triple> out;
  Scan(pattern, [&](const Triple& t) {
    out.push_back(t);
    return true;
  });
  return out;
}

size_t Snapshot::Count(const TriplePattern& pattern) const {
  size_t n = 0;
  Scan(pattern, [&](const Triple&) {
    ++n;
    return true;
  });
  return n;
}

// ---------------------------------------------------------------------------
// TripleStore

TripleStore::TripleStore(const Options& options)
    : options_(options),
      compact_threshold_(
          ResolveCompactThreshold(options.delta_compact_threshold)),
      live_generations_(std::make_shared<std::atomic<int64_t>>(0)) {
  gen_ = MakeEmptyGeneration();
}

std::shared_ptr<const Generation> TripleStore::MakeEmptyGeneration() const {
  std::array<Generation::Run, kNumIndexOrders> runs;
  for (int i = 0; i < kNumIndexOrders; ++i) {
    Generation::Run& r = runs[static_cast<size_t>(i)];
    r.order = static_cast<IndexOrder>(i);
    // The classic trio occupies the first three IndexOrder values.
    r.present = options_.index_set == Options::IndexSet::kAllSix || i < 3;
    r.run = CompressedRun(options_.block_size);
  }
  return std::make_shared<const Generation>(std::move(runs), 0, 0,
                                            live_generations_);
}

// Moves require exclusive access to both stores (no concurrent reader,
// writer, or compactor in either), but the guarded members still move
// under their locks so the annotation invariant holds. Snapshots and
// cursors opened before the move stay valid — they pin their own
// generation, not the store.
TripleStore::TripleStore(TripleStore&& other) noexcept
    : options_(other.options_),
      compact_threshold_(other.compact_threshold_),
      dict_(std::move(other.dict_)),
      live_generations_(std::move(other.live_generations_)),
      compactions_(other.compactions_.load()) {
  common::MutexLock theirs(&other.mu_);
  gen_ = std::move(other.gen_);
  log_ = std::move(other.log_);
  log_base_ = other.log_base_;
  membership_ = std::move(other.membership_);
  view_cache_ = std::move(other.view_cache_);
  // Leave the source empty but valid: a fresh counter and a fresh empty
  // generation at epoch 0. The moved generation (and its MemoryMeter
  // bytes) now belongs to this store.
  other.live_generations_ = std::make_shared<std::atomic<int64_t>>(0);
  other.gen_ = other.MakeEmptyGeneration();
  other.log_.clear();
  other.log_base_ = 0;
  other.compactions_.store(0);
}

TripleStore& TripleStore::operator=(TripleStore&& other) noexcept {
  if (this == &other) return *this;
  options_ = other.options_;
  compact_threshold_ = other.compact_threshold_;
  dict_ = std::move(other.dict_);
  compactions_.store(other.compactions_.load());
  {
    common::MutexLock self(&mu_);
    common::MutexLock theirs(&other.mu_);
    // Dropping our old generation releases its bytes now unless a
    // snapshot still pins it (then: when the last pin drops).
    gen_ = std::move(other.gen_);
    log_ = std::move(other.log_);
    log_base_ = other.log_base_;
    membership_ = std::move(other.membership_);
    view_cache_ = std::move(other.view_cache_);
    live_generations_ = std::move(other.live_generations_);
    other.live_generations_ = std::make_shared<std::atomic<int64_t>>(0);
    other.gen_ = other.MakeEmptyGeneration();
    other.log_.clear();
    other.log_base_ = 0;
    other.view_cache_.reset();
  }
  other.compactions_.store(0);
  return *this;
}

bool TripleStore::Insert(const Triple& t) {
  size_t log_len = 0;
  size_t gen_triples = 0;
  {
    common::MutexLock lk(&mu_);
    if (!membership_.insert(t).second) return false;
    log_.push_back({t, false});
    log_len = log_.size();
    gen_triples = gen_->num_triples();
  }
  // The compaction trigger runs on the writer, outside mu_ — never on a
  // read path.
  if (log_len >= CompactTrigger(gen_triples)) Compact();
  return true;
}

bool TripleStore::Insert(const Term& s, const Term& p, const Term& o) {
  return Insert(Triple(dict_.Intern(s), dict_.Intern(p), dict_.Intern(o)));
}

bool TripleStore::InsertIris(std::string_view s, std::string_view p,
                             std::string_view o) {
  return Insert(
      Triple(dict_.InternIri(s), dict_.InternIri(p), dict_.InternIri(o)));
}

bool TripleStore::Erase(const Triple& t) {
  size_t log_len = 0;
  size_t gen_triples = 0;
  {
    common::MutexLock lk(&mu_);
    if (membership_.erase(t) == 0) return false;
    log_.push_back({t, true});
    log_len = log_.size();
    gen_triples = gen_->num_triples();
  }
  if (log_len >= CompactTrigger(gen_triples)) Compact();
  return true;
}

size_t TripleStore::EraseMatching(const TriplePattern& pattern) {
  std::vector<Triple> victims = Match(pattern);
  for (const Triple& t : victims) Erase(t);
  return victims.size();
}

bool TripleStore::Contains(const Triple& t) const {
  common::MutexLock lk(&mu_);
  return membership_.count(t) > 0;
}

std::shared_ptr<const DeltaView> TripleStore::ViewAtCurrentEpochLocked()
    const {
  const uint64_t epoch = log_base_ + log_.size();
  if (!view_cache_ || view_cache_->epoch() != epoch)
    view_cache_ = BuildDeltaView(*gen_, log_, epoch);
  return view_cache_;
}

Snapshot TripleStore::OpenSnapshot() const {
  common::MutexLock lk(&mu_);
  Snapshot s;
  s.gen_ = gen_;
  s.view_ = ViewAtCurrentEpochLocked();
  s.epoch_ = log_base_ + log_.size();
  return s;
}

void TripleStore::Compact() const {
  // One compaction cycle at a time: writer-triggered and explicit calls
  // serialize here, without ever holding mu_ across the merge — readers
  // keep opening snapshots of the outgoing generation throughout.
  common::MutexLock cycle(&compact_mu_);
  std::shared_ptr<const Generation> gen;
  std::shared_ptr<const DeltaView> view;
  uint64_t watermark = 0;
  {
    common::MutexLock lk(&mu_);
    if (log_.empty()) return;
    watermark = log_base_ + log_.size();
    view = ViewAtCurrentEpochLocked();
    gen = gen_;
  }
  // Merge run + delta per maintained order, one task per order on the
  // shared pool (each task writes only its own slot). The single writer
  // may keep appending meanwhile: entries at epoch >= watermark are not
  // part of `view` and survive the log trim below.
  auto runs = std::make_shared<std::array<Generation::Run, kNumIndexOrders>>();
  const size_t block_size = options_.block_size;
  common::ParallelFor(0, kNumIndexOrders, 1, [&](size_t b, size_t e) {
    for (size_t oi = b; oi < e; ++oi) {
      const auto order = static_cast<IndexOrder>(oi);
      const Generation::Run& src = gen->run(order);
      Generation::Run& dst = (*runs)[oi];
      dst.order = order;
      dst.present = src.present;
      dst.run = CompressedRun(block_size);
      if (!src.present) continue;
      const DeltaView::OrderDelta& od = view->order_delta(order);
      std::vector<IndexKey> keys;
      keys.reserve(src.run.size() + od.keys.size());
      RunCursor c = src.run.Cursor(0, src.run.size());
      IndexKey k;
      size_t di = 0;
      while (c.Next(&k)) {
        while (di < od.keys.size() && od.keys[di] < k) {
          // Strictly-smaller pending delta entries are inserts: a
          // tombstone's key exists in the run, so the merge meets it at
          // equality below.
          keys.push_back(od.keys[di]);
          ++di;
        }
        if (di < od.keys.size() && od.keys[di] == k) {
          const bool tomb = od.tombstone[di] != 0;
          ++di;
          if (tomb) continue;  // suppressed row
        }
        keys.push_back(k);
      }
      for (; di < od.keys.size(); ++di) keys.push_back(od.keys[di]);
      dst.run.Assign(keys);
    }
  });
  auto next = std::make_shared<const Generation>(
      std::move(*runs),
      gen->num_triples() + view->num_inserts() - view->num_tombstones(),
      watermark, live_generations_);
  {
    common::MutexLock lk(&mu_);
    gen_ = std::move(next);
    const auto consumed = static_cast<std::ptrdiff_t>(watermark - log_base_);
    log_.erase(log_.begin(), log_.begin() + consumed);
    log_base_ = watermark;
    // Any cached view was built against the superseded generation.
    view_cache_.reset();
  }
  compactions_.fetch_add(1);
  // The superseded generation frees its runs (and MemoryMeter bytes)
  // right here if nothing pins it — otherwise when its last snapshot
  // drops. That release is the whole GC.
}

void TripleStore::Scan(const TriplePattern& pattern,
                       const std::function<bool(const Triple&)>& fn) const {
  OpenSnapshot().Scan(pattern, fn);
}

TripleCursor TripleStore::OpenCursor(IndexOrder order,
                                     const TriplePattern& pattern) const {
  return OpenSnapshot().OpenCursor(order, pattern);
}

size_t TripleStore::EstimateRange(IndexOrder order,
                                  const TriplePattern& pattern) const {
  return OpenSnapshot().EstimateRange(order, pattern);
}

std::vector<Triple> TripleStore::Match(const TriplePattern& pattern) const {
  return OpenSnapshot().Match(pattern);
}

size_t TripleStore::Count(const TriplePattern& pattern) const {
  return OpenSnapshot().Count(pattern);
}

size_t TripleStore::EstimateCardinality(const TriplePattern& pattern) const {
  return OpenSnapshot().EstimateCardinality(pattern);
}

IndexOrder TripleStore::ChooseIndex(const TriplePattern& pattern) const {
  return ChooseIndexForPattern(pattern);
}

size_t TripleStore::size() const {
  common::MutexLock lk(&mu_);
  return membership_.size();
}

size_t TripleStore::IndexBytes(IndexOrder order) const {
  Compact();
  std::shared_ptr<const Generation> gen;
  {
    common::MutexLock lk(&mu_);
    gen = gen_;
  }
  const Generation::Run& r = gen->run(order);
  return r.present ? r.run.ByteSize() : 0;
}

size_t TripleStore::TotalIndexBytes() const {
  Compact();
  std::shared_ptr<const Generation> gen;
  {
    common::MutexLock lk(&mu_);
    gen = gen_;
  }
  size_t total = 0;
  for (int i = 0; i < kNumIndexOrders; ++i) {
    const Generation::Run& r = gen->run(static_cast<IndexOrder>(i));
    if (r.present) total += r.run.ByteSize();
  }
  return total;
}

TripleStore::Stats TripleStore::GetStats() const {
  Stats st;
  std::shared_ptr<const Generation> gen;
  std::shared_ptr<const DeltaView> view;
  {
    common::MutexLock lk(&mu_);
    gen = gen_;
    view = ViewAtCurrentEpochLocked();
    st.epoch = log_base_ + log_.size();
    st.delta_ops = log_.size();
    st.num_triples = membership_.size();
  }
  st.generation_epoch = gen->epoch();
  st.generation_triples = gen->num_triples();
  for (int i = 0; i < kNumIndexOrders; ++i) {
    const Generation::Run& r = gen->run(static_cast<IndexOrder>(i));
    if (!r.present) continue;
    st.run_bytes[static_cast<size_t>(i)] = r.run.ByteSize();
    st.total_run_bytes += r.run.ByteSize();
  }
  st.delta_inserts = view->num_inserts();
  st.delta_tombstones = view->num_tombstones();
  st.live_generations = live_generations_->load();
  st.compactions = compactions_.load();
  return st;
}

namespace {

/// Distinct values of triple position `pos` (0=s, 1=p, 2=o), counted by
/// streaming the index whose first key slot is that position.
size_t CountDistinct(const TripleStore& store, IndexOrder order, int pos) {
  TripleCursor c = store.OpenCursor(order, TriplePattern());
  size_t n = 0;
  TermId prev = kNullTermId;
  bool first = true;
  Triple t;
  while (c.Next(&t)) {
    const TermId v = pos == 0 ? t.s : (pos == 1 ? t.p : t.o);
    if (first || v != prev) {
      ++n;
      prev = v;
      first = false;
    }
  }
  return n;
}

}  // namespace

size_t TripleStore::NumDistinctSubjects() const {
  return CountDistinct(*this, IndexOrder::kSpo, 0);
}

size_t TripleStore::NumDistinctPredicates() const {
  return CountDistinct(*this, IndexOrder::kPos, 1);
}

size_t TripleStore::NumDistinctObjects() const {
  return CountDistinct(*this, IndexOrder::kOsp, 2);
}

}  // namespace kgnet::rdf
