// Block-structured, delta-compressed storage for one permutation index.
//
// A CompressedRun holds a strictly increasing sequence of 3-part keys
// (the permuted (s,p,o) of one IndexOrder) as fixed-size blocks of
// varint-encoded deltas plus a skip table. Each skip entry stores the
// first key of its block uncompressed together with the byte offset of
// the block's payload, so
//
//   - prefix lookups binary-search the skip table and decode at most one
//     boundary block per bound (O(log #blocks + block_size)), exactly
//     like the old flat-vector binary search but over ~3-5 bytes/key
//     instead of 12; and
//   - cursors decode only the blocks inside their [lo, hi) row range.
//
// Within a block, each key is encoded against its predecessor in the
// RDF-3X gap style: varint(delta of key slot 0), then — because the run
// is sorted — only the slots right of the first changed slot follow
// (full varints after a slot-0 change, a further delta chain when slot 0
// repeats). Sorted runs repeat their leading slots heavily, so the
// common encodings are 2-4 bytes per key.
#ifndef KGNET_RDF_INDEX_BLOCK_H_
#define KGNET_RDF_INDEX_BLOCK_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "rdf/term.h"

namespace kgnet::rdf {

/// A permuted triple key: the three TermIds of one triple arranged in
/// the key order of some permutation index.
using IndexKey = std::array<TermId, 3>;

/// Default rows per block. A skip entry costs 16 bytes, so 128-row
/// blocks keep the skip table at ~0.13 bytes/row while bounding every
/// lookup's decode work to 128 keys.
inline constexpr size_t kDefaultIndexBlockSize = 128;

class CompressedRun;

/// Streaming decoder over a row range [pos, end) of a CompressedRun.
/// Borrows the run's storage: valid only while the run is not rebuilt.
class RunCursor {
 public:
  RunCursor() = default;

  /// Decodes the next key. Returns false at the end of the range.
  bool Next(IndexKey* out);

  /// Rows left in the range (exact).
  size_t remaining() const { return end_ - pos_; }

  /// Keys this cursor has decoded: the rows it emitted plus, when it
  /// started mid-block without a primed position, the rows it decoded
  /// only to reach its first row. A cursor from CompressedRun::Seek
  /// starts primed, so for it this is exactly the rows emitted.
  size_t walked() const { return walked_; }

  /// A fresh cursor over `count` rows starting `offset` rows past this
  /// cursor's current position (clamped to the cursor's end). The slice
  /// seeks via the skip table like any new cursor; this cursor is not
  /// advanced. Morsel-parallel scans carve one range cursor into
  /// per-morsel slices with this.
  RunCursor Slice(size_t offset, size_t count) const {
    const size_t lo = pos_ + std::min(offset, end_ - pos_);
    const size_t hi = lo + std::min(count, end_ - lo);
    return RunCursor(run_, lo, hi);
  }

 private:
  friend class CompressedRun;
  RunCursor(const CompressedRun* run, size_t pos, size_t end)
      : run_(run), pos_(pos), end_(end) {}

  const CompressedRun* run_ = nullptr;
  size_t pos_ = 0;  // next row to emit
  size_t end_ = 0;
  size_t walked_ = 0;
  // Decode state, valid once primed_: prev_ is the key of row pos_ - 1
  // and ptr_ addresses the encoding of row pos_ (both refreshed from the
  // skip table whenever pos_ crosses a block boundary).
  bool primed_ = false;
  const uint8_t* ptr_ = nullptr;
  IndexKey prev_ = {0, 0, 0};
};

/// One compressed sorted run. Immutable between Assign() calls; the
/// TripleStore rebuilds the run when buffered mutations flush.
class CompressedRun {
 public:
  explicit CompressedRun(size_t block_size = kDefaultIndexBlockSize)
      : block_size_(block_size == 0 ? 1 : block_size) {}

  /// Rebuilds the run from strictly increasing keys.
  void Assign(const std::vector<IndexKey>& keys);

  /// Number of keys stored.
  size_t size() const { return size_; }

  /// Rows per block (immutable after construction).
  size_t block_size() const { return block_size_; }

  /// Compressed footprint: payload bytes plus the skip table.
  size_t ByteSize() const {
    return bytes_.size() + skip_.size() * sizeof(SkipEntry);
  }

  /// A cursor over the rows whose first `prefix_len` slots equal the
  /// first `prefix_len` slots of `prefix` (0 selects the whole run),
  /// primed on the range's first row. One pass: a skip-table binary
  /// search, then one decode of the boundary block that yields the
  /// first row, the cursor's decode state and — when the range ends in
  /// that block — its end. A range ending in a later block costs one
  /// more skip-table search and block decode. remaining() is exact.
  RunCursor Seek(int prefix_len, const IndexKey& prefix) const;

  /// Row range [lo, hi) of Seek(prefix_len, prefix).
  std::pair<size_t, size_t> PrefixRange(int prefix_len,
                                        const IndexKey& prefix) const {
    const RunCursor c = Seek(prefix_len, prefix);
    return {c.pos_, c.end_};
  }

  /// Opens a decoding cursor over rows [lo, hi).
  RunCursor Cursor(size_t lo, size_t hi) const {
    return RunCursor(this, lo, hi);
  }

  /// Decodes every key back into `out` (appended; used by rebuilds).
  void DecodeAll(std::vector<IndexKey>* out) const;

 private:
  friend class RunCursor;

  struct SkipEntry {
    IndexKey first;        // key of the block's first row (not in payload)
    uint64_t byte_offset;  // where the block's delta payload starts
                           // (64-bit: one run's payload can pass 4 GiB
                           // at billion-triple scale)
  };

  struct BlockWalk;

  /// First row with key > `key` (lexicographic), given that every row
  /// before block `first_block` is <= `key`.
  size_t UpperBound(const IndexKey& key, size_t first_block) const;

  static void EncodeOne(const IndexKey& prev, const IndexKey& cur,
                        std::vector<uint8_t>* out);
  static void DecodeOne(const uint8_t** p, IndexKey* key);

  size_t block_size_;
  size_t size_ = 0;
  std::vector<uint8_t> bytes_;
  std::vector<SkipEntry> skip_;
};

}  // namespace kgnet::rdf

#endif  // KGNET_RDF_INDEX_BLOCK_H_
