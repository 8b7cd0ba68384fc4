#include "rdf/index_block.h"

#include <algorithm>
#include <limits>

namespace kgnet::rdf {

namespace {

void PutVarint(uint32_t v, std::vector<uint8_t>* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

uint32_t GetVarint(const uint8_t** p) {
  uint32_t v = 0;
  int shift = 0;
  for (;;) {
    const uint8_t b = *(*p)++;
    v |= static_cast<uint32_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

void SkipVarint(const uint8_t** p) {
  while ((*(*p)++ & 0x80) != 0) {
  }
}

}  // namespace

// Gap encoding against the previous key. The run is sorted, so the
// first slot that differs from `prev` increased; everything left of it
// is equal and omitted, everything right of it restarts as full values.
void CompressedRun::EncodeOne(const IndexKey& prev, const IndexKey& cur,
                              std::vector<uint8_t>* out) {
  const TermId d0 = cur[0] - prev[0];
  PutVarint(d0, out);
  if (d0 != 0) {
    PutVarint(cur[1], out);
    PutVarint(cur[2], out);
    return;
  }
  const TermId d1 = cur[1] - prev[1];
  PutVarint(d1, out);
  if (d1 != 0) {
    PutVarint(cur[2], out);
    return;
  }
  PutVarint(cur[2] - prev[2], out);
}

void CompressedRun::DecodeOne(const uint8_t** p, IndexKey* key) {
  const uint32_t d0 = GetVarint(p);
  if (d0 != 0) {
    (*key)[0] += d0;
    (*key)[1] = GetVarint(p);
    (*key)[2] = GetVarint(p);
    return;
  }
  const uint32_t d1 = GetVarint(p);
  if (d1 != 0) {
    (*key)[1] += d1;
    (*key)[2] = GetVarint(p);
    return;
  }
  (*key)[2] += GetVarint(p);
}

void CompressedRun::Assign(const std::vector<IndexKey>& keys) {
  bytes_.clear();
  skip_.clear();
  size_ = keys.size();
  skip_.reserve((size_ + block_size_ - 1) / block_size_);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i % block_size_ == 0)
      skip_.push_back({keys[i], static_cast<uint64_t>(bytes_.size())});
    else
      EncodeOne(keys[i - 1], keys[i], &bytes_);
  }
  bytes_.shrink_to_fit();
}

bool RunCursor::Next(IndexKey* out) {
  if (pos_ >= end_) return false;
  const size_t bs = run_->block_size_;
  const size_t in_block = pos_ % bs;
  if (in_block == 0) {
    // Block starts resync from the skip table (also covers pos_ == 0).
    const CompressedRun::SkipEntry& blk = run_->skip_[pos_ / bs];
    prev_ = blk.first;
    ptr_ = run_->bytes_.data() + blk.byte_offset;
  } else if (!primed_) {
    // First call lands mid-block: decode forward from the block start.
    const CompressedRun::SkipEntry& blk = run_->skip_[pos_ / bs];
    prev_ = blk.first;
    ptr_ = run_->bytes_.data() + blk.byte_offset;
    for (size_t skip = 0; skip < in_block; ++skip)
      CompressedRun::DecodeOne(&ptr_, &prev_);
    walked_ += in_block;
  } else {
    CompressedRun::DecodeOne(&ptr_, &prev_);
  }
  primed_ = true;
  *out = prev_;
  ++pos_;
  ++walked_;
  return true;
}

// A decode walk through one block. `key` is row `row`'s key and `next`
// addresses the encoding of the row after it; `at` and `before` are the
// decode state in front of row `row`, from which a cursor can start on
// it. A walk that runs off the block stops with row == stop.
struct CompressedRun::BlockWalk {
  BlockWalk(const CompressedRun& run, size_t block)
      : next(run.bytes_.data() + run.skip_[block].byte_offset),
        key(run.skip_[block].first),
        row(block * run.block_size_),
        stop(std::min(row + run.block_size_, run.size_)),
        at(next),
        before(key) {}

  /// Advances one row; false when that leaves the block.
  bool Step() {
    if (++row == stop) return false;
    at = next;
    before = key;
    DecodeOne(&next, &key);
    return true;
  }

  /// Advances past the rows whose first slot is below `first`, reading
  /// only their first gaps and stepping over their other two varints
  /// undecoded, so slots 1-2 of `key` and `before` go stale meanwhile.
  /// The row that reaches `first` has a nonzero first gap, so it decodes
  /// in full from slot 0 alone, and so does a cursor started on it.
  void SkipFirstSlotBelow(TermId first) {
    while (key[0] < first) {
      if (++row == stop) return;
      at = next;
      before = key;
      const uint32_t d0 = GetVarint(&next);
      if (d0 >= first - key[0]) {
        next = at;
        DecodeOne(&next, &key);
        return;
      }
      key[0] += d0;
      SkipVarint(&next);
      SkipVarint(&next);
    }
  }

  const uint8_t* next;
  IndexKey key;
  size_t row, stop;
  const uint8_t* at;
  IndexKey before;
};

namespace {

constexpr TermId kMaxId = std::numeric_limits<TermId>::max();

/// A first slot below which every row is <= `key`: one past key[0] for
/// the upper key of a one-slot prefix, (x, max, max), else key[0].
TermId FirstSlotBound(const IndexKey& key) {
  return key[1] == kMaxId && key[2] == kMaxId && key[0] < kMaxId ? key[0] + 1
                                                                 : key[0];
}

}  // namespace

RunCursor CompressedRun::Seek(int prefix_len, const IndexKey& prefix) const {
  if (prefix_len <= 0 || size_ == 0) return Cursor(0, size_);
  IndexKey lo_key = {prefix[0], 0, 0};
  IndexKey hi_key = {prefix[0], kMaxId, kMaxId};
  if (prefix_len >= 2) {
    lo_key[1] = hi_key[1] = prefix[1];
    if (prefix_len >= 3) lo_key[2] = hi_key[2] = prefix[2];
  }
  // Boundary block: the last one whose first key is < lo_key (earlier
  // blocks hold only smaller keys; later blocks start at >= lo_key).
  auto it = std::lower_bound(
      skip_.begin(), skip_.end(), lo_key,
      [](const SkipEntry& e, const IndexKey& k) { return e.first < k; });
  const size_t b =
      it == skip_.begin() ? 0 : static_cast<size_t>(it - skip_.begin()) - 1;

  // Walk the block to the first key >= lo_key; the cursor starts on it
  // from the decode state in front of it.
  BlockWalk w(*this, b);
  w.SkipFirstSlotBelow(lo_key[0]);
  while (w.row < w.stop && w.key < lo_key && w.Step()) {
  }
  RunCursor c(this, w.row, w.row);
  const bool ends_later = w.stop < size_ && !(hi_key < skip_[b + 1].first);
  if (w.row == w.stop) {
    // Every key of the block is smaller: the range starts at the next
    // block (or is empty at the end of the run).
    if (ends_later) c.end_ = UpperBound(hi_key, b + 1);
    return c;
  }
  if (w.row > b * block_size_) {
    c.primed_ = true;
    c.ptr_ = w.at;
    c.prev_ = w.before;
  }
  if (ends_later) {
    // The range runs into the next block, so its end lies beyond this one.
    c.end_ = UpperBound(hi_key, b + 1);
    return c;
  }
  // The range ends in this block: keep walking to the first key > hi_key.
  w.SkipFirstSlotBelow(FirstSlotBound(hi_key));
  while (w.row < w.stop && !(hi_key < w.key) && w.Step()) {
  }
  c.end_ = w.row;
  return c;
}

size_t CompressedRun::UpperBound(const IndexKey& key,
                                 size_t first_block) const {
  if (first_block >= skip_.size()) return size_;
  // Candidate block: the last one whose first key is <= `key`.
  auto it = std::upper_bound(
      skip_.begin() + static_cast<std::ptrdiff_t>(first_block), skip_.end(),
      key, [](const IndexKey& k, const SkipEntry& e) { return k < e.first; });
  const size_t next = static_cast<size_t>(it - skip_.begin());
  if (next == first_block) return first_block * block_size_;
  BlockWalk w(*this, next - 1);
  w.SkipFirstSlotBelow(FirstSlotBound(key));
  while (w.row < w.stop && !(key < w.key) && w.Step()) {
  }
  return w.row;
}

void CompressedRun::DecodeAll(std::vector<IndexKey>* out) const {
  out->reserve(out->size() + size_);
  RunCursor c = Cursor(0, size_);
  IndexKey k;
  while (c.Next(&k)) out->push_back(k);
}

}  // namespace kgnet::rdf
