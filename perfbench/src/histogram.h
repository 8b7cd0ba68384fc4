// Log-linear latency histogram (HdrHistogram-style bucketing) with
// nearest-rank percentiles.
//
// Values are nanoseconds. Values below 128 get one bucket each; above
// that every power of two is split into 64 equal sub-buckets, so a
// bucket is never wider than 1/64 of its lower bound (~1.6%). A
// percentile reports the midpoint of the bucket holding the nearest-rank
// sample, clamped to the observed min/max, so it lies within half a
// bucket (<= 0.8%) of the exact nearest-rank value. SelfCheck() proves
// that bound against exact sorted percentiles on a seeded sample.
#ifndef KGNET_PERFBENCH_HISTOGRAM_H_
#define KGNET_PERFBENCH_HISTOGRAM_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace kgnet::perfbench {

class Histogram {
 public:
  void Record(uint64_t ns) {
    ++counts_[BucketOf(ns)];
    ++n_;
    min_ = std::min(min_, ns);
    max_ = std::max(max_, ns);
  }

  void Merge(const Histogram& o) {
    for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }

  uint64_t count() const { return n_; }

  /// 1-based nearest rank of percentile p (0 < p <= 100) among n samples.
  static uint64_t Rank(uint64_t n, double p) {
    const double r = std::ceil(p / 100.0 * static_cast<double>(n));
    return std::clamp<uint64_t>(static_cast<uint64_t>(r), 1, n);
  }

  /// Samples strictly beyond the nearest-rank sample of percentile p.
  uint64_t Beyond(double p) const { return n_ == 0 ? 0 : n_ - Rank(n_, p); }

  /// Nearest-rank percentile in ns (0 when empty).
  uint64_t Percentile(double p) const {
    if (n_ == 0) return 0;
    const uint64_t rank = Rank(n_, p);
    uint64_t seen = 0;
    for (size_t b = 0; b < counts_.size(); ++b) {
      seen += counts_[b];
      if (seen >= rank) {
        const uint64_t lo = BucketLow(b);
        const uint64_t hi = BucketLow(b + 1) - 1;
        return std::clamp(lo + (hi - lo) / 2, min_, max_);
      }
    }
    return max_;
  }

  /// Compares Percentile() with exact sorted nearest-rank percentiles on
  /// a seeded log-uniform sample; false (with `why`) past half a bucket.
  static bool SelfCheck(uint64_t seed, std::string* why);

 private:
  static constexpr int kSubBits = 6;  // 64 sub-buckets per power of two
  static constexpr uint64_t kLinear = uint64_t{1} << (kSubBits + 1);
  static constexpr size_t kBuckets =
      kLinear + (64 - (kSubBits + 1)) * (size_t{1} << kSubBits);

  static size_t BucketOf(uint64_t v) {
    if (v < kLinear) return static_cast<size_t>(v);
    const int e = 63 - __builtin_clzll(v);
    const int shift = e - kSubBits;
    const uint64_t sub = (v >> shift) - (uint64_t{1} << kSubBits);
    return static_cast<size_t>(kLinear) +
           static_cast<size_t>(e - kSubBits - 1) * (size_t{1} << kSubBits) +
           static_cast<size_t>(sub);
  }

  /// Smallest value of bucket b (b == kBuckets gives one past the top).
  static uint64_t BucketLow(size_t b) {
    if (b < kLinear) return b;
    if (b >= kBuckets) return UINT64_MAX;
    const size_t i = b - kLinear;
    const int e = static_cast<int>(i >> kSubBits) + kSubBits + 1;
    const uint64_t sub = (uint64_t{1} << kSubBits) + (i & ((1u << kSubBits) - 1));
    return sub << (e - kSubBits);
  }

  std::vector<uint64_t> counts_ = std::vector<uint64_t>(kBuckets, 0);
  uint64_t n_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
};

inline bool Histogram::SelfCheck(uint64_t seed, std::string* why) {
  // Log-uniform values from 1 us to 1 s, plus exact small values.
  uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
  std::vector<uint64_t> values;
  Histogram h;
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const double u = static_cast<double>(x >> 11) / 9007199254740992.0;
    const uint64_t v = i % 10 == 0 ? x % 100
                                   : static_cast<uint64_t>(
                                         1e3 * std::pow(1e6, u));
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  for (double p : {1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    const uint64_t exact = values[Rank(values.size(), p) - 1];
    const uint64_t got = h.Percentile(p);
    const uint64_t diff = got > exact ? got - exact : exact - got;
    if (diff > exact / 128 + 1) {
      *why = "p" + std::to_string(p) + ": histogram " + std::to_string(got) +
             " vs exact " + std::to_string(exact);
      return false;
    }
  }
  return true;
}

}  // namespace kgnet::perfbench

#endif  // KGNET_PERFBENCH_HISTOGRAM_H_
