// Shared helpers for the experiment-reproduction benches.
//
// Each bench binary regenerates one table or figure of the paper. The
// harnesses print paper-style rows and finish with a SHAPE-CHECK section
// that states whether the qualitative findings (who wins, roughly by how
// much) reproduced on this machine.
#ifndef KGNET_BENCH_BENCH_UTIL_H_
#define KGNET_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

namespace kgnet::bench {

/// Collects pass/fail shape assertions and prints a summary.
class ShapeChecker {
 public:
  void Check(bool ok, const std::string& claim) {
    results_.push_back({ok, claim});
  }

  /// Prints the summary; returns the number of failed checks.
  int Report() const {
    std::printf("\nSHAPE-CHECK\n");
    int failed = 0;
    for (const auto& [ok, claim] : results_) {
      std::printf("  [%s] %s\n", ok ? "ok" : "MISS", claim.c_str());
      if (!ok) ++failed;
    }
    std::printf("  %zu/%zu qualitative findings reproduced\n",
                results_.size() - failed, results_.size());
    return failed;
  }

 private:
  std::vector<std::pair<bool, std::string>> results_;
};

/// The `q`-quantile (0 <= q <= 1) of `samples`, which it sorts: the
/// sample at index floor(q * (n - 1)). 0 for no samples.
inline double Percentile(std::vector<double>* samples, double q) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  return (*samples)[static_cast<size_t>(q * (samples->size() - 1))];
}

/// Formats bytes as MB with one decimal.
inline double ToMb(size_t bytes) { return bytes / 1e6; }

}  // namespace kgnet::bench

#endif  // KGNET_BENCH_BENCH_UTIL_H_
