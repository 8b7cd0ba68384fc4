// Small helpers shared by the trainers.
#ifndef KGNET_GML_TRAIN_UTIL_H_
#define KGNET_GML_TRAIN_UTIL_H_

#include <chrono>
#include <vector>

#include "tensor/matrix.h"

namespace kgnet::gml {

/// Wall-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  double Micros() const { return Seconds() * 1e6; }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Row-wise argmax of a logits matrix.
inline std::vector<int> ArgmaxRows(const tensor::Matrix& logits) {
  std::vector<int> out(logits.rows());
  for (size_t i = 0; i < logits.rows(); ++i) {
    const float* row = logits.Row(i);
    int best = 0;
    for (size_t c = 1; c < logits.cols(); ++c)
      if (row[c] > row[best]) best = static_cast<int>(c);
    out[i] = best;
  }
  return out;
}

/// Builds a per-node label vector that keeps only the given fold
/// (indices into target_nodes); everything else is ignore (-1).
inline std::vector<int> MaskLabels(const std::vector<int>& labels,
                                   const std::vector<uint32_t>& target_nodes,
                                   const std::vector<uint32_t>& fold) {
  std::vector<int> out(labels.size(), -1);
  for (uint32_t idx : fold) {
    const uint32_t node = target_nodes[idx];
    out[node] = labels[node];
  }
  return out;
}

}  // namespace kgnet::gml

#endif  // KGNET_GML_TRAIN_UTIL_H_
