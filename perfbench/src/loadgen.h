// Open-loop load generator (wrk2 model, coordinated-omission corrected).
//
// Each sender owns one connection and the requests i % senders == s of a
// phase. A request is sent at its intended time, or as soon as the
// connection is free if the previous response came back late; latency is
// always measured from the intended time, so a stall is charged to every
// request it delays. Requests still unsent `grace` after the phase ends
// are abandoned and count as failed: the send backlog grew.
#ifndef KGNET_PERFBENCH_LOADGEN_H_
#define KGNET_PERFBENCH_LOADGEN_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/src/histogram.h"
#include "perfbench/src/workload.h"

namespace kgnet::perfbench {

enum class Outcome : uint8_t { kOk, kFailed, kWrong, kUnsent };

struct Sample {
  int64_t due_ns = 0;  // absolute (steady clock)
  int64_t sent_ns = 0;
  int64_t recv_ns = 0;
  Outcome outcome = Outcome::kOk;
  uint32_t rid = 0;  // index in the phase's request vector
};

/// Checks decoded answers against the oracle; keeps the first few failure
/// descriptions for the report.
class Checker {
 public:
  explicit Checker(const Oracle* oracle) : oracle_(oracle) {}
  /// Returns kOk, kFailed (error response / transport) or kWrong.
  Outcome Check(const Request& req, const Result<std::string>& resp);
  std::vector<std::string> notes() const;

 private:
  void Note(const std::string& what);
  const Oracle* oracle_;
  mutable std::mutex mu_;
  std::vector<std::string> notes_;
};

struct PhaseResult {
  std::vector<Sample> samples;  // one per request, in request order
  double seconds = 0;           // scheduled phase length
  int64_t start_ns = 0;
  uint64_t attempted = 0, failed = 0, wrong = 0, unsent = 0;

  Histogram Latency() const;   // from due to received
  Histogram Lateness() const;  // from due to sent
};

/// Runs one open-loop phase against 127.0.0.1:port.
Status RunPhase(int port, const std::vector<Request>& reqs, int senders,
                double seconds, double grace_s, Checker* checker,
                PhaseResult* out);

}  // namespace kgnet::perfbench

#endif  // KGNET_PERFBENCH_LOADGEN_H_
