// Shared pieces of the perfbench program: the served system a workload
// sets up, TrainGML over the wire, and the metric sink both runs print
// through.
#ifndef KGNET_PERFBENCH_BENCH_H_
#define KGNET_PERFBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/kgnet.h"
#include "perfbench/src/loadgen.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/workload.h"
#include "serving/client.h"
#include "serving/server.h"

namespace kgnet::perfbench {

/// One TrainGML job sent over the wire.
struct JobRun {
  std::string label;
  std::string model_uri;
  double wall_s = 0;       // request sent -> response received
  double metric = 0;       // NC accuracy / LP Hits@10 from the response
  size_t peak_bytes = 0;   // train memory from the job's KGMeta record
};

/// Sends `job` on `client` and reads the job's KGMeta record from `kg`.
Status RunJob(serving::KgClient* client, core::KgNet* kg, const TrainJob& job,
              JobRun* out);

/// The system under test: the KG, its service and the loopback server.
struct Served {
  std::unique_ptr<core::KgNet> kg;
  std::unique_ptr<serving::KgServer> server;
  ServedState state;
  double load_s = 0;   // KG generate + load + compact
  double setup_s = 0;  // load_s + server start
};

/// Sets up workload `w` from scratch (timed into setup_s); fills the
/// stream pools of `state` after the timer stops.
Status SetUp(Workload w, Served* out);

/// Connections the open-loop part uses (train_pipeline keeps one of the
/// four server workers for its TrainGML connection).
int Senders(Workload w);

/// Share of --seconds the fixed-rate phase lasts (after a kWarmS warm-up).
inline constexpr double kFixedShare = 0.8;
inline constexpr double kWarmS = 2.0;

/// Offered rates (req/s) of the fixed-rate and the saturation phase, the
/// same on both workloads. The fixed rate is about a quarter of read
/// capacity at the default pool size on 4 vCPUs (README.md); saturation
/// offers about twice capacity.
inline constexpr double kFixedQps = 600;
inline constexpr double kSaturationQps = 5000;

/// The closed-loop TrainGML connection of train_pipeline: sends the job
/// list until `stop`, dropping each pass's models (untimed) afterwards.
struct TrainLoop {
  std::vector<JobRun> jobs;
  std::vector<double> pass_s;
  std::vector<int64_t> pass_end_ns;
  Status status = Status::OK();
  std::atomic<int> passes{0};
  std::atomic<bool> failed{false};
};
void RunTrainLoop(int port, core::KgNet* kg, Workload w,
                  const std::atomic<bool>* stop, TrainLoop* out);

/// An ordered list of printed metrics.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Prints the open-loop latencies of a fixed-rate phase (from intended
/// send time, with sample counts) and returns p50_ms, p90_ms, p99_ms and
/// the generator's late_p99_ms.
std::vector<Metric> OpenLoopLatencies(const PhaseResult& r);

/// Completions per second of a saturation phase: the median over its
/// 250 ms windows.
double SaturationQps(const PhaseResult& r);

/// The traced run: same seed and offered load as the untraced run with
/// client-side request spans, then the in-process replay. Fills the
/// per-layer metrics; spans are written to `spans_path`.
Status TracedRun(Workload w, uint64_t seed, double seconds,
                 const std::string& spans_path, const std::string& stamp,
                 std::vector<Metric>* metrics, bool* correct,
                 uint64_t* attempted, uint64_t* failed);

double Median(std::vector<double> v);
double Seconds(int64_t ns);

}  // namespace kgnet::perfbench

#endif  // KGNET_PERFBENCH_BENCH_H_
