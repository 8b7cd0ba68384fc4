// Workload definitions of the perfbench: the fixed DBLP-style KG each
// workload serves, the seeded request-stream generator, and the oracle
// that holds every expected answer.
//
// The KG and the popularity order of its constants are fixed (seed
// kKgSeed), so set-up cost, model quality and memory do not depend on the
// benchmark seed; the request stream — arrival times, the query-kind draw
// and the Zipf ranks — is generated from --seed. The server sees only the
// generated requests.
#ifndef KGNET_PERFBENCH_WORKLOAD_H_
#define KGNET_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/kgnet.h"
#include "tensor/rng.h"
#include "workload/dblp_gen.h"

namespace kgnet::perfbench {

enum class Workload { kReadMix, kTrainPipeline };

/// One plain SPARQL read of a stream.
struct Request {
  int64_t due_ns = 0;  // intended send time, relative to the phase start
  uint32_t key = 0;    // oracle slot
  std::string body;    // protocol request body (serving/protocol.h)
};

/// Triples per region group of the dirty-store probe: kGroupItems item
/// triples plus one marker.
inline constexpr uint32_t kGroupItems = 8;
inline constexpr char kRegionNs[] = "https://perfbench.example/region/";
/// Fixed KG generator seed (see the file comment).
inline constexpr uint64_t kKgSeed = 42;

/// KG shape per workload (sizes are documented in perfbench/README.md).
workload::DblpOptions KgOptions(Workload w);

/// The fixed TrainGML job list of a workload: NC d1h1 and LP d2h1, plus
/// NC on the full KG for train_pipeline.
struct TrainJob {
  std::string label;  // "nc_d1h1" / "lp_d2h1" / "nc_full"
  core::TrainTaskSpec spec;
  std::string text;
};
std::vector<TrainJob> TrainJobs(Workload w);

/// Deletes every model of a task family from KGMeta (between passes of
/// train_pipeline, so memory does not grow with the pass count).
std::string DeleteModelsQuery(const char* family);

/// What the generated requests refer to. Pools list constants in
/// popularity order (rank 0 is the hottest) for the Zipf draws.
struct ServedState {
  std::vector<std::string> papers, persons, venues;
};

/// Expected answers per oracle slot. Slots are keyed by the query text;
/// answers are digests of the decoded result.
class Oracle {
 public:
  uint32_t Intern(const std::string& key);
  size_t size() const { return keys_.size(); }
  const std::string& key(uint32_t slot) const { return keys_[slot]; }
  uint64_t digest(uint32_t slot) const { return digest_[slot]; }
  void set_digest(uint32_t slot, uint64_t d) { digest_[slot] = d; }

 private:
  std::vector<std::string> keys_;
  std::vector<uint64_t> digest_;
  std::unordered_map<std::string, uint32_t> slot_;
};

/// Zipf(s) over ranks [0, n).
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(tensor::Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// Skew of every Zipf draw: YCSB's default zipfian constant (Cooper et
/// al., "Benchmarking Cloud Serving Systems with YCSB", SoCC 2010).
inline constexpr double kZipfS = 0.99;

/// Seeded request-stream generator. Phase() returns the plain reads of
/// one open-loop phase: Poisson arrivals at `qps` for `seconds`. Each read
/// is one of kQueryKinds query templates, drawn with equal shares, with
/// Zipf-ranked constants.
class StreamGen {
 public:
  static constexpr int kQueryKinds = 8;
  StreamGen(uint64_t seed, const ServedState* state, Oracle* oracle);
  std::vector<Request> Phase(double qps, double seconds);

 private:
  void DrawRead(Request* r);

  tensor::Rng rng_;
  const ServedState* state_;
  Oracle* oracle_;
  Zipf paper_zipf_, person_zipf_, venue_zipf_;
  uint64_t next_id_ = 1;
};

/// FNV-1a digest of a stream (due times and bodies).
uint64_t StreamDigest(const std::vector<Request>& reqs);

/// FNV-1a helpers shared by the oracle and the answer checks.
uint64_t Fnv(uint64_t h, const std::string& s);
inline constexpr uint64_t kFnvSeed = 1469598103934665603ull;
uint64_t RowsDigest(const sparql::QueryResult& r);
uint64_t ValuesDigest(const std::vector<std::string>& v);

/// Fills the digest of every oracle slot by executing the read in-process
/// on `kg` (before the server sees any request).
Status ComputeOracle(core::KgNet* kg, Oracle* oracle);

/// Region-read invariant: every group whose marker is visible shows all
/// kGroupItems items. `rows` are (?g, ?x) pairs.
bool RegionAtomic(const sparql::QueryResult& rows, std::string* why);

/// Text of the region read, and of the DELETE of one whole group (the
/// marker first, then its kGroupItems items).
std::string RegionReadQuery();
std::string GroupDeleteQuery(const std::string& group_iri);

}  // namespace kgnet::perfbench

#endif  // KGNET_PERFBENCH_WORKLOAD_H_
