// GML inference manager: the GMLaaS inference endpoint of Figure 3.
//
// In the paper the RDF engine reaches trained models through HTTP calls to
// a RESTful service; the number of calls dominates SPARQL-ML execution cost
// (Section IV-B3). Here each public method is one simulated API call: it
// increments a call counter and can add a configurable per-call latency so
// the query-optimizer benchmarks reproduce the Figure 11 vs Figure 12
// trade-off faithfully.
//
// Every model answers from its serving bundle (core/kgmeta.h), the
// same one whether it was trained in this process or loaded from disk
// (core/model_io.h), so each verb has one body. A model of the wrong task
// is FailedPrecondition on every verb; an IRI the bundle does not hold is
// NotFound, with one text for the class verbs and one for the link and
// similarity verbs.
//
// The *Batch methods are the serving-path counterparts: one API call
// answers a whole batch of nodes against the same model (one score-kernel
// invocation), and per-node results are guaranteed to be bitwise-identical
// to a serial loop of the single-node calls. The serving layer's
// InferBatcher (src/serving/infer_batcher.h) collects concurrent network
// requests into these calls.
//
// Thread safety: all methods may be called concurrently (the serving
// front end does); the call counters are mutex-guarded and models are
// fetched as shared_ptr copies from KGMeta, the one model registry.
#ifndef KGNET_CORE_INFERENCE_MANAGER_H_
#define KGNET_CORE_INFERENCE_MANAGER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "core/kgmeta.h"

namespace kgnet::core {

/// Serves predictions from registered models; counts simulated HTTP calls.
class InferenceManager {
 public:
  explicit InferenceManager(const KgMeta* kgmeta) : kgmeta_(kgmeta) {}

  /// Predicted class IRI for one node (one API call).
  Result<std::string> GetNodeClass(const std::string& model_uri,
                                   const std::string& node_iri);

  /// Predicted class IRIs for a batch of nodes (one API call). Element i
  /// is the exact value — or the exact error — GetNodeClass(model_uri,
  /// node_iris[i]) would have produced; an unknown model or one of the
  /// wrong task fails the whole call with the error every element would
  /// carry.
  Result<std::vector<Result<std::string>>> GetNodeClassBatch(
      const std::string& model_uri, const std::vector<std::string>& node_iris);

  /// Predicted class IRIs for every target node of the model (one API
  /// call returning the whole dictionary — the Figure 12 plan).
  Result<std::map<std::string, std::string>> GetNodeClassDictionary(
      const std::string& model_uri);

  /// Top-k predicted destination IRIs for one source node (one API call):
  /// the destination candidates ranked by the model's own score, highest
  /// first, ties broken by ascending row.
  Result<std::vector<std::string>> GetTopKLinks(const std::string& model_uri,
                                                const std::string& node_iri,
                                                size_t k);

  /// Top-k links for a batch of source nodes (one API call). The whole
  /// batch is scored through one GEMM-shaped kernel (|batch| x
  /// |candidates| score matrix, computed on the shared thread pool with
  /// fixed chunking); each cell is the single-node path's score and each
  /// row goes through the same ranker, so element i is bitwise-identical
  /// to GetTopKLinks(model_uri, node_iris[i], k) at any thread count.
  Result<std::vector<Result<std::vector<std::string>>>> GetTopKLinksBatch(
      const std::string& model_uri, const std::vector<std::string>& node_iris,
      size_t k);

  /// Top-k most similar entities by cosine distance between embedding
  /// rows, a flat scan over every other row of the bundle, closest first,
  /// ties broken by ascending row (one API call).
  Result<std::vector<std::string>> GetSimilarEntities(
      const std::string& model_uri, const std::string& node_iri, size_t k);

  /// The embedding row a similarity search uses for `node_iri` — a helper for
  /// serving-side row caches, NOT an API call (no counter bump). The
  /// returned vector is bitwise-stable for a given (model, node) until
  /// the model is replaced.
  Result<std::vector<float>> GetEmbeddingRow(const std::string& model_uri,
                                             const std::string& node_iri);

  /// GetSimilarEntities with a caller-supplied query row (one API call):
  /// the serving layer passes a cached GetEmbeddingRow result here and
  /// gets bitwise-identical output to the uncached call.
  Result<std::vector<std::string>> GetSimilarByRow(
      const std::string& model_uri, const std::string& node_iri,
      const std::vector<float>& row, size_t k);

  /// Number of simulated HTTP calls since the last reset.
  uint64_t http_calls() const {
    common::MutexLock lock(&counters_mu_);
    return http_calls_;
  }
  void ResetCounters() {
    common::MutexLock lock(&counters_mu_);
    http_calls_ = 0;
  }

  /// Simulated per-call latency in microseconds added to every call's
  /// accounting (not slept; accumulated in simulated_latency_us()).
  void set_per_call_latency_us(double us) {
    common::MutexLock lock(&counters_mu_);
    per_call_latency_us_ = us;
  }
  double simulated_latency_us() const {
    common::MutexLock lock(&counters_mu_);
    return simulated_latency_us_;
  }

 private:
  /// The model under `model_uri`, if its task serves the verb family
  /// (`class_verb`: the class verbs; else the link and similarity verbs).
  Result<std::shared_ptr<const TrainedModel>> Fetch(
      const std::string& model_uri, bool class_verb) const;
  void CountCall() {
    common::MutexLock lock(&counters_mu_);
    ++http_calls_;
    simulated_latency_us_ += per_call_latency_us_;
  }

  const KgMeta* kgmeta_;
  mutable common::Mutex counters_mu_;
  uint64_t http_calls_ KGNET_GUARDED_BY(counters_mu_) = 0;
  double per_call_latency_us_ KGNET_GUARDED_BY(counters_mu_) = 0.0;
  double simulated_latency_us_ KGNET_GUARDED_BY(counters_mu_) = 0.0;
};

}  // namespace kgnet::core

#endif  // KGNET_CORE_INFERENCE_MANAGER_H_
