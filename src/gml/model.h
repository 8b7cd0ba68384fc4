// Common model interfaces and the training report shared by all methods.
#ifndef KGNET_GML_MODEL_H_
#define KGNET_GML_MODEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"
#include "gml/graph_data.h"

namespace kgnet::gml {

/// The GML methods the platform can train (paper Figure 5 taxonomy subset
/// plus KGE methods).
enum class GmlMethod {
  kGcn,          // full-batch, homogeneous
  kRgcn,         // full-batch, relational
  kGraphSaint,   // sampled subgraph mini-batch (relational layers)
  kShadowSaint,  // ego-subgraph mini-batch (decoupled depth/scope)
  kGraphSage,    // homogeneous neighbor-sampling mini-batch (SAGE-mean)
  kMorse,        // inductive edge-sampling KGE (meta relation encoder)
  kTransE,       // translational KGE
  kDistMult,     // semantic-matching KGE
  kComplEx,      // complex-valued KGE
  kRotatE,       // rotational KGE
};

/// The scoring functions of the link predictors. KgeModel implements all
/// four; MorsE scores TransE-style over its derived entity embeddings.
enum class KgeScore {
  kTransE,    // -||h + r - t||_1
  kDistMult,  // <h, r, t>
  kComplEx,   // Re(<h, r, conj(t)>), dims split (real | imag)
  kRotatE,    // -||h ∘ e^{iθ_r} - t||_2, dims split (real | imag)
};

/// The GML task types KGNet supports.
enum class TaskType {
  kNodeClassification,
  kLinkPrediction,
  kEntitySimilarity,
};

const char* GmlMethodName(GmlMethod m);
const char* TaskTypeName(TaskType t);

/// Hyperparameters for one training run.
struct TrainConfig {
  size_t epochs = 40;
  float lr = 0.01f;
  size_t hidden_dim = 32;
  size_t embed_dim = 32;
  /// Mini-batch knobs (SAINT / Shadow / KGE / MorsE).
  size_t batch_size = 512;
  size_t saint_sample_nodes = 2048;
  size_t shadow_hops = 2;
  size_t shadow_neighbor_budget = 10;
  size_t negatives_per_positive = 4;
  /// Early stopping patience in epochs (0 disables).
  size_t patience = 8;
  uint64_t seed = 17;
  /// LP evaluation: number of sampled negative candidates per test edge
  /// (0 = rank against all entities).
  size_t eval_candidates = 100;
  /// LP evaluation scope: true ranks the true tail against
  /// destination-type instances only (hard, type-restricted protocol);
  /// false ranks against the whole entity set (OGB-style protocol, the
  /// one the paper's Figure 15 uses).
  bool eval_within_type = true;
  /// Wall-clock training budget in seconds (0 = unlimited). Trainers stop
  /// at the first epoch boundary past the budget — this is how KGNet's
  /// task *time budget* reaches the pipeline.
  double max_seconds = 0.0;
  /// Cooperative cancellation (common/cancel.h), polled (CheckNow, so a
  /// deadline is evaluated every epoch rather than on the per-row
  /// stride) at the same epoch boundaries as max_seconds; the default
  /// token is inert. Unlike
  /// the budget — which *keeps* the partially trained model — a tripped
  /// token makes Train() return its Cancelled/DeadlineExceeded status,
  /// so the pipeline registers nothing. This is how a draining server
  /// bounds an in-flight TrainGML (docs/RESILIENCE.md).
  common::CancelToken cancel;
};

/// What a training run produced (feeds KGMeta and the experiment tables).
struct TrainReport {
  std::string method;
  /// Primary metric: NC accuracy or LP Hits@10, in [0,1].
  double metric = 0.0;
  /// Secondary metrics.
  double macro_f1 = 0.0;
  double mrr = 0.0;
  double valid_metric = 0.0;
  double final_loss = 0.0;
  size_t epochs_run = 0;
  /// Wall-clock training seconds.
  double train_seconds = 0.0;
  /// Peak live tensor bytes during training (MemoryMeter).
  size_t peak_memory_bytes = 0;
  /// Mean per-instance inference latency in microseconds.
  double inference_us = 0.0;
};

/// A trained node classifier.
class NodeClassifier {
 public:
  virtual ~NodeClassifier() = default;

  /// Trains on `graph` (uses its splits); fills `report`.
  virtual Status Train(const GraphData& graph, const TrainConfig& config,
                       TrainReport* report) = 0;

  /// Predicted class per node in `nodes`.
  virtual std::vector<int> Predict(const GraphData& graph,
                                   const std::vector<uint32_t>& nodes) = 0;
};

/// A trained link predictor.
class LinkPredictor {
 public:
  virtual ~LinkPredictor() = default;

  virtual Status Train(const GraphData& graph, const TrainConfig& config,
                       TrainReport* report) = 0;

  /// Plausibility score of edge (src, rel, dst); higher is better. Equal
  /// to KgeScoreRows(score_kind(), EntityEmbedding(src),
  /// RelationEmbedding(rel), EntityEmbedding(dst), dim), bit for bit.
  virtual float Score(uint32_t src, uint32_t rel, uint32_t dst) const = 0;

  /// The scoring function Score applies to the embedding rows.
  virtual KgeScore score_kind() const = 0;

  /// Entity embedding row of `node`.
  virtual std::vector<float> EntityEmbedding(uint32_t node) const = 0;

  /// Relation embedding row of `rel`, as Score reads it.
  virtual std::vector<float> RelationEmbedding(uint32_t rel) const = 0;
};

/// Factory: creates an untrained classifier for `method`
/// (kGcn/kRgcn/kGraphSaint/kShadowSaint).
Result<std::unique_ptr<NodeClassifier>> MakeNodeClassifier(GmlMethod method);

/// Factory: creates an untrained link predictor
/// (kTransE/kDistMult/kComplEx/kRotatE/kMorse).
Result<std::unique_ptr<LinkPredictor>> MakeLinkPredictor(GmlMethod method);

}  // namespace kgnet::gml

#endif  // KGNET_GML_MODEL_H_
