// The model interfaces every GML method implements (the training config
// and report they share are in gml/trainer.h).
#ifndef KGNET_GML_MODEL_H_
#define KGNET_GML_MODEL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "gml/graph_data.h"
#include "gml/trainer.h"
#include "tensor/matrix.h"

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

/// A trained node classifier.
class NodeClassifier {
 public:
  virtual ~NodeClassifier() = default;

  /// Trains on `graph` (uses its splits); fills `report`.
  virtual Status Train(const GraphData& graph, const TrainConfig& config,
                       TrainReport* report) = 0;

  /// The predicted class of every node of the graph the model was trained
  /// on; empty before training.
  const std::vector<int>& predictions() const { return predictions_; }

 protected:
  /// The test pass every classifier ends with: keeps the argmax class of
  /// each row of `logits` (one row per node of `graph`) as predictions()
  /// and scores accuracy and macro-F1 on the test fold. Returns the
  /// number of target nodes.
  size_t TestPredictions(const GraphData& graph,
                         const tensor::Matrix& logits, TrainReport* report);

 private:
  std::vector<int> predictions_;
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

 protected:
  /// The per-epoch validation of every link predictor: the MRR of the
  /// valid edges against sampled candidates (never full ranking, so the
  /// budget goes to training); none without valid edges.
  std::optional<double> ValidationMrr(const GraphData& graph,
                                      const TrainConfig& config,
                                      size_t epoch) const;

  /// The test pass every link predictor ends with: Hits@10 and MRR of
  /// the test edges. Returns the number of test edges.
  size_t TestRanks(const GraphData& graph, const TrainConfig& config,
                   TrainReport* report) const;
};

/// Factory: creates an untrained classifier for `method`
/// (kGcn/kRgcn/kGraphSaint/kShadowSaint).
Result<std::unique_ptr<NodeClassifier>> MakeNodeClassifier(GmlMethod method);

/// Factory: creates an untrained link predictor
/// (kTransE/kDistMult/kComplEx/kRotatE/kMorse).
Result<std::unique_ptr<LinkPredictor>> MakeLinkPredictor(GmlMethod method);

}  // namespace kgnet::gml

#endif  // KGNET_GML_MODEL_H_
