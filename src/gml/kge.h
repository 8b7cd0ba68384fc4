// Knowledge-graph-embedding link predictors: TransE, DistMult, ComplEx,
// RotatE — trained with negative sampling and manual sparse gradients.
#ifndef KGNET_GML_KGE_H_
#define KGNET_GML_KGE_H_

#include <utility>
#include <vector>

#include "gml/model.h"
#include "tensor/matrix.h"

namespace kgnet::gml {

/// The score of the edge whose head, relation and tail embedding rows are
/// `h`, `r` and `t` (`dim` floats each) under `kind`; higher is better.
/// When `gh` is set, also writes the score's gradient wrt h, r and t into
/// `gh`, `gr` and `gt`. Every link predictor scores through this one
/// function, and so does a served model (core/model_io.h).
float KgeScoreRows(KgeScore kind, const float* h, const float* r,
                   const float* t, size_t dim, float* gh = nullptr,
                   float* gr = nullptr, float* gt = nullptr);

/// The rows of the `k` highest-scored (score, row) pairs of `scored`,
/// highest first, ties broken by ascending row; a NaN score ranks with
/// -infinity. The one ranker behind link prediction and similarity search.
std::vector<uint32_t> TopKByScore(
    std::vector<std::pair<float, uint32_t>> scored, size_t k);

/// Shallow KGE link predictor with entity and relation embedding tables.
///
/// Training: for each positive training edge, draw
/// `negatives_per_positive` corrupted edges (tail or head replaced
/// uniformly) and minimize the logistic loss on +-1 targets. Updates are
/// sparse SGD touching only the sampled rows, which keeps the per-step cost
/// independent of graph size.
class KgeModel : public LinkPredictor {
 public:
  explicit KgeModel(KgeScore score) : score_(score) {}

  Status Train(const GraphData& graph, const TrainConfig& config,
               TrainReport* report) override;

  float Score(uint32_t src, uint32_t rel, uint32_t dst) const override;

  KgeScore score_kind() const override { return score_; }

  std::vector<float> EntityEmbedding(uint32_t node) const override;

  std::vector<float> RelationEmbedding(uint32_t rel) const override;

 private:
  KgeScore score_;
  size_t dim_ = 0;
  tensor::Matrix entities_;   // num_nodes x dim
  tensor::Matrix relations_;  // num_relations x dim
};

/// Ranks of true tails among corrupted candidates; shared by KGE and MorsE
/// evaluation. Candidates come from graph.destination_candidates when
/// `within_type` is set and the pool is non-empty, else from all entities.
/// Ties receive their expected (mid) rank. Returns 1-based ranks per edge.
std::vector<size_t> RankTestEdges(
    const LinkPredictor& model, const GraphData& graph,
    const std::vector<Edge>& test_edges, size_t eval_candidates,
    uint64_t seed, bool within_type = true);

}  // namespace kgnet::gml

#endif  // KGNET_GML_KGE_H_
