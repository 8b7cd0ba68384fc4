// MorsE-style inductive link prediction (Chen et al., SIGIR'22).
//
// MorsE learns *entity-independent* meta knowledge: an entity's embedding is
// produced from the relations incident to it, so the model transfers to
// unseen entities and can be trained on sampled sub-KGs. This implementation
// keeps that essence: e(v) = W · mean over incident (relation, direction)
// pairs of the relation type embedding, scored with TransE. Training uses
// edge-sampled mini-batches with negative sampling — cheap in memory, which
// is why the paper's Figure 15 shows such large full-KG vs KG' gaps.
#ifndef KGNET_GML_MORSE_H_
#define KGNET_GML_MORSE_H_

#include <vector>

#include "gml/model.h"
#include "tensor/matrix.h"

namespace kgnet::gml {

/// Inductive relation-meta link predictor.
class MorseModel : public LinkPredictor {
 public:
  Status Train(const GraphData& graph, const TrainConfig& config,
               TrainReport* report) override;

  float Score(uint32_t src, uint32_t rel, uint32_t dst) const override;

  KgeScore score_kind() const override { return KgeScore::kTransE; }

  std::vector<float> EntityEmbedding(uint32_t node) const override;

  std::vector<float> RelationEmbedding(uint32_t rel) const override;

 private:
  /// Recomputes the derived entity embedding of `v` into `out`.
  void ComputeEntityEmbedding(uint32_t v, float* out) const;

  size_t dim_ = 0;
  size_t num_relations_ = 0;
  /// Relation type embeddings: row r = outgoing role, row R + r = incoming.
  tensor::Matrix rel_types_;
  /// Hashed structural anchor embeddings: node v contributes
  /// anchors_[hash(v) % kAnchorBuckets] to its aggregate. This stands in for
  /// MorsE's subgraph-conditioned GNN refinement, giving entities with equal
  /// relation signatures distinct embeddings while staying inductive in
  /// expectation (buckets are features of the node id hash, not learned per
  /// entity).
  tensor::Matrix anchors_;
  /// Relation embeddings used in scoring (TransE translation vectors).
  tensor::Matrix rel_scoring_;
  /// Linear refinement of aggregated embeddings (dim x dim).
  tensor::Matrix w_;
  /// Incident (role) relation lists per node; role = rel for outgoing,
  /// num_relations + rel for incoming.
  std::vector<std::vector<uint32_t>> incident_;
  /// Sampled (neighbor node, relation role) pairs per node. Neighbor
  /// anchor embeddings join the aggregation — the one-layer analogue of
  /// MorsE's GNN refinement — letting connected entities (e.g. co-authors
  /// through a shared paper) develop correlated embeddings, so link
  /// knowledge transfers to entities whose own task edges are held out.
  struct Neighbor {
    uint32_t node;
    uint32_t role;  // rel for outgoing, num_relations + rel for incoming
  };
  std::vector<std::vector<Neighbor>> neighbors_;
  /// Learned scalar gate per relation role: how much a neighbor reached
  /// through that role contributes. This is the scalar form of relational
  /// attention; it lets training silence uninformative edge types.
  std::vector<float> role_gate_;
  /// Materialized entity embeddings after training (for fast inference).
  tensor::Matrix entity_cache_;
};

}  // namespace kgnet::gml

#endif  // KGNET_GML_MORSE_H_
