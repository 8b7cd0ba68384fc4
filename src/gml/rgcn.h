// Full-batch RGCN node classifier.
#ifndef KGNET_GML_RGCN_H_
#define KGNET_GML_RGCN_H_

#include "gml/model.h"

namespace kgnet::gml {

/// Full-propagation RGCN (Schlichtkrull et al.): trains a two-layer
/// relational GCN on the whole graph every epoch. Most accurate per epoch
/// on heterogeneous KGs but the heaviest in memory, since the per-relation
/// messages of the full graph are materialized for the backward pass.
class RgcnClassifier : public NodeClassifier {
 public:
  Status Train(const GraphData& graph, const TrainConfig& config,
               TrainReport* report) override;
};

}  // namespace kgnet::gml

#endif  // KGNET_GML_RGCN_H_
