// Mini-batch GNN classifiers: GraphSAINT and ShadowSAINT.
#ifndef KGNET_GML_SAINT_H_
#define KGNET_GML_SAINT_H_

#include "gml/model.h"

namespace kgnet::gml {

/// GraphSAINT (Zeng et al., ICLR'20): each step trains relational GCN
/// layers on an induced subgraph drawn by a degree-biased node sampler.
/// Memory stays proportional to the sample, not the full graph.
class GraphSaintClassifier : public NodeClassifier {
 public:
  Status Train(const GraphData& graph, const TrainConfig& config,
               TrainReport* report) override;
};

/// ShadowSAINT / shaDow-GNN (Zeng et al.'22): decouples depth and scope by
/// training on bounded ego-nets around each batch of target nodes; the loss
/// is applied to the batch seeds only.
class ShadowSaintClassifier : public NodeClassifier {
 public:
  Status Train(const GraphData& graph, const TrainConfig& config,
               TrainReport* report) override;
};

}  // namespace kgnet::gml

#endif  // KGNET_GML_SAINT_H_
