// Full-batch two-layer GCN node classifier (Kipf & Welling).
#ifndef KGNET_GML_GCN_H_
#define KGNET_GML_GCN_H_

#include "gml/model.h"

namespace kgnet::gml {

/// Homogeneous GCN: logits = Â ReLU(Â X W0) W1 with Â the symmetric
/// normalized adjacency (self loops added). Relations are ignored — this is
/// the weakest but cheapest baseline in the taxonomy.
class GcnClassifier : public NodeClassifier {
 public:
  Status Train(const GraphData& graph, const TrainConfig& config,
               TrainReport* report) override;
};

}  // namespace kgnet::gml

#endif  // KGNET_GML_GCN_H_
