// GraphSAGE-mean node classifier (Hamilton et al., NeurIPS'17) — the
// node/layer-sampling family of the paper's Figure 5 taxonomy.
#ifndef KGNET_GML_SAGE_H_
#define KGNET_GML_SAGE_H_

#include "gml/model.h"
#include "gml/sampler.h"
#include "tensor/csr_matrix.h"

namespace kgnet::gml {

/// Two-layer GraphSAGE with the mean aggregator:
///   H1 = ReLU(X·Wself0 + Â·X·Wnbr0)
///   Z  = H1·Wself1 + Â·H1·Wnbr1
/// where Â is the row-normalized undirected adjacency of a *sampled*
/// neighborhood subgraph around each training batch (relation types are
/// ignored — SAGE is homogeneous). Cheap and memory-light, but weaker than
/// relational methods on heterogeneous KGs.
class SageClassifier : public NodeClassifier {
 public:
  Status Train(const GraphData& graph, const TrainConfig& config,
               TrainReport* report) override;
};

/// Builds the row-normalized undirected homogeneous adjacency of `sub`.
tensor::CsrMatrix BuildHomogeneousSubgraphAdjacency(const Subgraph& sub);

}  // namespace kgnet::gml

#endif  // KGNET_GML_SAGE_H_
