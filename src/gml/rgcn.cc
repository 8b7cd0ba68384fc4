#include "gml/rgcn.h"

#include <memory>

#include "gml/metrics.h"
#include "gml/rgcn_net.h"
#include "gml/train_util.h"
#include "tensor/optimizer.h"

namespace kgnet::gml {

using tensor::CsrMatrix;
using tensor::Matrix;

Status RgcnClassifier::Train(const GraphData& graph,
                             const TrainConfig& config, TrainReport* report) {
  if (graph.num_classes == 0)
    return Status::InvalidArgument("graph carries no classification labels");
  const Matrix& x = graph.features;
  std::vector<CsrMatrix> adj;
  std::unique_ptr<RgcnNet> net;
  tensor::AdamOptimizer opt({.lr = config.lr});
  const std::vector<int> train_labels =
      MaskLabels(graph.labels, graph.target_nodes, graph.train_idx);
  const std::vector<int> valid_labels =
      MaskLabels(graph.labels, graph.target_nodes, graph.valid_idx);

  TrainingSteps steps;
  steps.init = [&](tensor::Rng* rng) {
    adj = graph.BuildRelationalAdjacencies();
    net = std::make_unique<RgcnNet>(graph.feature_dim, config.hidden_dim,
                                    graph.num_classes, adj.size(), rng);
    net->RegisterParams(&opt);
  };
  steps.epoch = [&](size_t, tensor::Rng*) {
    const float loss = net->TrainStep(adj, x, train_labels, &opt);
    return EpochResult{
        loss, Accuracy(ArgmaxRows(net->Forward(adj, x)), valid_labels)};
  };
  steps.test = [&](TrainReport* r) {
    return TestPredictions(graph, net->Forward(adj, x), r);
  };
  return RunTraining("RGCN", graph, config, steps, report);
}

}  // namespace kgnet::gml
