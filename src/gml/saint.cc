#include "gml/saint.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "gml/metrics.h"
#include "gml/rgcn_net.h"
#include "gml/sampler.h"
#include "gml/train_util.h"
#include "tensor/optimizer.h"

namespace kgnet::gml {

using tensor::CsrMatrix;
using tensor::Matrix;

namespace {

/// Labels for subgraph-local rows restricted to `allowed` original nodes
/// (-1 elsewhere).
std::vector<int> SubgraphLabels(const Subgraph& sub,
                                const std::vector<int>& full_labels,
                                const std::vector<int>& allowed_mask) {
  std::vector<int> out(sub.nodes.size(), -1);
  for (uint32_t i = 0; i < sub.nodes.size(); ++i) {
    const uint32_t orig = sub.nodes[i];
    if (allowed_mask[orig] >= 0) out[i] = full_labels[orig];
  }
  return out;
}

/// One training step of `net` on `sub`, with the loss on the rows
/// `labels` names.
float TrainOn(const GraphData& graph, const Subgraph& sub,
              const std::vector<int>& labels, RgcnNet* net,
              tensor::AdamOptimizer* opt) {
  std::vector<CsrMatrix> sub_adj =
      BuildSubgraphAdjacencies(sub, graph.num_relations);
  std::vector<size_t> idx(sub.nodes.begin(), sub.nodes.end());
  Matrix sub_x = graph.features.GatherRows(idx);
  return net->TrainStep(sub_adj, sub_x, labels, opt);
}

/// Validation accuracy of `net` on the sampled subgraph `vsub`.
double ValidationAccuracy(const GraphData& graph, const RgcnNet& net,
                          const Subgraph& vsub,
                          const std::vector<int>& valid_labels) {
  std::vector<CsrMatrix> sub_adj =
      BuildSubgraphAdjacencies(vsub, graph.num_relations);
  std::vector<size_t> idx(vsub.nodes.begin(), vsub.nodes.end());
  Matrix sub_x = graph.features.GatherRows(idx);
  Matrix logits = net.Forward(sub_adj, sub_x);
  return Accuracy(ArgmaxRows(logits),
                  SubgraphLabels(vsub, graph.labels, valid_labels));
}

/// What both SAINT variants share: relational GCN layers over every
/// relation in both directions, trained by Adam, and a full-graph test
/// pass.
struct SaintNet {
  SaintNet(const GraphData& graph, const TrainConfig& config)
      : graph(graph),
        config(config),
        opt({.lr = config.lr}),
        train_mask(
            MaskLabels(graph.labels, graph.target_nodes, graph.train_idx)),
        valid_labels(
            MaskLabels(graph.labels, graph.target_nodes, graph.valid_idx)) {}

  void Init(tensor::Rng* rng) {
    adj_list.emplace(graph);
    net = std::make_unique<RgcnNet>(graph.feature_dim, config.hidden_dim,
                                    graph.num_classes,
                                    graph.num_relations * 2, rng);
    net->RegisterParams(&opt);
  }

  const GraphData& graph;
  const TrainConfig& config;
  std::optional<AdjacencyList> adj_list;
  std::unique_ptr<RgcnNet> net;
  tensor::AdamOptimizer opt;
  const std::vector<int> train_mask, valid_labels;
  /// The full graph's adjacencies, built for the test pass.
  std::vector<CsrMatrix> test_adj;
};

}  // namespace

Status GraphSaintClassifier::Train(const GraphData& graph,
                                   const TrainConfig& config,
                                   TrainReport* report) {
  if (graph.num_classes == 0)
    return Status::InvalidArgument("graph carries no classification labels");
  SaintNet s(graph, config);
  // Enough sampled subgraphs per epoch to cover the graph once in
  // expectation.
  const size_t sample_size =
      std::min<size_t>(config.saint_sample_nodes, graph.num_nodes);
  const size_t batches_per_epoch =
      std::max<size_t>(1, graph.num_nodes / std::max<size_t>(1, sample_size));
  float loss = 0.0f;

  TrainingSteps steps;
  steps.init = [&](tensor::Rng* rng) { s.Init(rng); };
  steps.epoch = [&](size_t, tensor::Rng* rng) {
    for (size_t b = 0; b < batches_per_epoch; ++b) {
      Subgraph sub = SampleSaintSubgraph(graph, *s.adj_list, sample_size, rng);
      if (sub.nodes.empty()) continue;
      loss = TrainOn(graph, sub,
                     SubgraphLabels(sub, graph.labels, s.train_mask),
                     s.net.get(), &s.opt);
    }
    // Validation on a fresh sample (cheap proxy for full-graph eval).
    EpochResult result{loss, std::nullopt};
    Subgraph vsub =
        SampleSaintSubgraph(graph, *s.adj_list, sample_size * 2, rng);
    if (!vsub.nodes.empty())
      result.valid_metric =
          ValidationAccuracy(graph, *s.net, vsub, s.valid_labels);
    return result;
  };
  steps.finish = [&] { s.test_adj = graph.BuildRelationalAdjacencies(); };
  steps.test = [&](TrainReport* r) {
    return TestPredictions(graph, s.net->Forward(s.test_adj, graph.features),
                           r);
  };
  return RunTraining("Graph-SAINT", graph, config, steps, report);
}

Status ShadowSaintClassifier::Train(const GraphData& graph,
                                    const TrainConfig& config,
                                    TrainReport* report) {
  if (graph.num_classes == 0)
    return Status::InvalidArgument("graph carries no classification labels");
  SaintNet s(graph, config);
  // Batch seeds: the labeled training nodes.
  std::vector<uint32_t> train_nodes;
  for (uint32_t idx : graph.train_idx)
    train_nodes.push_back(graph.target_nodes[idx]);
  std::vector<uint32_t> vnodes;
  for (uint32_t idx : graph.valid_idx)
    vnodes.push_back(graph.target_nodes[idx]);
  float loss = 0.0f;

  TrainingSteps steps;
  steps.init = [&](tensor::Rng* rng) { s.Init(rng); };
  steps.epoch = [&](size_t, tensor::Rng* rng) {
    std::shuffle(train_nodes.begin(), train_nodes.end(), rng->generator());
    for (size_t start = 0; start < train_nodes.size();
         start += config.batch_size) {
      const size_t end =
          std::min(start + config.batch_size, train_nodes.size());
      std::vector<uint32_t> seeds(train_nodes.begin() + start,
                                  train_nodes.begin() + end);
      Subgraph sub = SampleShadowSubgraph(
          graph, *s.adj_list, seeds, config.shadow_hops,
          config.shadow_neighbor_budget, rng);
      if (sub.nodes.empty()) continue;
      // Loss only on the seeds of this batch.
      std::vector<int> sub_labels(sub.nodes.size(), -1);
      for (uint32_t seed : seeds) {
        auto it = sub.local_of.find(seed);
        if (it != sub.local_of.end()) sub_labels[it->second] =
            graph.labels[seed];
      }
      loss = TrainOn(graph, sub, sub_labels, s.net.get(), &s.opt);
    }
    // Validation on ego-nets of validation nodes.
    EpochResult result{loss, std::nullopt};
    if (!vnodes.empty()) {
      Subgraph vsub = SampleShadowSubgraph(
          graph, *s.adj_list, vnodes, config.shadow_hops,
          config.shadow_neighbor_budget, rng);
      result.valid_metric =
          ValidationAccuracy(graph, *s.net, vsub, s.valid_labels);
    }
    return result;
  };
  steps.finish = [&] { s.test_adj = graph.BuildRelationalAdjacencies(); };
  steps.test = [&](TrainReport* r) {
    return TestPredictions(graph, s.net->Forward(s.test_adj, graph.features),
                           r);
  };
  return RunTraining("Shadow-SAINT", graph, config, steps, report);
}

}  // namespace kgnet::gml
