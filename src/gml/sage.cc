#include "gml/sage.h"

#include <algorithm>
#include <optional>

#include "gml/metrics.h"
#include "gml/train_util.h"
#include "tensor/optimizer.h"

namespace kgnet::gml {

using tensor::CooEntry;
using tensor::CsrMatrix;
using tensor::Matrix;

tensor::CsrMatrix BuildHomogeneousSubgraphAdjacency(const Subgraph& sub) {
  std::vector<CooEntry> entries;
  entries.reserve(sub.edges.size() * 2);
  for (const Edge& e : sub.edges) {
    entries.push_back({e.dst, e.src, 1.0f});
    entries.push_back({e.src, e.dst, 1.0f});
  }
  CsrMatrix adj(sub.nodes.size(), sub.nodes.size(), std::move(entries));
  return adj.RowNormalized();
}

namespace {

/// The four weight matrices of a two-layer SAGE-mean network.
struct SageNet {
  struct Cache {
    Matrix z0;    // Â·X
    Matrix pre1;  // pre-activation of layer 1
    Matrix mask;  // ReLU mask
    Matrix h1;    // activations
    Matrix z1;    // Â·H1
  };

  /// Forward over an adjacency + features; fills `cache` when training.
  Matrix Forward(const CsrMatrix& adj, const Matrix& x, Cache* cache) const {
    Matrix z0 = adj.SpMM(x);
    Matrix pre1 = Matrix::MatMul(x, wself0);
    pre1.Add(Matrix::MatMul(z0, wnbr0));
    Matrix mask;
    Matrix h1 = pre1;
    h1.ReluInPlace(&mask);
    Matrix z1 = adj.SpMM(h1);
    Matrix logits = Matrix::MatMul(h1, wself1);
    logits.Add(Matrix::MatMul(z1, wnbr1));
    if (cache != nullptr) {
      cache->z0 = std::move(z0);
      cache->pre1 = std::move(pre1);
      cache->mask = std::move(mask);
      cache->h1 = std::move(h1);
      cache->z1 = std::move(z1);
    }
    return logits;
  }

  Matrix wself0, wnbr0, wself1, wnbr1;
};

}  // namespace

Status SageClassifier::Train(const GraphData& graph,
                             const TrainConfig& config, TrainReport* report) {
  if (graph.num_classes == 0)
    return Status::InvalidArgument("graph carries no classification labels");
  SageNet net;
  tensor::AdamOptimizer opt({.lr = config.lr});
  std::optional<AdjacencyList> adj_list;
  const std::vector<int> valid_labels =
      MaskLabels(graph.labels, graph.target_nodes, graph.valid_idx);
  std::vector<uint32_t> train_nodes;
  for (uint32_t idx : graph.train_idx)
    train_nodes.push_back(graph.target_nodes[idx]);
  std::vector<uint32_t> vnodes;
  for (uint32_t idx : graph.valid_idx)
    vnodes.push_back(graph.target_nodes[idx]);
  float loss = 0.0f;
  CsrMatrix test_adj;

  TrainingSteps steps;
  steps.init = [&](tensor::Rng* rng) {
    for (Matrix* w : {&net.wself0, &net.wnbr0}) {
      *w = Matrix(graph.feature_dim, config.hidden_dim);
      w->XavierInit(rng);
    }
    for (Matrix* w : {&net.wself1, &net.wnbr1}) {
      *w = Matrix(config.hidden_dim, graph.num_classes);
      w->XavierInit(rng);
    }
    for (Matrix* w : {&net.wself0, &net.wnbr0, &net.wself1, &net.wnbr1})
      opt.Register(w);
    adj_list.emplace(graph);
  };
  steps.epoch = [&](size_t, tensor::Rng* rng) {
    std::shuffle(train_nodes.begin(), train_nodes.end(), rng->generator());
    for (size_t start = 0; start < train_nodes.size();
         start += config.batch_size) {
      const size_t end =
          std::min(start + config.batch_size, train_nodes.size());
      std::vector<uint32_t> seeds(train_nodes.begin() + start,
                                  train_nodes.begin() + end);
      // Two-hop sampled neighborhood (SAGE fanout via neighbor budget).
      Subgraph sub =
          SampleShadowSubgraph(graph, *adj_list, seeds, 2,
                               config.shadow_neighbor_budget, rng);
      if (sub.nodes.empty()) continue;
      CsrMatrix adj = BuildHomogeneousSubgraphAdjacency(sub);
      std::vector<size_t> idx(sub.nodes.begin(), sub.nodes.end());
      Matrix x = graph.features.GatherRows(idx);
      std::vector<int> labels(sub.nodes.size(), -1);
      for (uint32_t s : seeds) {
        auto it = sub.local_of.find(s);
        if (it != sub.local_of.end()) labels[it->second] = graph.labels[s];
      }

      // ---- forward / backward ----
      SageNet::Cache cache;
      Matrix logits = net.Forward(adj, x, &cache);
      Matrix dlogits;
      loss = tensor::SoftmaxCrossEntropy(logits, labels, &dlogits);

      Matrix dwself1 = Matrix::MatMulTransA(cache.h1, dlogits);
      Matrix dwnbr1 = Matrix::MatMulTransA(cache.z1, dlogits);
      // dH1 = dlogits·Wself1ᵀ + Âᵀ(dlogits·Wnbr1ᵀ)
      Matrix dh1 = Matrix::MatMulTransB(dlogits, net.wself1);
      Matrix tmp = Matrix::MatMulTransB(dlogits, net.wnbr1);
      dh1.Add(adj.SpMMTransposed(tmp));
      dh1.Hadamard(cache.mask);
      Matrix dwself0 = Matrix::MatMulTransA(x, dh1);
      Matrix dwnbr0 = Matrix::MatMulTransA(cache.z0, dh1);

      opt.Step({&dwself0, &dwnbr0, &dwself1, &dwnbr1});
    }

    // Validation on the valid nodes' sampled neighborhoods.
    EpochResult result{loss, std::nullopt};
    if (!vnodes.empty()) {
      Subgraph vsub =
          SampleShadowSubgraph(graph, *adj_list, vnodes, 2,
                               config.shadow_neighbor_budget, rng);
      CsrMatrix adj = BuildHomogeneousSubgraphAdjacency(vsub);
      std::vector<size_t> idx(vsub.nodes.begin(), vsub.nodes.end());
      Matrix x = graph.features.GatherRows(idx);
      Matrix logits = net.Forward(adj, x, nullptr);
      std::vector<int> vlabels(vsub.nodes.size(), -1);
      for (uint32_t i = 0; i < vsub.nodes.size(); ++i) {
        const uint32_t orig = vsub.nodes[i];
        if (valid_labels[orig] >= 0) vlabels[i] = valid_labels[orig];
      }
      result.valid_metric = Accuracy(ArgmaxRows(logits), vlabels);
    }
    return result;
  };
  steps.finish = [&] {
    // Full-graph evaluation: the whole graph is one "subgraph".
    Subgraph full;
    full.nodes.resize(graph.num_nodes);
    for (uint32_t v = 0; v < graph.num_nodes; ++v) {
      full.nodes[v] = v;
      full.local_of.emplace(v, v);
    }
    full.edges = graph.edges;
    test_adj = BuildHomogeneousSubgraphAdjacency(full);
  };
  steps.test = [&](TrainReport* r) {
    return TestPredictions(
        graph, net.Forward(test_adj, graph.features, nullptr), r);
  };
  return RunTraining("Graph-SAGE", graph, config, steps, report);
}

}  // namespace kgnet::gml
