#include "gml/gcn.h"

#include "gml/metrics.h"
#include "gml/train_util.h"
#include "tensor/csr_matrix.h"
#include "tensor/optimizer.h"

namespace kgnet::gml {

using tensor::CsrMatrix;
using tensor::Matrix;

Status GcnClassifier::Train(const GraphData& graph, const TrainConfig& config,
                            TrainReport* report) {
  if (graph.num_classes == 0)
    return Status::InvalidArgument("graph carries no classification labels");
  const Matrix& x = graph.features;
  CsrMatrix adj;
  Matrix w0, w1;
  tensor::AdamOptimizer opt({.lr = config.lr});
  const std::vector<int> train_labels =
      MaskLabels(graph.labels, graph.target_nodes, graph.train_idx);
  const std::vector<int> valid_labels =
      MaskLabels(graph.labels, graph.target_nodes, graph.valid_idx);

  TrainingSteps steps;
  steps.init = [&](tensor::Rng* rng) {
    adj = graph.BuildGcnAdjacency();
    w0 = Matrix(graph.feature_dim, config.hidden_dim);
    w0.XavierInit(rng);
    w1 = Matrix(config.hidden_dim, graph.num_classes);
    w1.XavierInit(rng);
    opt.Register(&w0);
    opt.Register(&w1);
  };
  steps.epoch = [&](size_t, tensor::Rng*) {
    // ---- forward with caches ----
    Matrix z0 = adj.SpMM(x);
    Matrix pre1 = Matrix::MatMul(z0, w0);
    Matrix mask;
    Matrix h1 = pre1;
    h1.ReluInPlace(&mask);
    Matrix z1 = adj.SpMM(h1);
    Matrix logits = Matrix::MatMul(z1, w1);

    Matrix dlogits;
    const float loss =
        tensor::SoftmaxCrossEntropy(logits, train_labels, &dlogits);

    // ---- backward ----
    Matrix dw1 = Matrix::MatMulTransA(z1, dlogits);
    Matrix dz1 = Matrix::MatMulTransB(dlogits, w1);
    Matrix dh1 = adj.SpMMTransposed(dz1);
    dh1.Hadamard(mask);
    Matrix dw0 = Matrix::MatMulTransA(z0, dh1);

    opt.Step({&dw0, &dw1});
    return EpochResult{loss, Accuracy(ArgmaxRows(logits), valid_labels)};
  };
  steps.test = [&](TrainReport* r) {
    Matrix h1 = Matrix::MatMul(adj.SpMM(x), w0);
    h1.ReluInPlace();
    return TestPredictions(graph, Matrix::MatMul(adj.SpMM(h1), w1), r);
  };
  return RunTraining("GCN", graph, config, steps, report);
}

}  // namespace kgnet::gml
