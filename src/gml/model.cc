#include "gml/model.h"

#include <memory>

#include "gml/gcn.h"
#include "gml/kge.h"
#include "gml/metrics.h"
#include "gml/morse.h"
#include "gml/rgcn.h"
#include "gml/sage.h"
#include "gml/saint.h"
#include "gml/train_util.h"

namespace kgnet::gml {

const char* GmlMethodName(GmlMethod m) {
  switch (m) {
    case GmlMethod::kGcn:
      return "GCN";
    case GmlMethod::kRgcn:
      return "RGCN";
    case GmlMethod::kGraphSaint:
      return "Graph-SAINT";
    case GmlMethod::kShadowSaint:
      return "Shadow-SAINT";
    case GmlMethod::kGraphSage:
      return "Graph-SAGE";
    case GmlMethod::kMorse:
      return "MorsE";
    case GmlMethod::kTransE:
      return "TransE";
    case GmlMethod::kDistMult:
      return "DistMult";
    case GmlMethod::kComplEx:
      return "ComplEx";
    case GmlMethod::kRotatE:
      return "RotatE";
  }
  return "unknown";
}

const char* TaskTypeName(TaskType t) {
  switch (t) {
    case TaskType::kNodeClassification:
      return "NodeClassification";
    case TaskType::kLinkPrediction:
      return "LinkPrediction";
    case TaskType::kEntitySimilarity:
      return "EntitySimilarity";
  }
  return "unknown";
}

size_t NodeClassifier::TestPredictions(const GraphData& graph,
                                       const tensor::Matrix& logits,
                                       TrainReport* report) {
  predictions_ = ArgmaxRows(logits);
  const std::vector<int> test_labels =
      MaskLabels(graph.labels, graph.target_nodes, graph.test_idx);
  report->metric = Accuracy(predictions_, test_labels);
  report->macro_f1 = MacroF1(predictions_, test_labels, graph.num_classes);
  return graph.target_nodes.size();
}

std::optional<double> LinkPredictor::ValidationMrr(const GraphData& graph,
                                                   const TrainConfig& config,
                                                   size_t epoch) const {
  if (graph.valid_edges.empty()) return std::nullopt;
  const size_t candidates =
      config.eval_candidates == 0 ? 100 : config.eval_candidates;
  return MeanReciprocalRank(RankTestEdges(*this, graph, graph.valid_edges,
                                          candidates, config.seed + epoch,
                                          config.eval_within_type));
}

size_t LinkPredictor::TestRanks(const GraphData& graph,
                                const TrainConfig& config,
                                TrainReport* report) const {
  const std::vector<size_t> ranks =
      RankTestEdges(*this, graph, graph.test_edges, config.eval_candidates,
                    config.seed + 7919, config.eval_within_type);
  report->metric = HitsAtK(ranks, 10);
  report->mrr = MeanReciprocalRank(ranks);
  return graph.test_edges.size();
}

Result<std::unique_ptr<NodeClassifier>> MakeNodeClassifier(GmlMethod method) {
  switch (method) {
    case GmlMethod::kGcn:
      return std::unique_ptr<NodeClassifier>(std::make_unique<GcnClassifier>());
    case GmlMethod::kRgcn:
      return std::unique_ptr<NodeClassifier>(std::make_unique<RgcnClassifier>());
    case GmlMethod::kGraphSaint:
      return std::unique_ptr<NodeClassifier>(
          std::make_unique<GraphSaintClassifier>());
    case GmlMethod::kShadowSaint:
      return std::unique_ptr<NodeClassifier>(
          std::make_unique<ShadowSaintClassifier>());
    case GmlMethod::kGraphSage:
      return std::unique_ptr<NodeClassifier>(std::make_unique<SageClassifier>());
    default:
      return Status::InvalidArgument(
          std::string(GmlMethodName(method)) +
          " is not a node-classification method");
  }
}

Result<std::unique_ptr<LinkPredictor>> MakeLinkPredictor(GmlMethod method) {
  switch (method) {
    case GmlMethod::kTransE:
      return std::unique_ptr<LinkPredictor>(
          std::make_unique<KgeModel>(KgeScore::kTransE));
    case GmlMethod::kDistMult:
      return std::unique_ptr<LinkPredictor>(
          std::make_unique<KgeModel>(KgeScore::kDistMult));
    case GmlMethod::kComplEx:
      return std::unique_ptr<LinkPredictor>(
          std::make_unique<KgeModel>(KgeScore::kComplEx));
    case GmlMethod::kRotatE:
      return std::unique_ptr<LinkPredictor>(
          std::make_unique<KgeModel>(KgeScore::kRotatE));
    case GmlMethod::kMorse:
      return std::unique_ptr<LinkPredictor>(std::make_unique<MorseModel>());
    default:
      return Status::InvalidArgument(std::string(GmlMethodName(method)) +
                                     " is not a link-prediction method");
  }
}

}  // namespace kgnet::gml
