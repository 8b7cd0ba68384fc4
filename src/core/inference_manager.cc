#include "core/inference_manager.h"

#include <algorithm>
#include <utility>

#include "common/thread_pool.h"
#include "core/model_io.h"

namespace kgnet::core {

using rdf::kNullTermId;
using rdf::TermId;

namespace {

/// The dictionary a live model's graph ids belong to.
const rdf::Dictionary& DictOf(const TrainedModel& model) {
  return model.source_store->dict();
}

/// Whether `node` is a target node of `graph` — one a node classifier
/// answers for, as its saved bundle does. Only target nodes carry labels.
bool IsTargetNode(const gml::GraphData& graph, uint32_t node) {
  return node < graph.labels.size() && graph.labels[node] >= 0;
}

}  // namespace

Result<uint32_t> InferenceManager::ResolveNodeIn(const TrainedModel& model,
                                                 const std::string& model_uri,
                                                 const std::string& node_iri) {
  if (model.source_store == nullptr)
    return Status::Internal("model has no source store: " + model_uri);
  TermId term = DictOf(model).FindIri(node_iri);
  if (term == kNullTermId || !model.InTrainingKg(term))
    return Status::NotFound("node not in model's training graph: " +
                            node_iri);
  uint32_t node;
  if (!model.graph->FindNode(term, &node))
    return Status::NotFound("node not in encoded graph: " + node_iri);
  return node;
}

Result<InferenceManager::ResolvedNode> InferenceManager::Resolve(
    const std::string& model_uri, const std::string& node_iri) {
  KGNET_ASSIGN_OR_RETURN(auto model, models_->Get(model_uri));
  KGNET_ASSIGN_OR_RETURN(uint32_t node,
                         ResolveNodeIn(*model, model_uri, node_iri));
  return ResolvedNode{std::move(model), node};
}

Result<std::string> InferenceManager::NodeClassImpl(
    const std::shared_ptr<TrainedModel>& model, const std::string& model_uri,
    const std::string& node_iri) {
  if (model->bundle != nullptr) {
    auto it = model->bundle->nc_predictions.find(node_iri);
    if (it == model->bundle->nc_predictions.end())
      return Status::NotFound("no prediction for node " + node_iri);
    return it->second;
  }
  KGNET_ASSIGN_OR_RETURN(uint32_t node,
                         ResolveNodeIn(*model, model_uri, node_iri));
  if (model->classifier == nullptr)
    return Status::FailedPrecondition(model_uri +
                                      " is not a node classifier");
  if (!IsTargetNode(*model->graph, node))
    return Status::NotFound("no prediction for node " + node_iri);
  std::vector<int> pred = model->classifier->Predict(*model->graph, {node});
  if (pred.empty() || pred[0] < 0 ||
      static_cast<size_t>(pred[0]) >= model->graph->class_terms.size())
    return Status::NotFound("no prediction for node " + node_iri);
  return DictOf(*model).Lookup(model->graph->class_terms[pred[0]]).lexical;
}

Result<std::string> InferenceManager::GetNodeClass(
    const std::string& model_uri, const std::string& node_iri) {
  CountCall();
  KGNET_ASSIGN_OR_RETURN(auto model, models_->Get(model_uri));
  return NodeClassImpl(model, model_uri, node_iri);
}

Result<std::vector<Result<std::string>>> InferenceManager::GetNodeClassBatch(
    const std::string& model_uri, const std::vector<std::string>& node_iris) {
  CountCall();
  KGNET_ASSIGN_OR_RETURN(auto model, models_->Get(model_uri));
  std::vector<Result<std::string>> out(
      node_iris.size(), Result<std::string>(Status::Internal("pending")));
  if (model->bundle != nullptr) {
    for (size_t i = 0; i < node_iris.size(); ++i) {
      auto it = model->bundle->nc_predictions.find(node_iris[i]);
      if (it == model->bundle->nc_predictions.end())
        out[i] = Status::NotFound("no prediction for node " + node_iris[i]);
      else
        out[i] = it->second;
    }
    return out;
  }
  // Resolve every node up front (per-element errors stay identical to the
  // single-node path), then answer all resolvable nodes with ONE forward.
  std::vector<uint32_t> nodes;
  std::vector<size_t> slots;
  for (size_t i = 0; i < node_iris.size(); ++i) {
    Result<uint32_t> rn = ResolveNodeIn(*model, model_uri, node_iris[i]);
    if (!rn.ok()) {
      out[i] = rn.status();
      continue;
    }
    if (model->classifier == nullptr) {
      out[i] = Status::FailedPrecondition(model_uri +
                                          " is not a node classifier");
      continue;
    }
    if (!IsTargetNode(*model->graph, *rn)) {
      out[i] = Status::NotFound("no prediction for node " + node_iris[i]);
      continue;
    }
    nodes.push_back(*rn);
    slots.push_back(i);
  }
  if (!nodes.empty()) {
    // Predict is per-node independent for every classifier (a cached-
    // prediction lookup), so element j of the batched call is bitwise-
    // identical to Predict(graph, {nodes[j]})[0].
    std::vector<int> preds = model->classifier->Predict(*model->graph, nodes);
    const rdf::Dictionary& dict = DictOf(*model);
    for (size_t j = 0; j < nodes.size(); ++j) {
      const int cls = preds[j];
      if (cls < 0 ||
          static_cast<size_t>(cls) >= model->graph->class_terms.size())
        out[slots[j]] =
            Status::NotFound("no prediction for node " + node_iris[slots[j]]);
      else
        out[slots[j]] = dict.Lookup(model->graph->class_terms[cls]).lexical;
    }
  }
  return out;
}

Result<std::map<std::string, std::string>>
InferenceManager::GetNodeClassDictionary(const std::string& model_uri) {
  CountCall();
  KGNET_ASSIGN_OR_RETURN(auto model, models_->Get(model_uri));
  if (model->bundle != nullptr) return model->bundle->nc_predictions;
  if (model->classifier == nullptr)
    return Status::FailedPrecondition(model_uri +
                                      " is not a node classifier");
  const rdf::Dictionary& dict = DictOf(*model);
  const gml::GraphData& graph = *model->graph;
  std::vector<int> preds =
      model->classifier->Predict(graph, graph.target_nodes);
  std::map<std::string, std::string> out;
  for (size_t i = 0; i < graph.target_nodes.size(); ++i) {
    const int cls = preds[i];
    if (cls < 0 || static_cast<size_t>(cls) >= graph.class_terms.size())
      continue;
    const std::string& node_iri =
        dict.Lookup(graph.node_terms[graph.target_nodes[i]]).lexical;
    out[node_iri] = dict.Lookup(graph.class_terms[cls]).lexical;
  }
  return out;
}

Result<std::vector<std::string>> InferenceManager::TopKLinksImpl(
    const std::shared_ptr<TrainedModel>& model, const std::string& model_uri,
    const std::string& node_iri, size_t k) {
  const std::shared_ptr<ServingBundle>& b = model->bundle;
  if (b != nullptr) {
    if (b->embed_dim == 0)
      return Status::FailedPrecondition(model_uri +
                                        " is not a link predictor");
    auto sit = std::find(b->node_iris.begin(), b->node_iris.end(),
                         node_iri);
    if (sit == b->node_iris.end())
      return Status::NotFound("node not in model bundle: " + node_iri);
    const size_t src = static_cast<size_t>(sit - b->node_iris.begin());
    std::vector<std::pair<float, uint32_t>> scored;
    const std::vector<uint32_t>* pool = &b->destination_rows;
    std::vector<uint32_t> all_rows;
    if (pool->empty()) {
      all_rows.resize(b->node_iris.size());
      for (uint32_t i = 0; i < all_rows.size(); ++i) all_rows[i] = i;
      pool = &all_rows;
    }
    for (uint32_t row : *pool)
      scored.emplace_back(ServingScore(*b, src, row), row);
    const size_t kk = std::min(k, scored.size());
    std::partial_sort(scored.begin(), scored.begin() + kk, scored.end(),
                      [](const auto& a, const auto& c) {
                        return a.first > c.first;
                      });
    std::vector<std::string> out;
    for (size_t i = 0; i < kk; ++i)
      out.push_back(b->node_iris[scored[i].second]);
    return out;
  }
  KGNET_ASSIGN_OR_RETURN(uint32_t node,
                         ResolveNodeIn(*model, model_uri, node_iri));
  if (model->predictor == nullptr)
    return Status::FailedPrecondition(model_uri + " is not a link predictor");
  const gml::GraphData& graph = *model->graph;
  if (graph.task_relation == UINT32_MAX)
    return Status::FailedPrecondition("model has no task relation");
  const rdf::Dictionary& dict = DictOf(*model);

  // Rank candidate tails; when the metadata names a destination type, keep
  // the graph's candidates: the nodes typed so in the KG it was trained on.
  const bool typed = !model->info.destination_type_iri.empty();
  std::vector<char> candidate;
  if (typed) {
    candidate.assign(graph.num_nodes, 0);
    for (uint32_t c : graph.destination_candidates) candidate[c] = 1;
  }
  std::vector<uint32_t> ranked = model->predictor->TopKTails(
      node, graph.task_relation, typed ? graph.num_nodes : k);
  std::vector<std::string> out;
  for (uint32_t t : ranked) {
    if (out.size() >= k) break;
    if (typed && !candidate[t]) continue;
    out.push_back(dict.Lookup(graph.node_terms[t]).lexical);
  }
  return out;
}

Result<std::vector<std::string>> InferenceManager::GetTopKLinks(
    const std::string& model_uri, const std::string& node_iri, size_t k) {
  CountCall();
  KGNET_ASSIGN_OR_RETURN(auto model, models_->Get(model_uri));
  return TopKLinksImpl(model, model_uri, node_iri, k);
}

Result<std::vector<Result<std::vector<std::string>>>>
InferenceManager::GetTopKLinksBatch(const std::string& model_uri,
                                    const std::vector<std::string>& node_iris,
                                    size_t k) {
  using Links = std::vector<std::string>;
  CountCall();
  KGNET_ASSIGN_OR_RETURN(auto model, models_->Get(model_uri));
  std::vector<Result<Links>> out(node_iris.size(),
                                 Result<Links>(Status::Internal("pending")));
  const std::shared_ptr<ServingBundle>& b = model->bundle;
  if (b == nullptr) {
    // In-memory models answer through the predictor's own TopKTails; run
    // the single-node body per element (still one counted API call).
    for (size_t i = 0; i < node_iris.size(); ++i)
      out[i] = TopKLinksImpl(model, model_uri, node_iris[i], k);
    return out;
  }
  if (b->embed_dim == 0)
    return Status::FailedPrecondition(model_uri + " is not a link predictor");
  std::vector<size_t> srcs;
  std::vector<size_t> slots;
  for (size_t i = 0; i < node_iris.size(); ++i) {
    auto sit =
        std::find(b->node_iris.begin(), b->node_iris.end(), node_iris[i]);
    if (sit == b->node_iris.end()) {
      out[i] = Status::NotFound("node not in model bundle: " + node_iris[i]);
      continue;
    }
    srcs.push_back(static_cast<size_t>(sit - b->node_iris.begin()));
    slots.push_back(i);
  }
  // Candidate pool built exactly as the single-node path builds it.
  const std::vector<uint32_t>* pool = &b->destination_rows;
  std::vector<uint32_t> all_rows;
  if (pool->empty()) {
    all_rows.resize(b->node_iris.size());
    for (uint32_t i = 0; i < all_rows.size(); ++i) all_rows[i] = i;
    pool = &all_rows;
  }
  // One GEMM-shaped kernel for the whole batch: the |srcs| x |pool| score
  // matrix, each cell the same ServingScore call the single-node path
  // makes, so every row is bitwise-identical at any thread count (cells
  // are independent and each is written by exactly one chunk).
  const size_t width = pool->size();
  std::vector<float> scores(srcs.size() * width);
  common::ParallelFor(0, srcs.size(), 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      float* row = scores.data() + i * width;
      for (size_t j = 0; j < width; ++j)
        row[j] = ServingScore(*b, srcs[i], (*pool)[j]);
    }
  });
  for (size_t i = 0; i < srcs.size(); ++i) {
    std::vector<std::pair<float, uint32_t>> scored;
    scored.reserve(width);
    for (size_t j = 0; j < width; ++j)
      scored.emplace_back(scores[i * width + j], (*pool)[j]);
    const size_t kk = std::min(k, scored.size());
    std::partial_sort(scored.begin(), scored.begin() + kk, scored.end(),
                      [](const auto& a, const auto& c) {
                        return a.first > c.first;
                      });
    Links links;
    links.reserve(kk);
    for (size_t m = 0; m < kk; ++m)
      links.push_back(b->node_iris[scored[m].second]);
    out[slots[i]] = std::move(links);
  }
  return out;
}

Result<std::vector<float>> InferenceManager::EmbeddingRowImpl(
    const std::string& model_uri, const std::string& node_iri) {
  KGNET_ASSIGN_OR_RETURN(auto model, models_->Get(model_uri));
  const std::shared_ptr<ServingBundle>& b = model->bundle;
  if (b != nullptr) {
    if (model->embeddings == nullptr)
      return Status::FailedPrecondition(model_uri +
                                        " has no embedding store");
    auto sit = std::find(b->node_iris.begin(), b->node_iris.end(),
                         node_iri);
    if (sit == b->node_iris.end())
      return Status::NotFound("node not in model bundle: " + node_iri);
    const size_t src = static_cast<size_t>(sit - b->node_iris.begin());
    return std::vector<float>(
        b->embeddings.begin() + src * b->embed_dim,
        b->embeddings.begin() + (src + 1) * b->embed_dim);
  }
  KGNET_ASSIGN_OR_RETURN(ResolvedNode rn, Resolve(model_uri, node_iri));
  if (rn.model->embeddings == nullptr)
    return Status::FailedPrecondition(model_uri +
                                      " has no embedding store");
  std::vector<float> query =
      rn.model->predictor != nullptr
          ? rn.model->predictor->EntityEmbedding(rn.node)
          : std::vector<float>();
  if (query.size() != rn.model->embeddings->dim())
    return Status::Internal("embedding dimension mismatch");
  return query;
}

Result<std::vector<std::string>> InferenceManager::SimilarByRowImpl(
    const std::string& model_uri, const std::string& node_iri,
    const std::vector<float>& row, size_t k) {
  KGNET_ASSIGN_OR_RETURN(auto model, models_->Get(model_uri));
  const std::shared_ptr<ServingBundle>& b = model->bundle;
  if (b != nullptr) {
    if (model->embeddings == nullptr)
      return Status::FailedPrecondition(model_uri +
                                        " has no embedding store");
    auto sit = std::find(b->node_iris.begin(), b->node_iris.end(),
                         node_iri);
    if (sit == b->node_iris.end())
      return Status::NotFound("node not in model bundle: " + node_iri);
    const size_t src = static_cast<size_t>(sit - b->node_iris.begin());
    std::vector<std::string> out;
    for (const SearchHit& hit : model->embeddings->SearchIvf(row, k + 1)) {
      if (hit.id == src) continue;
      if (out.size() >= k) break;
      out.push_back(b->node_iris[hit.id]);
    }
    return out;
  }
  KGNET_ASSIGN_OR_RETURN(ResolvedNode rn, Resolve(model_uri, node_iri));
  if (rn.model->embeddings == nullptr)
    return Status::FailedPrecondition(model_uri +
                                      " has no embedding store");
  if (row.size() != rn.model->embeddings->dim())
    return Status::Internal("embedding dimension mismatch");
  const rdf::Dictionary& dict = DictOf(*rn.model);
  std::vector<std::string> out;
  for (const SearchHit& hit :
       rn.model->embeddings->SearchIvf(row, k + 1)) {
    const uint32_t node = static_cast<uint32_t>(hit.id);
    if (node == rn.node) continue;  // skip self
    if (out.size() >= k) break;
    out.push_back(dict.Lookup(rn.model->graph->node_terms[node]).lexical);
  }
  return out;
}

Result<std::vector<std::string>> InferenceManager::GetSimilarEntities(
    const std::string& model_uri, const std::string& node_iri, size_t k) {
  CountCall();
  KGNET_ASSIGN_OR_RETURN(std::vector<float> row,
                         EmbeddingRowImpl(model_uri, node_iri));
  return SimilarByRowImpl(model_uri, node_iri, row, k);
}

Result<std::vector<float>> InferenceManager::GetEmbeddingRow(
    const std::string& model_uri, const std::string& node_iri) {
  return EmbeddingRowImpl(model_uri, node_iri);
}

Result<std::vector<std::string>> InferenceManager::GetSimilarByRow(
    const std::string& model_uri, const std::string& node_iri,
    const std::vector<float>& row, size_t k) {
  CountCall();
  return SimilarByRowImpl(model_uri, node_iri, row, k);
}

}  // namespace kgnet::core
