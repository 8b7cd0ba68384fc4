#include "core/inference_manager.h"

#include <cmath>
#include <utility>

#include "common/thread_pool.h"

namespace kgnet::core {

namespace {

using Links = std::vector<std::string>;

Status NoPrediction(const std::string& node_iri) {
  return Status::NotFound("no prediction for node " + node_iri);
}

Status NoRow(const std::string& node_iri) {
  return Status::NotFound("node not in model bundle: " + node_iri);
}

/// The class the bundle predicts for `node_iri`.
Result<std::string> ClassOf(const ServingBundle& b,
                            const std::string& node_iri) {
  uint32_t row;
  if (!b.FindRow(node_iri, &row) || b.row_class[row] < 0)
    return NoPrediction(node_iri);
  return b.class_iris[b.row_class[row]];
}

Links Names(const ServingBundle& b, const std::vector<uint32_t>& rows) {
  Links out;
  out.reserve(rows.size());
  for (uint32_t row : rows) out.push_back(b.node_iris[row]);
  return out;
}

/// The top-k destination rows by `scores`, one per destination row.
Links TopLinks(const ServingBundle& b, const float* scores, size_t k) {
  std::vector<std::pair<float, uint32_t>> scored;
  scored.reserve(b.destination_rows.size());
  for (size_t j = 0; j < b.destination_rows.size(); ++j)
    scored.emplace_back(scores[j], b.destination_rows[j]);
  return Names(b, gml::TopKByScore(std::move(scored), k));
}

float Dot(const float* a, const float* b, size_t d) {
  float acc = 0.0f;
  for (size_t i = 0; i < d; ++i) acc += a[i] * b[i];
  return acc;
}

float Norm(const float* a, size_t d) { return std::sqrt(Dot(a, a, d)) + 1e-12f; }

/// The k rows other than `self` closest to `query` in cosine distance,
/// 1 - <q, r> / (|q| |r|): a flat scan.
Links Nearest(const ServingBundle& b, uint32_t self, const float* query,
              size_t k) {
  const size_t dim = b.embed_dim;
  const float nq = Norm(query, dim);
  std::vector<std::pair<float, uint32_t>> scored;
  scored.reserve(b.node_iris.size());
  for (uint32_t row = 0; row < b.node_iris.size(); ++row) {
    if (row == self) continue;
    const float* r = b.entity_rows.data() + row * dim;
    const float distance = 1.0f - Dot(query, r, dim) / (nq * Norm(r, dim));
    // Negated: the ranker puts the highest score, here the closest, first.
    scored.emplace_back(-distance, row);
  }
  return Names(b, gml::TopKByScore(std::move(scored), k));
}

}  // namespace

Result<std::shared_ptr<const TrainedModel>> InferenceManager::Fetch(
    const std::string& model_uri, bool class_verb) const {
  KGNET_ASSIGN_OR_RETURN(std::shared_ptr<const TrainedModel> model,
                         kgmeta_->GetModel(model_uri));
  const gml::TaskType task = model->info.task;
  if ((task == gml::TaskType::kNodeClassification) != class_verb)
    return Status::FailedPrecondition(
        model_uri + " serves " + gml::TaskTypeName(task) + ", not " +
        (class_verb ? "NodeClassification" : "LinkPrediction"));
  return model;
}

Result<std::string> InferenceManager::GetNodeClass(
    const std::string& model_uri, const std::string& node_iri) {
  CountCall();
  KGNET_ASSIGN_OR_RETURN(auto model, Fetch(model_uri, true));
  return ClassOf(model->bundle, node_iri);
}

Result<std::vector<Result<std::string>>> InferenceManager::GetNodeClassBatch(
    const std::string& model_uri, const std::vector<std::string>& node_iris) {
  CountCall();
  KGNET_ASSIGN_OR_RETURN(auto model, Fetch(model_uri, true));
  std::vector<Result<std::string>> out;
  out.reserve(node_iris.size());
  for (const std::string& iri : node_iris)
    out.push_back(ClassOf(model->bundle, iri));
  return out;
}

Result<std::map<std::string, std::string>>
InferenceManager::GetNodeClassDictionary(const std::string& model_uri) {
  CountCall();
  KGNET_ASSIGN_OR_RETURN(auto model, Fetch(model_uri, true));
  const ServingBundle& b = model->bundle;
  std::map<std::string, std::string> out;
  for (size_t row = 0; row < b.node_iris.size(); ++row)
    if (b.row_class[row] >= 0)
      out.emplace(b.node_iris[row], b.class_iris[b.row_class[row]]);
  return out;
}

Result<std::vector<std::string>> InferenceManager::GetTopKLinks(
    const std::string& model_uri, const std::string& node_iri, size_t k) {
  CountCall();
  KGNET_ASSIGN_OR_RETURN(auto model, Fetch(model_uri, false));
  const ServingBundle& b = model->bundle;
  uint32_t src;
  if (!b.FindRow(node_iri, &src)) return NoRow(node_iri);
  std::vector<float> scores;
  scores.reserve(b.destination_rows.size());
  for (uint32_t dst : b.destination_rows) scores.push_back(b.Score(src, dst));
  return TopLinks(b, scores.data(), k);
}

Result<std::vector<Result<std::vector<std::string>>>>
InferenceManager::GetTopKLinksBatch(const std::string& model_uri,
                                    const std::vector<std::string>& node_iris,
                                    size_t k) {
  CountCall();
  KGNET_ASSIGN_OR_RETURN(auto model, Fetch(model_uri, false));
  const ServingBundle& b = model->bundle;
  std::vector<Result<Links>> out(node_iris.size(),
                                 Result<Links>(Status::Internal("pending")));
  std::vector<uint32_t> srcs;
  std::vector<size_t> slots;
  for (size_t i = 0; i < node_iris.size(); ++i) {
    uint32_t src;
    if (!b.FindRow(node_iris[i], &src)) {
      out[i] = NoRow(node_iris[i]);
      continue;
    }
    srcs.push_back(src);
    slots.push_back(i);
  }
  // One GEMM-shaped kernel for the whole batch: the |srcs| x |pool| score
  // matrix, each cell the same Score call the single-node path makes, so
  // every row is bitwise-identical at any thread count (cells are
  // independent and each is written by exactly one chunk).
  const std::vector<uint32_t>& pool = b.destination_rows;
  const size_t width = pool.size();
  std::vector<float> scores(srcs.size() * width);
  common::ParallelFor(0, srcs.size(), 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      float* row = scores.data() + i * width;
      for (size_t j = 0; j < width; ++j) row[j] = b.Score(srcs[i], pool[j]);
    }
  });
  for (size_t i = 0; i < srcs.size(); ++i)
    out[slots[i]] = TopLinks(b, scores.data() + i * width, k);
  return out;
}

Result<std::vector<float>> InferenceManager::GetEmbeddingRow(
    const std::string& model_uri, const std::string& node_iri) {
  KGNET_ASSIGN_OR_RETURN(auto model, Fetch(model_uri, false));
  const ServingBundle& b = model->bundle;
  uint32_t row;
  if (!b.FindRow(node_iri, &row)) return NoRow(node_iri);
  const float* first = b.entity_rows.data() + row * b.embed_dim;
  return std::vector<float>(first, first + b.embed_dim);
}

Result<std::vector<std::string>> InferenceManager::GetSimilarEntities(
    const std::string& model_uri, const std::string& node_iri, size_t k) {
  CountCall();
  KGNET_ASSIGN_OR_RETURN(auto model, Fetch(model_uri, false));
  const ServingBundle& b = model->bundle;
  uint32_t row;
  if (!b.FindRow(node_iri, &row)) return NoRow(node_iri);
  return Nearest(b, row, b.entity_rows.data() + row * b.embed_dim, k);
}

Result<std::vector<std::string>> InferenceManager::GetSimilarByRow(
    const std::string& model_uri, const std::string& node_iri,
    const std::vector<float>& row, size_t k) {
  CountCall();
  KGNET_ASSIGN_OR_RETURN(auto model, Fetch(model_uri, false));
  const ServingBundle& b = model->bundle;
  uint32_t self;
  if (!b.FindRow(node_iri, &self)) return NoRow(node_iri);
  if (row.size() != b.embed_dim)
    return Status::Internal("embedding dimension mismatch");
  return Nearest(b, self, row.data(), k);
}

}  // namespace kgnet::core
