// In-memory registry of trained model artifacts (the GMLaaS "model and
// embedding storage" of Figure 3).
#ifndef KGNET_CORE_MODEL_STORE_H_
#define KGNET_CORE_MODEL_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "core/kgmeta.h"
#include "gml/kge.h"

namespace kgnet::core {

/// What a registered model answers from (paper Figure 6, "Model Saving"
/// and "Model Loader"): the same for a model fresh from training and for
/// one read back from disk (core/model_io.h). Row i is node i of the graph
/// the model was trained on.
struct ServingBundle {
  std::vector<std::string> node_iris;

  // ---- node classifiers ----
  /// The class IRIs, in the graph's class order.
  std::vector<std::string> class_iris;
  /// Per row, the predicted class (an index into class_iris), or -1 where
  /// the model predicts none (a node that is not a target).
  std::vector<int32_t> row_class;

  // ---- link predictors: the model's own scorer ----
  gml::KgeScore score = gml::KgeScore::kTransE;
  size_t embed_dim = 0;
  std::vector<float> entity_rows;   // node_iris.size() x embed_dim
  std::vector<float> relation_row;  // embed_dim floats
  /// The rows a predicted link may point to.
  std::vector<uint32_t> destination_rows;

  /// Builds the IRI -> row index once node_iris is final.
  void IndexRows();
  /// The row holding `iri` (the lowest, should two rows share it); false
  /// when the bundle holds no such IRI.
  bool FindRow(std::string_view iri, uint32_t* row) const;
  /// The model's score of the task edge (row src, row dst).
  float Score(uint32_t src, uint32_t dst) const {
    return gml::KgeScoreRows(score, entity_rows.data() + src * embed_dim,
                             relation_row.data(),
                             entity_rows.data() + dst * embed_dim, embed_dim);
  }

 private:
  /// Open-addressing hash table of rows (UINT32_MAX: empty), sized to a
  /// power of two at least twice the row count.
  std::vector<uint32_t> slots_;
};

/// A registered model: its KGMeta record and its serving bundle.
struct TrainedModel {
  ModelInfo info;
  ServingBundle bundle;
};

/// Maps model URIs to trained artifacts.
///
/// Thread-safe: the serving front end reads models from session worker
/// threads while training (serialized by the server) may register new
/// ones. Get hands out a shared_ptr copy, so a fetched model stays valid
/// even if it is replaced or removed concurrently.
class ModelStore {
 public:
  /// Stores `model` under its URI; replaces any previous entry.
  void Put(std::shared_ptr<TrainedModel> model) {
    common::MutexLock lock(&mu_);
    models_[model->info.uri] = std::move(model);
  }

  /// Fetches a model.
  Result<std::shared_ptr<TrainedModel>> Get(const std::string& uri) const {
    common::MutexLock lock(&mu_);
    auto it = models_.find(uri);
    if (it == models_.end())
      return Status::NotFound("no trained model stored for " + uri);
    return it->second;
  }

  /// Drops a model; returns NotFound when absent.
  Status Remove(const std::string& uri) {
    common::MutexLock lock(&mu_);
    return models_.erase(uri) > 0
               ? Status::OK()
               : Status::NotFound("no trained model stored for " + uri);
  }

  /// Every stored URI, in ascending order.
  std::vector<std::string> ListUris() const {
    common::MutexLock lock(&mu_);
    std::vector<std::string> out;
    out.reserve(models_.size());
    for (const auto& [uri, m] : models_) out.push_back(uri);
    return out;
  }

  size_t size() const {
    common::MutexLock lock(&mu_);
    return models_.size();
  }

 private:
  mutable common::Mutex mu_;
  // Ordered by URI, so ListUris() — and the bundles SaveModelStore
  // writes — come out in one order on every run.
  std::map<std::string, std::shared_ptr<TrainedModel>> models_
      KGNET_GUARDED_BY(mu_);
};

}  // namespace kgnet::core

#endif  // KGNET_CORE_MODEL_STORE_H_
