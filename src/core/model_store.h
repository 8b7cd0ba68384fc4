// In-memory registry of trained model artifacts (the GMLaaS "model and
// embedding storage" of Figure 3).
#ifndef KGNET_CORE_MODEL_STORE_H_
#define KGNET_CORE_MODEL_STORE_H_

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "core/embedding_store.h"
#include "core/kgmeta.h"
#include "gml/model.h"

namespace kgnet::core {

/// The self-contained inference payload a model can be persisted and
/// served from (see core/model_io.h). NC models carry their prediction
/// dictionary; LP/ES models carry aligned entity embeddings, the task
/// relation vector and the destination-candidate rows.
struct ServingBundle {
  std::map<std::string, std::string> nc_predictions;
  std::vector<std::string> node_iris;
  size_t embed_dim = 0;
  std::vector<float> embeddings;  // node_iris.size() x embed_dim
  std::vector<float> task_relation;
  std::vector<uint32_t> destination_rows;
};

/// A trained model plus everything needed to serve inference for it: the
/// graph encoding it was trained on, whose node/relation/class term ids are
/// those of `source_store`'s dictionary. Models restored from disk carry
/// only `info` and `bundle`.
struct TrainedModel {
  ModelInfo info;
  std::shared_ptr<gml::NodeClassifier> classifier;  // NC models
  std::shared_ptr<gml::LinkPredictor> predictor;    // LP models
  std::shared_ptr<gml::GraphData> graph;
  /// The data KG the model was trained from. Its dictionary is
  /// append-only, so `graph`'s ids stay valid while the KG changes.
  const rdf::TripleStore* source_store = nullptr;
  /// Sorted ids of every term of KG' when the model was trained on a
  /// meta-sample; empty when it was trained on the whole KG.
  std::vector<rdf::TermId> sample_terms;
  /// Entity embeddings for similarity search (LP models).
  std::shared_ptr<EmbeddingStore> embeddings;
  /// Persisted serving payload (set for models loaded from disk).
  std::shared_ptr<ServingBundle> bundle;

  /// True when `term` belongs to the KG the model was trained on: KG'
  /// when sampled, else the whole source KG.
  bool InTrainingKg(rdf::TermId term) const {
    return sample_terms.empty() ||
           std::binary_search(sample_terms.begin(), sample_terms.end(), term);
  }
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
