// Model persistence (paper Figure 6: "GNN Model Saving" and "Model
// Loader").
//
// A trained model is exported as a self-contained *serving bundle*: the
// KGMeta record plus everything inference needs —
//   * node classifiers: the per-instance prediction dictionary,
//   * link predictors / similarity models: entity embeddings aligned with
//     node IRIs, the task-relation translation vector and the candidate
//     rows of the destination type.
// Bundles restore through the ModelStore and serve through the
// InferenceManager. A node-classifier bundle answers exactly the target
// nodes the live model answers, with the same classes. A link-predictor
// bundle does not rank exactly like the live model: it scores with a
// translation vector estimated as the mean (tail - head) of the training
// edges in place of the model's own scorer, which is exact only for
// TransE, so its top-k lists can differ. The format is a simple framed
// little-endian binary ("KGNM1").
#ifndef KGNET_CORE_MODEL_IO_H_
#define KGNET_CORE_MODEL_IO_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/model_store.h"

namespace kgnet::core {

/// Builds the serving bundle from a live trained model (runs batch
/// inference for classifiers; exports embeddings for predictors).
Result<ServingBundle> BuildServingBundle(const TrainedModel& model);

/// Writes `model` (its ModelInfo + serving bundle) to `path`.
Status SaveTrainedModel(const TrainedModel& model, const std::string& path);

/// Reads a model saved by SaveTrainedModel. The returned TrainedModel has
/// `bundle` set and no live classifier/predictor objects; the
/// InferenceManager serves it from the bundle.
Result<std::shared_ptr<TrainedModel>> LoadTrainedModel(
    const std::string& path);

/// Saves every model in `store` into `dir` as <n>.kgm files plus the
/// KGMeta graph as kgmeta.nt. Returns the number of models written.
Result<size_t> SaveModelStore(const ModelStore& store, const KgMeta& kgmeta,
                              const std::string& dir);

/// Loads every *.kgm under `dir` into `store` and kgmeta.nt into `kgmeta`
/// (skipping models whose URIs are already registered). Returns the number
/// of models loaded.
Result<size_t> LoadModelStore(const std::string& dir, ModelStore* store,
                              KgMeta* kgmeta);

/// TransE-style score between two embedding rows of a bundle, using the
/// bundle's task-relation vector.
float ServingScore(const ServingBundle& bundle, size_t src_row,
                   size_t dst_row);

}  // namespace kgnet::core

#endif  // KGNET_CORE_MODEL_IO_H_
