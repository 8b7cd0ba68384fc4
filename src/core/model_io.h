// Model persistence (paper Figure 6: "GNN Model Saving" and "Model
// Loader").
//
// Every registered model answers from its serving bundle
// (core/kgmeta.h), built when training registers the model:
//   * node classifiers: the predicted class of every target node,
//   * link predictors / similarity models: the entity embedding rows, the
//     model's own scoring function with its task-relation row, and the
//     candidate rows of the destination type.
// A link predictor's bundle scores with the model's own scorer
// (gml::KgeScoreRows), so it ranks exactly as the trained model does. A
// saved bundle loads back into the same answers. The format is a simple
// framed little-endian binary ("KGNM2"); files of the retired "KGNM1"
// format are rejected.
#ifndef KGNET_CORE_MODEL_IO_H_
#define KGNET_CORE_MODEL_IO_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/kgmeta.h"
#include "gml/graph_data.h"

namespace kgnet::core {

/// The bundle of a trained node classifier: the class it predicts for
/// each target node of `graph`, whose terms `dict` names.
Result<ServingBundle> BuildServingBundle(
    const gml::NodeClassifier& classifier, const gml::GraphData& graph,
    const rdf::Dictionary& dict);

/// The bundle of a trained link predictor: its entity rows, scoring
/// function and task-relation row, and the rows of `graph`'s destination
/// candidates (every row when the graph names none).
Result<ServingBundle> BuildServingBundle(const gml::LinkPredictor& predictor,
                                         const gml::GraphData& graph,
                                         const rdf::Dictionary& dict);

/// Writes `model` (its ModelInfo + serving bundle) to `path`.
Status SaveTrainedModel(const TrainedModel& model, const std::string& path);

/// Reads a model saved by SaveTrainedModel. Any malformed file is a
/// ParseError; no count or length in it is trusted beyond the bytes that
/// follow it.
Result<std::shared_ptr<TrainedModel>> LoadTrainedModel(
    const std::string& path);

/// LoadTrainedModel over the bytes of a file.
Result<std::shared_ptr<TrainedModel>> ParseTrainedModel(
    std::string_view bytes);

/// Saves every model registered in `kgmeta` into `dir` as one <n>.kgm
/// bundle each, in ascending URI order. A bundle carries the model's
/// ModelInfo, which is all LoadModelStore needs to register it again.
/// Returns the number of models written.
Result<size_t> SaveModelStore(const KgMeta& kgmeta, const std::string& dir);

/// Registers every *.kgm under `dir` in `kgmeta`, in file-name order. The
/// loaded file wins: a model already registered under the same URI is
/// replaced, record, bundle and triples together. Returns the number of
/// models loaded.
Result<size_t> LoadModelStore(const std::string& dir, KgMeta* kgmeta);

}  // namespace kgnet::core

#endif  // KGNET_CORE_MODEL_IO_H_
