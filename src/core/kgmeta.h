// KGMeta: the one registry of trained models (paper Figures 3, 6 and 7).
//
// Every registered model is held as its ModelInfo record and the serving
// bundle it answers from, and is described by triples in a dedicated
// TripleStore — its task type, target/label (NC) or source/destination (LP)
// nodes, the GML method, the sampler configuration, and the optimizer
// statistics (accuracy, inference time, cardinality). RegisterModel and
// DeleteModel change the held record and its triples together, so the
// graph is always the queryable view of what is registered: SPARQL over
// KGMeta (and the WHERE clause of a kgnet: DELETE) runs on it. Every other
// read — Get, FindModels, the inference verbs' model lookup — reads the
// held records and never decodes triples.
#ifndef KGNET_CORE_KGMETA_H_
#define KGNET_CORE_KGMETA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "gml/kge.h"
#include "gml/model.h"
#include "rdf/triple_store.h"

namespace kgnet::core {

/// The kgnet: vocabulary.
inline constexpr char kKgnetNs[] = "https://www.kgnet.com/";

struct KgnetVocab {
  static std::string Name(const std::string& n) {
    return std::string(kKgnetNs) + n;
  }
  static std::string NodeClassifier() { return Name("NodeClassifier"); }
  static std::string LinkPredictor() { return Name("LinkPredictor"); }
  static std::string SimilarEntities() { return Name("SimilarEntities"); }
  static std::string TargetNode() { return Name("TargetNode"); }
  static std::string NodeLabel() { return Name("NodeLabel"); }
  static std::string SourceNode() { return Name("SourceNode"); }
  static std::string DestinationNode() { return Name("DestinationNode"); }
  static std::string TaskPredicate() { return Name("TaskPredicate"); }
  static std::string GmlMethod() { return Name("GMLMethod"); }
  static std::string Accuracy() { return Name("modelAccuracy"); }
  static std::string Mrr() { return Name("mrrScore"); }
  static std::string InferenceTime() { return Name("inferenceTimeUs"); }
  static std::string Cardinality() { return Name("modelCardinality"); }
  static std::string TrainTime() { return Name("trainTimeSeconds"); }
  static std::string MemoryUsed() { return Name("trainMemoryBytes"); }
  static std::string Sampler() { return Name("sampler"); }
  static std::string TopKLinks() { return Name("TopK-Links"); }
};

/// Flat description of one trained model: the record KGMeta holds, and
/// what its Figure 7 triples state.
struct ModelInfo {
  std::string uri;
  gml::TaskType task = gml::TaskType::kNodeClassification;
  std::string method;
  /// NC: target type and label predicate.
  std::string target_type_iri;
  std::string label_predicate_iri;
  /// LP: source/destination types and task predicate.
  std::string source_type_iri;
  std::string destination_type_iri;
  std::string task_predicate_iri;
  /// Optimizer statistics.
  double accuracy = 0.0;       // NC accuracy or LP Hits@10
  double mrr = 0.0;
  double inference_us = 0.0;   // mean per-instance inference latency
  size_t cardinality = 0;      // number of instances the model can label
  double train_seconds = 0.0;
  size_t train_memory_bytes = 0;
  std::string sampler_label;   // "d1h1", "full", ...
};

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

/// The KGMeta governor: the registry of models and their graph.
///
/// Thread-safe: the serving front end looks models up from session worker
/// threads while training (serialized by the server) registers and
/// deletes them. One mutex covers the held records and every write to the
/// graph; the graph's own snapshots serve concurrent SPARQL reads. A
/// fetched model is a shared_ptr, so it stays valid even if it is
/// replaced or deleted concurrently.
class KgMeta {
 public:
  KgMeta() = default;

  /// Registers `model` under its URI and writes its Figure 7 triples;
  /// returns the number of triples written. A URI already registered is
  /// AlreadyExists, unless `replace`: then `model` takes the place of the
  /// old record, bundle and triples at once.
  Result<size_t> RegisterModel(std::shared_ptr<const TrainedModel> model,
                               bool replace = false);

  /// Drops the model and every triple about `uri`. NotFound if absent.
  Status DeleteModel(const std::string& uri);

  /// The record of a registered model.
  Result<ModelInfo> Get(const std::string& uri) const;

  /// The registered model itself, bundle included.
  Result<std::shared_ptr<const TrainedModel>> GetModel(
      const std::string& uri) const;

  /// All models of `pattern.task` whose NC target/label (or LP
  /// source/destination/predicate) match the non-empty constraint fields
  /// of `pattern`, in registration order.
  std::vector<ModelInfo> FindModels(const ModelInfo& pattern) const;

  /// Every registered model URI, in ascending order.
  std::vector<std::string> ListModelUris() const;

  size_t NumModels() const;

  /// The graph, for SPARQL queries over KGMeta. Write to it only through
  /// RegisterModel and DeleteModel.
  const rdf::TripleStore& store() const { return store_; }
  rdf::TripleStore& mutable_store() { return store_; }

 private:
  mutable common::Mutex mu_;
  /// In registration order; a replaced model keeps its place.
  std::vector<std::shared_ptr<const TrainedModel>> models_
      KGNET_GUARDED_BY(mu_);
  /// Written only under mu_ (one writer); read through its snapshots.
  rdf::TripleStore store_;
};

}  // namespace kgnet::core

#endif  // KGNET_CORE_KGMETA_H_
