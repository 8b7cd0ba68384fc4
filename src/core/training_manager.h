// GML training manager: the end-to-end automated pipeline of Figure 6.
//
// One TrainTask() call performs: meta-sampling (task-specific subgraph
// extraction), data transformation (GraphData encoding, splits, Xavier
// features), budget-aware method selection, training with the time budget
// enforced, metadata collection, and registration in KGMeta of the
// model's record and serving bundle under the first free model URI.
#ifndef KGNET_CORE_TRAINING_MANAGER_H_
#define KGNET_CORE_TRAINING_MANAGER_H_

#include <optional>
#include <string>

#include "common/result.h"
#include "core/kgmeta.h"
#include "core/meta_sampler.h"
#include "core/method_selector.h"
#include "gml/model.h"

namespace kgnet::core {

/// Everything needed to train one task.
struct TrainTaskSpec {
  gml::TaskType task = gml::TaskType::kNodeClassification;
  /// NC: type whose instances are classified; also the meta-sampling seed
  /// type. LP: the source node type.
  std::string target_type_iri;
  /// NC: the label predicate (e.g. dblp:publishedIn).
  std::string label_predicate_iri;
  /// LP: destination type and task predicate.
  std::string destination_type_iri;
  std::string task_predicate_iri;
  /// Optional user-forced method (experienced-user path of Figure 8).
  std::optional<gml::GmlMethod> forced_method;
  /// Meta-sampling scope. Defaults follow the paper: d1h1 for NC, d2h1 for
  /// LP. use_meta_sampling=false trains on the full KG (the baseline
  /// pipeline in Figures 13-15).
  bool use_meta_sampling = true;
  std::optional<SampleDirection> direction;
  uint32_t hops = 1;
  /// Hyperparameters; config.max_seconds is overridden by budget.
  gml::TrainConfig config;
  TaskBudget budget;
  /// Optional human-readable model name used in the URI.
  std::string model_name;
};

/// What TrainTask() produced.
struct TrainOutcome {
  std::string model_uri;
  ModelInfo info;
  gml::TrainReport report;
  Selection selection;
  MetaSampleStats sample_stats;
  /// Sampler label used ("d1h1" / "full").
  std::string sampler_label;
  /// KGMeta triples the registration wrote.
  size_t meta_triples = 0;
};

/// Drives the automated training pipeline against one data KG.
class GmlTrainingManager {
 public:
  GmlTrainingManager(const rdf::TripleStore* kg, KgMeta* kgmeta)
      : kg_(kg), kgmeta_(kgmeta) {}

  /// Runs the full pipeline; registers the model and returns its outcome.
  Result<TrainOutcome> TrainTask(const TrainTaskSpec& spec);

 private:
  const rdf::TripleStore* kg_;
  KgMeta* kgmeta_;
  /// Where the search for a free model URI starts.
  size_t next_model_id_ = 1;
};

}  // namespace kgnet::core

#endif  // KGNET_CORE_TRAINING_MANAGER_H_
