#include "core/training_manager.h"

#include <utility>

#include "core/model_io.h"

namespace kgnet::core {

using gml::GmlMethod;
using gml::TaskType;

Result<TrainOutcome> GmlTrainingManager::TrainTask(const TrainTaskSpec& spec) {
  if (spec.target_type_iri.empty())
    return Status::InvalidArgument("target_type_iri is required");
  if (spec.task == TaskType::kNodeClassification &&
      spec.label_predicate_iri.empty())
    return Status::InvalidArgument(
        "label_predicate_iri is required for node classification");
  if (spec.task != TaskType::kNodeClassification &&
      spec.task_predicate_iri.empty())
    return Status::InvalidArgument(
        "task_predicate_iri is required for link prediction");

  TrainOutcome outcome;

  // ---- 1+2. Meta-sampling and data transformation (Figure 6 "Dataset
  // Transformer"). KG' is extracted as triples of the KG's own ids and
  // encoded straight from them; it is never loaded into a store. ----
  gml::TransformOptions topts;
  topts.target_type_iri = spec.target_type_iri;
  if (spec.task == TaskType::kNodeClassification) {
    topts.label_predicate_iri = spec.label_predicate_iri;
  } else {
    topts.task_predicate_iri = spec.task_predicate_iri;
    topts.destination_type_iri = spec.destination_type_iri;
  }
  topts.feature_dim = spec.config.embed_dim;
  topts.seed = spec.config.seed;
  gml::GraphData graph;
  if (spec.use_meta_sampling) {
    MetaSampleSpec ms;
    ms.target_type_iri = spec.target_type_iri;
    if (spec.task == TaskType::kNodeClassification) {
      ms.supervision_predicate_iris = {spec.label_predicate_iri};
      ms.direction = spec.direction.value_or(SampleDirection::kOutgoing);
    } else {
      ms.supervision_predicate_iris = {spec.task_predicate_iri};
      ms.direction = spec.direction.value_or(SampleDirection::kBidirectional);
    }
    ms.hops = spec.hops;
    MetaSampler sampler(kg_);
    KGNET_ASSIGN_OR_RETURN(SampledTriples kg_prime,
                           sampler.ExtractTriples(ms, &outcome.sample_stats));
    KGNET_ASSIGN_OR_RETURN(
        graph, gml::BuildGraphData(kg_prime.triples, kg_->dict(), topts));
    outcome.sampler_label = SampleSpecLabel(ms);
  } else {
    KGNET_ASSIGN_OR_RETURN(graph, gml::BuildGraphData(*kg_, topts));
    outcome.sampler_label = "full";
  }

  // ---- 3. Budget-aware method selection. ----
  gml::TrainConfig config = spec.config;
  if (spec.budget.max_seconds > 0) config.max_seconds = spec.budget.max_seconds;
  GraphSummary summary = GraphSummary::FromGraph(graph);
  KGNET_ASSIGN_OR_RETURN(
      Selection selection,
      MethodSelector::Select(spec.task, summary, config, spec.budget));
  if (spec.forced_method.has_value()) {
    selection.method = *spec.forced_method;
    selection.estimate =
        MethodSelector::Estimate(selection.method, summary, config);
    selection.within_budget = true;
  }
  outcome.selection = selection;

  // ---- 4. Training, then the serving bundle the model answers from;
  // the graph and the trained parameters are dropped with this frame. ----
  auto model = std::make_shared<TrainedModel>();
  if (spec.task == TaskType::kNodeClassification) {
    KGNET_ASSIGN_OR_RETURN(auto classifier,
                           gml::MakeNodeClassifier(selection.method));
    KGNET_RETURN_IF_ERROR(classifier->Train(graph, config, &outcome.report));
    KGNET_ASSIGN_OR_RETURN(model->bundle,
                           BuildServingBundle(*classifier, graph, kg_->dict()));
  } else {
    KGNET_ASSIGN_OR_RETURN(auto predictor,
                           gml::MakeLinkPredictor(selection.method));
    KGNET_RETURN_IF_ERROR(predictor->Train(graph, config, &outcome.report));
    KGNET_ASSIGN_OR_RETURN(model->bundle,
                           BuildServingBundle(*predictor, graph, kg_->dict()));
  }

  // ---- 5. Metadata collection into KGMeta, under the first free URI (a
  // model loaded from disk may already hold the next one). ----
  std::string name = spec.model_name.empty()
                         ? std::string(gml::TaskTypeName(spec.task))
                         : spec.model_name;
  do {
    outcome.model_uri = KgnetVocab::Name("model/" + name + "-" +
                                         std::to_string(next_model_id_++));
  } while (kgmeta_->Get(outcome.model_uri).ok());
  ModelInfo& info = outcome.info;
  info.uri = outcome.model_uri;
  info.task = spec.task;
  info.method = outcome.report.method;
  info.sampler_label = outcome.sampler_label;
  info.accuracy = outcome.report.metric;
  info.mrr = outcome.report.mrr;
  info.inference_us = outcome.report.inference_us;
  info.train_seconds = outcome.report.train_seconds;
  info.train_memory_bytes = outcome.report.peak_memory_bytes;
  if (spec.task == TaskType::kNodeClassification) {
    info.target_type_iri = spec.target_type_iri;
    info.label_predicate_iri = spec.label_predicate_iri;
    info.cardinality = graph.target_nodes.size();
  } else {
    info.source_type_iri = spec.target_type_iri;
    info.destination_type_iri = spec.destination_type_iri;
    info.task_predicate_iri = spec.task_predicate_iri;
    info.cardinality = graph.train_edges.size() +
                       graph.valid_edges.size() +
                       graph.test_edges.size();
  }
  model->info = info;
  KGNET_ASSIGN_OR_RETURN(outcome.meta_triples,
                         kgmeta_->RegisterModel(std::move(model)));
  return outcome;
}

}  // namespace kgnet::core
