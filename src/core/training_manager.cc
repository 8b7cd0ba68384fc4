#include "core/training_manager.h"

#include <algorithm>
#include <utility>

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
  std::shared_ptr<gml::GraphData> graph_ptr;
  std::vector<rdf::TermId> sample_terms;
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
        gml::GraphData graph,
        gml::BuildGraphData(kg_prime.triples, kg_->dict(), topts));
    graph_ptr = std::make_shared<gml::GraphData>(std::move(graph));
    sample_terms = std::move(kg_prime.terms);
    std::sort(sample_terms.begin(), sample_terms.end());
    outcome.sampler_label = SampleSpecLabel(ms);
  } else {
    KGNET_ASSIGN_OR_RETURN(gml::GraphData graph,
                           gml::BuildGraphData(*kg_, topts));
    graph_ptr = std::make_shared<gml::GraphData>(std::move(graph));
    outcome.sampler_label = "full";
  }

  // ---- 3. Budget-aware method selection. ----
  gml::TrainConfig config = spec.config;
  if (spec.budget.max_seconds > 0) config.max_seconds = spec.budget.max_seconds;
  GraphSummary summary = GraphSummary::FromGraph(*graph_ptr);
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

  // ---- 4. Training. ----
  auto model = std::make_shared<TrainedModel>();
  model->graph = graph_ptr;
  model->source_store = kg_;
  model->sample_terms = std::move(sample_terms);
  if (spec.task == TaskType::kNodeClassification) {
    KGNET_ASSIGN_OR_RETURN(auto classifier,
                           gml::MakeNodeClassifier(selection.method));
    KGNET_RETURN_IF_ERROR(
        classifier->Train(*graph_ptr, config, &outcome.report));
    model->classifier = std::shared_ptr<gml::NodeClassifier>(
        std::move(classifier));
  } else {
    KGNET_ASSIGN_OR_RETURN(auto predictor,
                           gml::MakeLinkPredictor(selection.method));
    KGNET_RETURN_IF_ERROR(
        predictor->Train(*graph_ptr, config, &outcome.report));
    model->predictor =
        std::shared_ptr<gml::LinkPredictor>(std::move(predictor));
    // Populate the embedding store for similarity search; the dimension
    // comes from the first embedding (complex models may round it up).
    std::shared_ptr<EmbeddingStore> store;
    for (uint32_t v = 0; v < graph_ptr->num_nodes; ++v) {
      std::vector<float> emb = model->predictor->EntityEmbedding(v);
      if (emb.empty()) continue;
      if (store == nullptr)
        store = std::make_shared<EmbeddingStore>(emb.size());
      (void)store->Add(v, emb);
    }
    if (store != nullptr && store->size() > 0) model->embeddings = store;
  }

  // ---- 5. Metadata collection into KGMeta. ----
  std::string name = spec.model_name.empty()
                         ? std::string(gml::TaskTypeName(spec.task))
                         : spec.model_name;
  outcome.model_uri = KgnetVocab::Name("model/" + name + "-" +
                                       std::to_string(next_model_id_++));
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
    info.cardinality = graph_ptr->target_nodes.size();
  } else {
    info.source_type_iri = spec.target_type_iri;
    info.destination_type_iri = spec.destination_type_iri;
    info.task_predicate_iri = spec.task_predicate_iri;
    info.cardinality = graph_ptr->train_edges.size() +
                       graph_ptr->valid_edges.size() +
                       graph_ptr->test_edges.size();
  }
  model->info = info;
  KGNET_RETURN_IF_ERROR(kgmeta_->RegisterModel(info));
  models_->Put(std::move(model));
  return outcome;
}

}  // namespace kgnet::core
