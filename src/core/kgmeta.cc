#include "core/kgmeta.h"

#include <algorithm>

namespace kgnet::core {

using rdf::kNullTermId;
using rdf::Term;
using rdf::TermId;
using rdf::TriplePattern;

namespace {

Status NotRegistered(const std::string& uri) {
  return Status::NotFound("model not registered: " + uri);
}

/// Writes the Figure 7 triples of `info` into `store`; returns how many.
size_t WriteTriples(const ModelInfo& info, rdf::TripleStore* store) {
  const Term subject = Term::Iri(info.uri);
  size_t written = 0;
  auto add = [&](const std::string& pred, const Term& value) {
    written += store->Insert(subject, Term::Iri(pred), value) ? 1 : 0;
  };
  auto add_iri = [&](const std::string& pred, const std::string& value) {
    if (!value.empty()) add(pred, Term::Iri(value));
  };
  auto add_num = [&](const std::string& pred, double value) {
    add(pred, Term::DoubleLiteral(value));
  };

  add_iri(std::string(rdf::kRdfType),
          info.task == gml::TaskType::kNodeClassification
              ? KgnetVocab::NodeClassifier()
          : info.task == gml::TaskType::kEntitySimilarity
              ? KgnetVocab::SimilarEntities()
              : KgnetVocab::LinkPredictor());
  if (info.task == gml::TaskType::kNodeClassification) {
    add_iri(KgnetVocab::TargetNode(), info.target_type_iri);
    add_iri(KgnetVocab::NodeLabel(), info.label_predicate_iri);
  } else {
    add_iri(KgnetVocab::SourceNode(), info.source_type_iri);
    add_iri(KgnetVocab::DestinationNode(), info.destination_type_iri);
    add_iri(KgnetVocab::TaskPredicate(), info.task_predicate_iri);
  }
  if (!info.method.empty())
    add(KgnetVocab::GmlMethod(), Term::Literal(info.method));
  if (!info.sampler_label.empty())
    add(KgnetVocab::Sampler(), Term::Literal(info.sampler_label));
  add_num(KgnetVocab::Accuracy(), info.accuracy);
  add_num(KgnetVocab::Mrr(), info.mrr);
  add_num(KgnetVocab::InferenceTime(), info.inference_us);
  add_num(KgnetVocab::Cardinality(), static_cast<double>(info.cardinality));
  add_num(KgnetVocab::TrainTime(), info.train_seconds);
  add_num(KgnetVocab::MemoryUsed(),
          static_cast<double>(info.train_memory_bytes));
  return written;
}

/// The model held under `uri` in `models`, or models.end().
template <typename Models>
auto FindUri(Models& models, const std::string& uri) {
  return std::find_if(models.begin(), models.end(),
                      [&](const auto& m) { return m->info.uri == uri; });
}

/// Erases every triple about `uri` from `store`.
void EraseTriples(const std::string& uri, rdf::TripleStore* store) {
  const TermId id = store->dict().FindIri(uri);
  if (id != kNullTermId)
    store->EraseMatching(TriplePattern(id, kNullTermId, kNullTermId));
}

}  // namespace

Result<size_t> KgMeta::RegisterModel(std::shared_ptr<const TrainedModel> model,
                                     bool replace) {
  const std::string& uri = model->info.uri;
  if (uri.empty())
    return Status::InvalidArgument("model URI must not be empty");
  common::MutexLock lock(&mu_);
  auto it = FindUri(models_, uri);
  if (it == models_.end()) {
    models_.push_back(model);
  } else if (replace) {
    EraseTriples(uri, &store_);
    *it = model;
  } else {
    return Status::AlreadyExists("model already registered: " + uri);
  }
  return WriteTriples(model->info, &store_);
}

Status KgMeta::DeleteModel(const std::string& uri) {
  common::MutexLock lock(&mu_);
  auto it = FindUri(models_, uri);
  if (it == models_.end()) return NotRegistered(uri);
  EraseTriples(uri, &store_);
  models_.erase(it);
  return Status::OK();
}

Result<std::shared_ptr<const TrainedModel>> KgMeta::GetModel(
    const std::string& uri) const {
  common::MutexLock lock(&mu_);
  auto it = FindUri(models_, uri);
  if (it == models_.end()) return NotRegistered(uri);
  return *it;
}

Result<ModelInfo> KgMeta::Get(const std::string& uri) const {
  KGNET_ASSIGN_OR_RETURN(std::shared_ptr<const TrainedModel> model,
                         GetModel(uri));
  return model->info;
}

std::vector<std::string> KgMeta::ListModelUris() const {
  std::vector<std::string> uris;
  {
    common::MutexLock lock(&mu_);
    uris.reserve(models_.size());
    for (const auto& m : models_) uris.push_back(m->info.uri);
  }
  std::sort(uris.begin(), uris.end());
  return uris;
}

size_t KgMeta::NumModels() const {
  common::MutexLock lock(&mu_);
  return models_.size();
}

std::vector<ModelInfo> KgMeta::FindModels(const ModelInfo& pattern) const {
  auto match = [](const std::string& want, const std::string& have) {
    return want.empty() || want == have;
  };
  std::vector<ModelInfo> out;
  common::MutexLock lock(&mu_);
  for (const auto& m : models_) {
    const ModelInfo& info = m->info;
    if (info.task != pattern.task) continue;
    if (pattern.task == gml::TaskType::kNodeClassification) {
      if (!match(pattern.target_type_iri, info.target_type_iri)) continue;
      if (!match(pattern.label_predicate_iri, info.label_predicate_iri))
        continue;
    } else {
      if (!match(pattern.source_type_iri, info.source_type_iri)) continue;
      if (!match(pattern.destination_type_iri, info.destination_type_iri))
        continue;
      if (!match(pattern.task_predicate_iri, info.task_predicate_iri))
        continue;
    }
    out.push_back(info);
  }
  return out;
}

}  // namespace kgnet::core
