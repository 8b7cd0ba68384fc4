// KgNet: the platform facade (paper Figure 3).
//
// Owns the data KG (an RDF triple store), the SPARQL-ML service with its
// KGMeta model registry and training and inference managers, and exposes the
// handful of entry points an application needs:
//
//   KgNet kg;
//   kg.LoadNTriples(...); or generate into kg.store()
//   kg.Execute("SPARQL or SPARQL-ML text")
//   kg.TrainTask(spec)          // programmatic alternative to TrainGML
//   kg.GetSimilarEntities(...)  // entity-similarity search
#ifndef KGNET_CORE_KGNET_H_
#define KGNET_CORE_KGNET_H_

#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "core/sparqlml.h"

namespace kgnet::core {

/// The GML-enabled knowledge-graph platform.
class KgNet {
 public:
  KgNet() : service_(std::make_unique<SparqlMlService>(&store_)) {}

  /// The data KG.
  rdf::TripleStore& store() { return store_; }
  const rdf::TripleStore& store() const { return store_; }

  /// Loads N-Triples text into the KG; returns triples added.
  Result<size_t> LoadNTriples(std::string_view document);

  /// Executes a SPARQL or SPARQL-ML query (SELECT / ASK / INSERT / DELETE /
  /// TrainGML).
  Result<sparql::QueryResult> Execute(std::string_view text,
                                      ExecutionStats* stats = nullptr);

  /// Trains a task programmatically (same pipeline as TrainGML).
  Result<TrainOutcome> TrainTask(const TrainTaskSpec& spec) {
    return service_->training_manager().TrainTask(spec);
  }

  /// Entity-similarity search against a trained LP model's embeddings.
  Result<std::vector<std::string>> GetSimilarEntities(
      const std::string& model_uri, const std::string& node_iri, size_t k) {
    return service_->inference_manager().GetSimilarEntities(model_uri,
                                                            node_iri, k);
  }

  SparqlMlService& service() { return *service_; }

 private:
  rdf::TripleStore store_;
  std::unique_ptr<SparqlMlService> service_;
};

}  // namespace kgnet::core

#endif  // KGNET_CORE_KGNET_H_
