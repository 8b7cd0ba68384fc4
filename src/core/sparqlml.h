// SPARQL-ML as a Service (paper Section IV-B): the query manager that
// parses, optimizes, rewrites and executes GML-enabled SPARQL queries.
//
// A SPARQL-ML SELECT is ordinary SPARQL whose pattern contains a variable
// in *predicate position* — a user-defined predicate — typed by kgnet:
// metadata triples:
//
//     ?paper ?NodeClassifier ?venue .
//     ?NodeClassifier a kgnet:NodeClassifier .
//     ?NodeClassifier kgnet:TargetNode dblp:Publication .
//     ?NodeClassifier kgnet:NodeLabel dblp:venue .
//
// Execution (Execute, ExecuteWithPlan and Explain share steps 1-3):
//  1. Analyze (once): find user-defined predicates and constraint triples.
//  2. Per predicate, select the near-optimal model from KGMeta (the paper's
//     integer program; solved exactly by enumeration over the candidates)
//     and pick an execution plan — per-instance UDF calls (Figure 11) or a
//     single dictionary-building call (Figure 12) — by comparing the
//     estimated number of HTTP calls with the dictionary size.
//  3. Rewrite all predicates at once into plain SPARQL with sql:UDFS.* calls.
//  4. Execute on the RDF engine; UDFs hit the GML inference manager.
//
// kgnet.TrainGML({...}) in text that does not parse (the paper's form) or
// in an INSERT triggers the automated training pipeline; a SELECT or ASK
// never trains. DELETE queries over kgnet: metadata drop models.
#ifndef KGNET_CORE_SPARQLML_H_
#define KGNET_CORE_SPARQLML_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"
#include "core/inference_manager.h"
#include "core/kgmeta.h"
#include "core/training_manager.h"
#include "sparql/engine.h"

namespace kgnet::core {

/// Which rewritten query template the optimizer chose.
enum class RewritePlan {
  kPerInstance,  // Figure 11: one UDF call per bound instance
  kDictionary,   // Figure 12: one UDF call building a lookup dictionary
};

/// One user-defined predicate occurrence inside a query.
struct UserDefinedPredicate {
  std::string var;          // variable appearing in predicate position
  gml::TaskType task = gml::TaskType::kNodeClassification;
  size_t usage_triple = 0;  // index of "?s ?udp ?o" in where.triples
  std::string subject_var;
  std::string object_var;
  /// Constraints harvested from kgnet: triples.
  ModelInfo constraints;
  size_t topk = 1;  // kgnet:TopK-Links for link predictors
  /// Indexes of all metadata triples to strip during rewriting.
  std::vector<size_t> meta_triples;
  /// The optimizer's choice: SelectModel, then ChoosePlan or a forced plan.
  ModelInfo model;
  RewritePlan plan = RewritePlan::kPerInstance;
};

/// The analysis of a SPARQL-ML query (indexes into its where.triples).
struct SparqlMlAnalysis {
  std::vector<UserDefinedPredicate> udps;
  bool is_sparql_ml() const { return !udps.empty(); }
};

/// Statistics of one executed query (for benchmarks): plan and model of
/// its last user-defined predicate, entries of the dictionaries it built.
struct ExecutionStats {
  RewritePlan plan = RewritePlan::kPerInstance;
  uint64_t http_calls = 0;
  size_t dictionary_entries = 0;
  std::string chosen_model_uri;
  double optimizer_seconds = 0.0;
  double execution_seconds = 0.0;
};

/// The SPARQL-ML query service bound to one data KG.
class SparqlMlService {
 public:
  /// `kg` must outlive the service. The service owns the SPARQL engine,
  /// KGMeta (the model registry), inference and training managers.
  explicit SparqlMlService(rdf::TripleStore* kg);

  /// Parses and executes any SPARQL or SPARQL-ML query. `cancel`, when
  /// valid, makes the run cooperatively cancellable: the engine polls it
  /// per pulled row, trainers poll it at epoch boundaries, and a tripped
  /// token unwinds with Cancelled/DeadlineExceeded — a cancelled TrainGML
  /// registers nothing, and a cancelled update aborts during its WHERE
  /// scan, before any triple is applied. This is how KgServer::Drain()
  /// bounds the serialized service path (docs/RESILIENCE.md).
  Result<sparql::QueryResult> Execute(std::string_view text,
                                      ExecutionStats* stats = nullptr,
                                      common::CancelToken cancel = {});

  /// Execute with `plan` forced on every user-defined predicate (benches).
  Result<sparql::QueryResult> ExecuteWithPlan(std::string_view text,
                                              RewritePlan plan,
                                              ExecutionStats* stats);

  // --- individual pipeline stages, exposed for tests and benches ---

  /// Finds user-defined predicates in a parsed query.
  Result<SparqlMlAnalysis> Analyze(const sparql::Query& query) const;

  /// The optimizer's model selection for one user-defined predicate:
  /// maximizes accuracy, breaking ties by lower inference time (the
  /// paper's integer program over KGMeta statistics).
  Result<ModelInfo> SelectModel(const UserDefinedPredicate& udp) const;

  /// Chooses the plan by cost: per-instance costs |instances| calls (the
  /// most selective data triple on the udp's subject); dictionary costs 1
  /// call plus a dictionary of `udp.model.cardinality` entries.
  RewritePlan ChoosePlan(const sparql::Query& query,
                         const SparqlMlAnalysis& analysis,
                         const UserDefinedPredicate& udp) const;

  /// Rewrites `query` into plain SPARQL in one pass: strips every udp's
  /// usage and metadata triples and calls its model with its plan.
  Result<sparql::Query> Rewrite(sparql::Query query,
                                const SparqlMlAnalysis& analysis) const;

  // --- service components ---
  GmlTrainingManager& training_manager() { return *training_; }
  InferenceManager& inference_manager() { return *inference_; }
  KgMeta& kgmeta() { return kgmeta_; }
  sparql::QueryEngine& engine() { return *engine_; }

  /// Parses a TrainGML JSON payload into a TrainTaskSpec (public for
  /// tests). `prefixes` resolves prefixed names inside the payload.
  Result<TrainTaskSpec> ParseTrainSpec(
      const std::string& json_text,
      const std::map<std::string, std::string>& prefixes) const;

  /// What Explain() reports about a SPARQL-ML query without executing it.
  struct ExplainResult {
    bool is_sparql_ml = false;
    /// Model chosen for each user-defined predicate, in rewrite order.
    std::vector<std::string> model_uris;
    RewritePlan plan = RewritePlan::kPerInstance;
    /// The final plain-SPARQL text (Figures 11/12), serialized.
    std::string rewritten_sparql;
  };

  /// Runs analysis, model selection, plan choice and rewriting — but not
  /// execution — and reports the outcome. The GML analogue of EXPLAIN.
  Result<ExplainResult> Explain(std::string_view text) const;

 private:
  Result<sparql::QueryResult> ExecuteTrainGml(std::string_view text,
                                              common::CancelToken cancel);
  Result<sparql::QueryResult> ExecuteDelete(const sparql::Query& query);
  /// The one optimizer step: Analyze into `analysis`, SelectModel and
  /// ChoosePlan (or `forced`) per udp, Rewrite. Plain SPARQL passes.
  Result<sparql::Query> Optimize(sparql::Query query,
                                 std::optional<RewritePlan> forced,
                                 SparqlMlAnalysis* analysis) const;
  /// Execute and ExecuteWithPlan.
  Result<sparql::QueryResult> Run(std::string_view text,
                                  std::optional<RewritePlan> forced,
                                  ExecutionStats* stats,
                                  common::CancelToken cancel);
  void RegisterUdfs();

  rdf::TripleStore* kg_;
  std::unique_ptr<sparql::QueryEngine> engine_;
  KgMeta kgmeta_;
  std::unique_ptr<InferenceManager> inference_;
  std::unique_ptr<GmlTrainingManager> training_;
  /// Dictionary-plan lookup tables by handle, dropped as each query ends.
  std::map<std::string, std::map<std::string, std::string>> dicts_;
  size_t next_dict_id_ = 1;
};

}  // namespace kgnet::core

#endif  // KGNET_CORE_SPARQLML_H_
