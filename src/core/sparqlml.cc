#include "core/sparqlml.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"
#include "core/json.h"
#include "gml/train_util.h"
#include "sparql/parser.h"
#include "sparql/serializer.h"

namespace kgnet::core {

using rdf::Term;
using sparql::Expr;
using sparql::NodeRef;
using sparql::PatternTriple;
using sparql::Query;
using sparql::QueryKind;
using sparql::QueryResult;

namespace {

/// UDF names used by the rewritten queries.
constexpr char kUdfGetNodeClass[] = "sql:UDFS.getNodeClass";
constexpr char kUdfGetNodeClassDict[] = "sql:UDFS.getNodeClassDict";
constexpr char kUdfGetKeyValue[] = "sql:UDFS.getKeyValue";
constexpr char kUdfGetLinkPred[] = "sql:UDFS.getLinkPred";
constexpr char kUdfGetSimilarEntity[] = "sql:UDFS.getSimilarEntity";

bool IsKgnetIri(const std::string& iri) {
  return StartsWith(iri, kKgnetNs);
}

/// The optional third UDF argument k, default 1. It comes from query text,
/// so it is clamped to [1, 2^32] (rows are 32-bit ids) before the cast.
size_t TopKArg(const std::vector<Term>& args) {
  double k = 1;
  if (args.size() < 3 || !args[2].AsDouble(&k) || !(k >= 1)) return 1;
  return static_cast<size_t>(std::min(k, 4294967296.0));
}

/// The integer field `name` of the TrainGML object `obj`: a JSON number
/// with an integer value in [lo, hi], or `fallback` when the field is
/// absent. The payload comes from outside the process, so anything else
/// is InvalidArgument naming the field and its range.
Result<uint64_t> IntField(const JsonValue& obj, const char* name,
                          uint64_t lo, uint64_t hi, uint64_t fallback) {
  const JsonValue* v = obj.FindRelaxed(name);
  if (v == nullptr) return fallback;
  const double x = v->is_number() ? v->AsNumber() : -1.0;
  if (!(x >= static_cast<double>(lo) && x <= static_cast<double>(hi)) ||
      x != std::floor(x)) {
    return Status::InvalidArgument(
        std::string("TrainGML ") + name + " must be an integer in [" +
        std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return static_cast<uint64_t>(x);
}

/// Binds the object variable of `udp` to the UDF call of its model and
/// plan, adding the Figure 12 sub-select that builds the dictionary.
void BindUdp(const UserDefinedPredicate& udp, Query* out) {
  const Term model = Term::Iri(udp.model.uri);
  sparql::ExprPtr call;
  if (udp.task != gml::TaskType::kNodeClassification) {
    call = Expr::Call(
        udp.task == gml::TaskType::kLinkPrediction ? kUdfGetLinkPred
                                                   : kUdfGetSimilarEntity,
        {Expr::Const(model), Expr::Var(udp.subject_var),
         Expr::Const(Term::IntLiteral(static_cast<int64_t>(udp.topk)))});
  } else if (udp.plan == RewritePlan::kPerInstance) {
    // Figure 11: sql:UDFS.getNodeClass($m, ?paper) AS ?venue
    call = Expr::Call(kUdfGetNodeClass,
                      {Expr::Const(model), Expr::Var(udp.subject_var)});
  } else {
    // Figure 12: an inner sub-select builds ?venue_dic once with
    // { SELECT getNodeClassDict($m) AS ?venue_dic WHERE { } }, then
    // sql:UDFS.getKeyValue(?venue_dic, ?paper) AS ?venue.
    const std::string dict_var = udp.object_var + "_dic";
    call = Expr::Call(kUdfGetKeyValue,
                      {Expr::Var(dict_var), Expr::Var(udp.subject_var)});
    auto sub = std::make_shared<Query>();
    sub->kind = QueryKind::kSelect;
    sub->prefixes = out->prefixes;
    sub->select.push_back(
        {Expr::Call(kUdfGetNodeClassDict, {Expr::Const(model)}), dict_var});
    out->where.subselects.push_back(std::move(sub));
  }

  // Replace projections of the object variable with the UDF call.
  bool replaced = false;
  for (sparql::SelectItem& item : out->select) {
    if (item.expr->op == sparql::ExprOp::kVar &&
        item.expr->var == udp.object_var) {
      item.expr = call;
      replaced = true;
    }
  }
  // Object var not projected: still evaluate the UDF so the pattern's
  // semantics (prediction exists) are preserved.
  if (!replaced) out->select.push_back({call, udp.object_var});
}

}  // namespace

SparqlMlService::SparqlMlService(rdf::TripleStore* kg) : kg_(kg) {
  engine_ = std::make_unique<sparql::QueryEngine>(kg_);
  inference_ = std::make_unique<InferenceManager>(&kgmeta_);
  training_ = std::make_unique<GmlTrainingManager>(kg_, &kgmeta_);
  RegisterUdfs();
}

void SparqlMlService::RegisterUdfs() {
  // Figure 11 plan: one call per instance.
  engine_->udfs().Register(
      kUdfGetNodeClass,
      [this](const std::vector<Term>& args) -> Result<Term> {
        if (args.size() != 2 || !args[0].is_iri() || !args[1].is_iri())
          return Status::InvalidArgument(
              "getNodeClass(model IRI, node IRI) expected");
        KGNET_ASSIGN_OR_RETURN(
            std::string cls,
            inference_->GetNodeClass(args[0].lexical, args[1].lexical));
        return Term::Iri(cls);
      });
  // Figure 12 plan: one call building the whole dictionary; returns a
  // handle IRI the getKeyValue UDF resolves locally.
  engine_->udfs().Register(
      kUdfGetNodeClassDict,
      [this](const std::vector<Term>& args) -> Result<Term> {
        if (args.empty() || !args[0].is_iri())
          return Status::InvalidArgument(
              "getNodeClassDict(model IRI) expected");
        KGNET_ASSIGN_OR_RETURN(
            auto dict, inference_->GetNodeClassDictionary(args[0].lexical));
        const std::string handle =
            KgnetVocab::Name("dict/" + std::to_string(next_dict_id_++));
        dicts_[handle] = std::move(dict);
        return Term::Iri(handle);
      });
  engine_->udfs().Register(
      kUdfGetKeyValue,
      [this](const std::vector<Term>& args) -> Result<Term> {
        if (args.size() != 2 || !args[0].is_iri() || !args[1].is_iri())
          return Status::InvalidArgument(
              "getKeyValue(dict handle, key IRI) expected");
        auto dit = dicts_.find(args[0].lexical);
        if (dit == dicts_.end())
          return Status::NotFound("unknown dictionary handle " +
                                  args[0].lexical);
        auto vit = dit->second.find(args[1].lexical);
        if (vit == dit->second.end()) return Term::Literal("");
        return Term::Iri(vit->second);
      });
  // Entity similarity: most similar entity by embedding distance.
  engine_->udfs().Register(
      kUdfGetSimilarEntity,
      [this](const std::vector<Term>& args) -> Result<Term> {
        if (args.size() < 2 || !args[0].is_iri() || !args[1].is_iri())
          return Status::InvalidArgument(
              "getSimilarEntity(model IRI, node IRI[, k]) expected");
        KGNET_ASSIGN_OR_RETURN(
            auto similar,
            inference_->GetSimilarEntities(args[0].lexical, args[1].lexical,
                                           TopKArg(args)));
        if (similar.empty()) return Term::Literal("");
        return Term::Iri(similar.back());
      });
  // Link prediction: top-1 predicted destination for an instance.
  engine_->udfs().Register(
      kUdfGetLinkPred,
      [this](const std::vector<Term>& args) -> Result<Term> {
        if (args.size() < 2 || !args[0].is_iri() || !args[1].is_iri())
          return Status::InvalidArgument(
              "getLinkPred(model IRI, node IRI[, k]) expected");
        KGNET_ASSIGN_OR_RETURN(auto links,
                               inference_->GetTopKLinks(args[0].lexical,
                                                        args[1].lexical,
                                                        TopKArg(args)));
        if (links.empty()) return Term::Literal("");
        return Term::Iri(links.front());
      });
}

Result<SparqlMlAnalysis> SparqlMlService::Analyze(const Query& query) const {
  SparqlMlAnalysis analysis;
  const auto& triples = query.where.triples;

  // Pass 1: find candidate variables — those used in predicate position
  // whose metadata triples type them with a kgnet: class.
  for (size_t i = 0; i < triples.size(); ++i) {
    const PatternTriple& t = triples[i];
    if (!t.p.is_var) continue;
    const std::string& var = t.p.var;
    // Find "?var a kgnet:NodeClassifier / kgnet:LinkPredictor".
    gml::TaskType task = gml::TaskType::kNodeClassification;
    bool typed = false;
    for (const PatternTriple& m : triples) {
      if (!m.s.is_var || m.s.var != var || m.p.is_var || m.o.is_var)
        continue;
      if (m.p.term.lexical == rdf::kRdfType && IsKgnetIri(m.o.term.lexical)) {
        typed = true;
        task = m.o.term.lexical == KgnetVocab::LinkPredictor()
                   ? gml::TaskType::kLinkPrediction
               : m.o.term.lexical == KgnetVocab::SimilarEntities()
                   ? gml::TaskType::kEntitySimilarity
                   : gml::TaskType::kNodeClassification;
      }
    }
    if (!typed) continue;

    UserDefinedPredicate udp;
    udp.var = var;
    udp.task = task;
    udp.usage_triple = i;
    if (!t.s.is_var || !t.o.is_var)
      return Status::Unimplemented(
          "user-defined predicate requires variable subject and object");
    udp.subject_var = t.s.var;
    udp.object_var = t.o.var;
    udp.constraints.task = task;

    // Pass 2: harvest constraint triples about ?var.
    for (size_t j = 0; j < triples.size(); ++j) {
      const PatternTriple& m = triples[j];
      if (!m.s.is_var || m.s.var != var) continue;
      if (j == i) continue;
      udp.meta_triples.push_back(j);
      if (m.p.is_var) continue;
      const std::string& pred = m.p.term.lexical;
      const std::string value = m.o.is_var ? "" : m.o.term.lexical;
      if (pred == KgnetVocab::TargetNode()) {
        if (task == gml::TaskType::kNodeClassification) {
          udp.constraints.target_type_iri = value;
        } else {
          udp.constraints.source_type_iri = value;
        }
      } else if (pred == KgnetVocab::NodeLabel()) {
        udp.constraints.label_predicate_iri = value;
      } else if (pred == KgnetVocab::SourceNode()) {
        udp.constraints.source_type_iri = value;
      } else if (pred == KgnetVocab::DestinationNode()) {
        udp.constraints.destination_type_iri = value;
      } else if (pred == KgnetVocab::TaskPredicate()) {
        udp.constraints.task_predicate_iri = value;
      } else if (pred == KgnetVocab::TopKLinks()) {
        if (!m.o.is_var) {
          double k = 1;
          if (m.o.term.AsDouble(&k) && k >= 1)
            udp.topk = static_cast<size_t>(k);
        }
      }
    }
    analysis.udps.push_back(std::move(udp));
  }
  return analysis;
}

Result<ModelInfo> SparqlMlService::SelectModel(
    const UserDefinedPredicate& udp) const {
  std::vector<ModelInfo> candidates = kgmeta_.FindModels(udp.constraints);
  if (candidates.empty())
    return Status::NotFound(
        "no trained model in KGMeta matches predicate ?" + udp.var);
  // The optimizer's objective (Section IV-B3): maximize accuracy; among
  // models within 1% of the best accuracy, minimize inference time. This is
  // the exact solution of the 0/1 selection program for a single predicate.
  double best_acc = 0.0;
  for (const ModelInfo& m : candidates) best_acc = std::max(best_acc, m.accuracy);
  const ModelInfo* best = nullptr;
  for (const ModelInfo& m : candidates) {
    if (m.accuracy + 0.01 < best_acc) continue;
    if (best == nullptr || m.inference_us < best->inference_us) best = &m;
  }
  return *best;
}

RewritePlan SparqlMlService::ChoosePlan(const Query& query,
                                        const SparqlMlAnalysis& analysis,
                                        const UserDefinedPredicate& udp) const {
  // Estimate the number of instances the subject variable binds to: the
  // cardinality of its most selective data triple pattern.
  size_t instances = SIZE_MAX;
  const auto& triples = query.where.triples;
  for (size_t j = 0; j < triples.size(); ++j) {
    if (std::any_of(analysis.udps.begin(), analysis.udps.end(),
                    [j](const UserDefinedPredicate& u) {
                      return u.usage_triple == j;
                    }))
      continue;
    const PatternTriple& t = triples[j];
    if (!t.s.is_var || t.s.var != udp.subject_var) continue;
    rdf::TriplePattern p;
    if (!t.p.is_var) p.p = kg_->dict().Find(t.p.term);
    if (!t.o.is_var) p.o = kg_->dict().Find(t.o.term);
    instances = std::min(instances, kg_->EstimateCardinality(p));
  }
  if (instances == SIZE_MAX) instances = udp.model.cardinality;

  // Cost model: per-instance = |instances| HTTP calls; dictionary = 1 call
  // + |model.cardinality| dictionary entries whose local lookup is ~1000x
  // cheaper than an HTTP round trip.
  const double call_cost = 1000.0;
  const double per_instance = static_cast<double>(instances) * call_cost;
  const double dictionary =
      call_cost + static_cast<double>(udp.model.cardinality);
  return per_instance <= dictionary ? RewritePlan::kPerInstance
                                    : RewritePlan::kDictionary;
}

Result<Query> SparqlMlService::Rewrite(Query query,
                                       const SparqlMlAnalysis& analysis) const {
  if (query.select_all) {
    return Status::Unimplemented(
        "SELECT * with user-defined predicates is not supported; project "
        "explicit variables");
  }
  // Strip every usage triple and every metadata triple.
  std::vector<bool> drop(query.where.triples.size(), false);
  for (const UserDefinedPredicate& udp : analysis.udps) {
    drop[udp.usage_triple] = true;
    for (size_t j : udp.meta_triples) drop[j] = true;
  }
  std::vector<PatternTriple> kept;
  for (size_t j = 0; j < query.where.triples.size(); ++j)
    if (!drop[j]) kept.push_back(std::move(query.where.triples[j]));
  query.where.triples = std::move(kept);

  for (const UserDefinedPredicate& udp : analysis.udps) BindUdp(udp, &query);
  return query;
}

Result<Query> SparqlMlService::Optimize(Query query,
                                        std::optional<RewritePlan> forced,
                                        SparqlMlAnalysis* analysis) const {
  KGNET_ASSIGN_OR_RETURN(*analysis, Analyze(query));
  if (!analysis->is_sparql_ml()) return query;
  for (UserDefinedPredicate& udp : analysis->udps) {
    KGNET_ASSIGN_OR_RETURN(udp.model, SelectModel(udp));
    udp.plan = forced.value_or(ChoosePlan(query, *analysis, udp));
  }
  return Rewrite(std::move(query), *analysis);
}

Result<QueryResult> SparqlMlService::Run(std::string_view text,
                                         std::optional<RewritePlan> forced,
                                         ExecutionStats* stats,
                                         common::CancelToken cancel) {
  Result<Query> parsed = sparql::ParseQuery(text);
  // TrainGML is not SPARQL grammar: the paper's form does not parse, and a
  // client that must send parseable text puts the call in an INSERT's
  // literal. A SELECT or ASK never trains.
  const bool may_train =
      !parsed.ok() || parsed->kind == QueryKind::kInsertData ||
      parsed->kind == QueryKind::kInsertWhere;
  if (may_train && text.find("TrainGML") != std::string_view::npos)
    return ExecuteTrainGml(text, std::move(cancel));
  if (!parsed.ok()) return parsed.status();
  if (parsed->kind == QueryKind::kDeleteWhere) {
    // kgnet: metadata deletes manage models; anything else runs on the KG.
    for (const PatternTriple& t : parsed->where.triples)
      if (!t.o.is_var && IsKgnetIri(t.o.term.lexical))
        return ExecuteDelete(*parsed);
  }

  gml::Stopwatch opt_timer;
  SparqlMlAnalysis analysis;
  KGNET_ASSIGN_OR_RETURN(Query plain,
                         Optimize(std::move(*parsed), forced, &analysis));
  const double opt_seconds = opt_timer.Seconds();
  gml::Stopwatch exec_timer;
  const uint64_t calls_before = inference_->http_calls();
  Result<QueryResult> result = engine_->Execute(
      plain, kg_->OpenSnapshot(), nullptr, std::move(cancel));
  // A dictionary lives only as long as the query that built it.
  size_t dictionary_entries = 0;
  for (const auto& [handle, dict] : dicts_) dictionary_entries += dict.size();
  dicts_.clear();
  if (result.ok() && stats != nullptr) {
    const UserDefinedPredicate last = analysis.is_sparql_ml()
                                          ? analysis.udps.back()
                                          : UserDefinedPredicate{};
    *stats = {last.plan,         inference_->http_calls() - calls_before,
              dictionary_entries, last.model.uri,
              opt_seconds,        exec_timer.Seconds()};
  }
  return result;
}

Result<QueryResult> SparqlMlService::Execute(std::string_view text,
                                             ExecutionStats* stats,
                                             common::CancelToken cancel) {
  return Run(text, std::nullopt, stats, std::move(cancel));
}

Result<QueryResult> SparqlMlService::ExecuteWithPlan(std::string_view text,
                                                     RewritePlan plan,
                                                     ExecutionStats* stats) {
  return Run(text, plan, stats, {});
}

Result<SparqlMlService::ExplainResult> SparqlMlService::Explain(
    std::string_view text) const {
  KGNET_ASSIGN_OR_RETURN(Query query, sparql::ParseQuery(text));
  SparqlMlAnalysis analysis;
  KGNET_ASSIGN_OR_RETURN(Query plain,
                         Optimize(std::move(query), std::nullopt, &analysis));
  ExplainResult out;
  out.is_sparql_ml = analysis.is_sparql_ml();
  for (const UserDefinedPredicate& udp : analysis.udps) {
    out.model_uris.push_back(udp.model.uri);
    out.plan = udp.plan;
  }
  out.rewritten_sparql = sparql::SerializeQuery(plain);
  return out;
}

Result<TrainTaskSpec> SparqlMlService::ParseTrainSpec(
    const std::string& json_text,
    const std::map<std::string, std::string>& prefixes) const {
  KGNET_ASSIGN_OR_RETURN(JsonValue root, ParseJson(json_text));
  if (!root.is_object())
    return Status::InvalidArgument("TrainGML payload must be a JSON object");

  auto resolve = [&prefixes](const std::string& name) -> std::string {
    if (name.empty() || name.find("://") != std::string::npos) return name;
    const size_t colon = name.find(':');
    if (colon == std::string::npos) return name;
    auto it = prefixes.find(name.substr(0, colon));
    if (it == prefixes.end()) return name;
    return it->second + name.substr(colon + 1);
  };

  TrainTaskSpec spec;
  spec.model_name = root.GetString("Name");

  const JsonValue* task = root.FindRelaxed("GML-Task");
  if (task == nullptr || !task->is_object())
    return Status::InvalidArgument("TrainGML payload requires GML-Task{}");
  const std::string task_type = resolve(task->GetString("TaskType"));
  if (task_type == KgnetVocab::SimilarEntities() ||
      task_type.find("SimilarEntities") != std::string::npos) {
    spec.task = gml::TaskType::kEntitySimilarity;
    spec.target_type_iri = resolve(task->GetString("SourceNode"));
    if (spec.target_type_iri.empty())
      spec.target_type_iri = resolve(task->GetString("TargetNode"));
    spec.destination_type_iri = resolve(task->GetString("DestinationNode"));
    spec.task_predicate_iri = resolve(task->GetString("TaskPredicate"));
  } else if (task_type == KgnetVocab::LinkPredictor() ||
             task_type.find("LinkPredictor") != std::string::npos) {
    spec.task = gml::TaskType::kLinkPrediction;
    spec.target_type_iri = resolve(task->GetString("SourceNode"));
    spec.destination_type_iri = resolve(task->GetString("DestinationNode"));
    spec.task_predicate_iri = resolve(task->GetString("TaskPredicate"));
    if (spec.task_predicate_iri.empty())
      spec.task_predicate_iri = resolve(task->GetString("NodeLabel"));
  } else {
    spec.task = gml::TaskType::kNodeClassification;
    spec.target_type_iri = resolve(task->GetString("TargetNode"));
    spec.label_predicate_iri = resolve(task->GetString("NodeLabel"));
    if (spec.label_predicate_iri.empty())
      spec.label_predicate_iri = resolve(task->GetString("NodeLable"));
  }

  if (const JsonValue* budget = root.FindRelaxed("TaskBudget");
      budget != nullptr && budget->is_object()) {
    const std::string mem = budget->GetString("MaxMemory");
    if (!mem.empty()) {
      KGNET_ASSIGN_OR_RETURN(spec.budget.max_memory_bytes,
                             ParseMemoryBudget(mem));
    }
    const std::string time = budget->GetString("MaxTime");
    if (!time.empty()) {
      KGNET_ASSIGN_OR_RETURN(spec.budget.max_seconds, ParseTimeBudget(time));
    }
    const std::string prio = budget->GetString("Priority");
    if (prio == "Time") {
      spec.budget.priority = BudgetPriority::kTime;
    } else if (prio == "Memory") {
      spec.budget.priority = BudgetPriority::kMemory;
    } else {
      spec.budget.priority = BudgetPriority::kModelScore;
    }
  }

  if (const JsonValue* hp = root.FindRelaxed("Hyperparameters");
      hp != nullptr && hp->is_object()) {
    gml::TrainConfig& c = spec.config;
    KGNET_ASSIGN_OR_RETURN(c.epochs,
                           IntField(*hp, "Epochs", 1, 10000, c.epochs));
    KGNET_ASSIGN_OR_RETURN(
        c.hidden_dim, IntField(*hp, "HiddenDim", 1, 1024, c.hidden_dim));
    KGNET_ASSIGN_OR_RETURN(
        c.embed_dim, IntField(*hp, "EmbedDim", 1, 1024, c.embed_dim));
    KGNET_ASSIGN_OR_RETURN(
        c.patience, IntField(*hp, "Patience", 0, 10000, c.patience));
    if (const JsonValue* lr = hp->FindRelaxed("LearningRate")) {
      const double x = lr->is_number() ? lr->AsNumber() : 0.0;
      if (!(x > 0.0 && x <= 10.0))
        return Status::InvalidArgument(
            "TrainGML LearningRate must be a number in (0, 10]");
      c.lr = static_cast<float>(x);
    }
  }

  const std::string method = root.GetString("Method");
  if (!method.empty()) {
    const std::string lower = AsciiToLower(method);
    if (lower == "gcn") spec.forced_method = gml::GmlMethod::kGcn;
    else if (lower == "rgcn") spec.forced_method = gml::GmlMethod::kRgcn;
    else if (lower == "graphsaint" || lower == "graph-saint")
      spec.forced_method = gml::GmlMethod::kGraphSaint;
    else if (lower == "shadowsaint" || lower == "shadow-saint")
      spec.forced_method = gml::GmlMethod::kShadowSaint;
    else if (lower == "graphsage" || lower == "graph-sage" || lower == "sage")
      spec.forced_method = gml::GmlMethod::kGraphSage;
    else if (lower == "morse") spec.forced_method = gml::GmlMethod::kMorse;
    else if (lower == "transe") spec.forced_method = gml::GmlMethod::kTransE;
    else if (lower == "distmult")
      spec.forced_method = gml::GmlMethod::kDistMult;
    else if (lower == "complex")
      spec.forced_method = gml::GmlMethod::kComplEx;
    else if (lower == "rotate") spec.forced_method = gml::GmlMethod::kRotatE;
    else return Status::InvalidArgument("unknown GML method: " + method);
  }

  if (const JsonValue* sampling = root.FindRelaxed("MetaSampling");
      sampling != nullptr && sampling->is_object()) {
    KGNET_ASSIGN_OR_RETURN(const uint64_t d,
                           IntField(*sampling, "Direction", 1, 2, 0));
    if (d == 1) spec.direction = SampleDirection::kOutgoing;
    if (d == 2) spec.direction = SampleDirection::kBidirectional;
    KGNET_ASSIGN_OR_RETURN(spec.hops,
                           IntField(*sampling, "Hops", 1, 4, spec.hops));
    const JsonValue* enabled = sampling->FindRelaxed("Enabled");
    if (enabled != nullptr && enabled->kind() == JsonValue::Kind::kBool)
      spec.use_meta_sampling = enabled->AsBool();
  }
  return spec;
}

Result<QueryResult> SparqlMlService::ExecuteTrainGml(
    std::string_view text, common::CancelToken cancel) {
  // Extract prefixes from the prologue (the full query may not parse as
  // standard SPARQL, so scan for PREFIX declarations directly).
  std::map<std::string, std::string> prefixes;
  const std::string lower = AsciiToLower(text);
  size_t pos = 0;
  while ((pos = lower.find("prefix", pos)) != std::string::npos) {
    const size_t name_start = pos + 6;
    const size_t colon = text.find(':', name_start);
    const size_t lt = text.find('<', colon);
    const size_t gt = text.find('>', lt);
    if (colon == std::string::npos || lt == std::string::npos ||
        gt == std::string::npos)
      break;
    const std::string prefix(
        StripWhitespace(text.substr(name_start, colon - name_start)));
    prefixes[prefix] = std::string(text.substr(lt + 1, gt - lt - 1));
    pos = gt;
  }

  // Extract the balanced-parenthesis argument of TrainGML(...).
  const size_t fn = text.find("TrainGML");
  size_t open = text.find('(', fn);
  if (open == std::string_view::npos)
    return Status::ParseError("TrainGML requires a parenthesized payload");
  int depth = 0;
  size_t close = open;
  for (size_t i = open; i < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    if (text[i] == ')') {
      --depth;
      if (depth == 0) {
        close = i;
        break;
      }
    }
  }
  if (close == open)
    return Status::ParseError("unbalanced parentheses in TrainGML payload");
  const std::string payload(
      StripWhitespace(text.substr(open + 1, close - open - 1)));

  KGNET_ASSIGN_OR_RETURN(TrainTaskSpec spec,
                         ParseTrainSpec(payload, prefixes));
  // A tripped token aborts training at the next epoch boundary and the
  // pipeline returns before anything is registered (gml::TrainConfig).
  spec.config.cancel = std::move(cancel);
  KGNET_ASSIGN_OR_RETURN(TrainOutcome outcome, training_->TrainTask(spec));

  // The INSERT materializes the model's KGMeta triples; report them.
  QueryResult result;
  result.columns = {"model", "metric", "method"};
  result.rows.push_back({Term::Iri(outcome.model_uri),
                         Term::DoubleLiteral(outcome.report.metric),
                         Term::Literal(outcome.report.method)});
  result.num_inserted = outcome.meta_triples;
  return result;
}

Result<QueryResult> SparqlMlService::ExecuteDelete(const Query& query) {
  // Evaluate the WHERE clause against the KGMeta graph to find the model
  // URIs, then delete each model: its record, bundle and triples.
  sparql::QueryEngine meta_engine(&kgmeta_.mutable_store());
  Query select;
  select.kind = QueryKind::kSelect;
  select.prefixes = query.prefixes;
  select.where = query.where;
  select.distinct = true;
  // Project the subject variable of the first template triple.
  std::string model_var;
  if (!query.update_template.empty() && query.update_template[0].s.is_var) {
    model_var = query.update_template[0].s.var;
  } else if (!query.where.triples.empty() &&
             query.where.triples[0].s.is_var) {
    model_var = query.where.triples[0].s.var;
  } else {
    return Status::InvalidArgument(
        "DELETE over kgnet: metadata requires a model variable");
  }
  sparql::SelectItem item;
  item.expr = Expr::Var(model_var);
  item.alias = model_var;
  select.select.push_back(std::move(item));

  KGNET_ASSIGN_OR_RETURN(QueryResult found, meta_engine.Execute(select));
  QueryResult result;
  for (const auto& row : found.rows) {
    if (row.empty() || !row[0].is_iri()) continue;
    if (kgmeta_.DeleteModel(row[0].lexical).ok()) ++result.num_deleted;
  }
  return result;
}

}  // namespace kgnet::core
