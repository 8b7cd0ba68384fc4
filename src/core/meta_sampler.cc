#include "core/meta_sampler.h"

#include <optional>
#include <sstream>
#include <unordered_set>

namespace kgnet::core {

using rdf::kNullTermId;
using rdf::TermId;
using rdf::Triple;
using rdf::TriplePattern;
using rdf::TripleStore;

Result<std::unique_ptr<TripleStore>> MetaSampler::Extract(
    const MetaSampleSpec& spec, MetaSampleStats* stats) const {
  const rdf::Dictionary& dict = store_->dict();
  TermId type_pred = dict.FindIri(rdf::kRdfType);
  TermId target_type = dict.FindIri(spec.target_type_iri);
  if (target_type == kNullTermId)
    return Status::NotFound("target type not found in KG: " +
                            spec.target_type_iri);

  std::vector<TermId> supervision;
  for (const std::string& iri : spec.supervision_predicate_iris) {
    TermId p = dict.FindIri(iri);
    if (p == kNullTermId)
      return Status::NotFound("supervision predicate not found in KG: " + iri);
    supervision.push_back(p);
  }

  // Seeds: instances of the target type.
  std::vector<TermId> frontier;
  std::unordered_set<TermId> visited;
  store_->Scan(TriplePattern(kNullTermId, type_pred, target_type),
               [&](const Triple& t) {
                 if (visited.insert(t.s).second) frontier.push_back(t.s);
                 return true;
               });
  if (frontier.empty())
    return Status::InvalidArgument("no instances of target type " +
                                   spec.target_type_iri);
  const size_t seed_count = frontier.size();

  auto out = std::make_unique<TripleStore>();
  // KG' is built in one batch: one compaction when the scope is reset
  // below, not one per trigger window.
  std::optional<TripleStore::BulkLoad> bulk(out.get());
  std::unordered_set<TermId> included_nodes(visited);
  size_t extracted = 0;

  auto emit = [&](const Triple& t) {
    if (out->Insert(dict.Lookup(t.s), dict.Lookup(t.p), dict.Lookup(t.o)))
      ++extracted;
  };

  // Supervision edges of seeds are always kept.
  for (TermId seed : frontier) {
    for (TermId p : supervision) {
      store_->Scan(TriplePattern(seed, p, kNullTermId),
                   [&](const Triple& t) {
                     emit(t);
                     included_nodes.insert(t.o);
                     return true;
                   });
    }
  }

  // h-hop expansion.
  for (uint32_t hop = 0; hop < spec.hops; ++hop) {
    std::vector<TermId> next;
    for (TermId v : frontier) {
      // Outgoing edges (v, p, o).
      store_->Scan(TriplePattern(v, kNullTermId, kNullTermId),
                   [&](const Triple& t) {
                     emit(t);
                     const rdf::Term& obj = dict.Lookup(t.o);
                     if (!obj.is_literal()) {
                       included_nodes.insert(t.o);
                       if (visited.insert(t.o).second) next.push_back(t.o);
                     }
                     return true;
                   });
      if (spec.direction == SampleDirection::kBidirectional) {
        // Incoming edges (s, p, v).
        store_->Scan(TriplePattern(kNullTermId, kNullTermId, v),
                     [&](const Triple& t) {
                       emit(t);
                       included_nodes.insert(t.s);
                       if (visited.insert(t.s).second) next.push_back(t.s);
                       return true;
                     });
      }
    }
    frontier = std::move(next);
  }

  // Type triples of every included node (schema signal for the
  // transformer).
  for (TermId v : included_nodes) {
    store_->Scan(TriplePattern(v, type_pred, kNullTermId),
                 [&](const Triple& t) {
                   emit(t);
                   return true;
                 });
  }

  bulk.reset();
  if (stats != nullptr) {
    stats->seed_nodes = seed_count;
    stats->visited_nodes = visited.size();
    stats->extracted_triples = out->size();
    stats->original_triples = store_->size();
  }
  return out;
}

std::string MetaSampler::DescribeAsSparql(const MetaSampleSpec& spec) {
  std::ostringstream os;
  os << "CONSTRUCT { ?s ?p ?o }\nWHERE {\n";
  os << "  ?seed a <" << spec.target_type_iri << "> .\n";
  if (spec.hops == 1) {
    if (spec.direction == SampleDirection::kOutgoing) {
      os << "  ?seed ?p ?o .  BIND(?seed AS ?s)\n";
    } else {
      os << "  { ?seed ?p ?o . BIND(?seed AS ?s) }\n"
         << "  UNION { ?s ?p ?seed . BIND(?seed AS ?o) }\n";
    }
  } else {
    os << "  # " << spec.hops << "-hop expansion, direction="
       << (spec.direction == SampleDirection::kOutgoing ? "outgoing"
                                                        : "bidirectional")
       << "\n  ?seed (!<>){1," << spec.hops << "} ?s .  ?s ?p ?o .\n";
  }
  for (const std::string& sup : spec.supervision_predicate_iris)
    os << "  # supervision kept: <" << sup << ">\n";
  os << "}";
  return os.str();
}

std::string SampleSpecLabel(const MetaSampleSpec& spec) {
  return "d" +
         std::to_string(spec.direction == SampleDirection::kOutgoing ? 1
                                                                     : 2) +
         "h" + std::to_string(spec.hops);
}

}  // namespace kgnet::core
