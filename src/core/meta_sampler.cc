#include "core/meta_sampler.h"

#include <algorithm>
#include <sstream>

namespace kgnet::core {

using rdf::kNullTermId;
using rdf::TermId;
using rdf::Triple;
using rdf::TriplePattern;
using rdf::TripleStore;

Result<SampledTriples> MetaSampler::ExtractTriples(
    const MetaSampleSpec& spec, MetaSampleStats* stats) const {
  // One snapshot for the whole walk. Every id it holds was interned before
  // it opened, so the flat per-id tables below are sized once.
  const rdf::Snapshot kg = store_->OpenSnapshot();
  const rdf::Dictionary& dict = store_->dict();
  const size_t num_ids = dict.size();
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

  // Bitmaps over the KG's ids; `mark` is true when `id` was not set yet.
  auto mark = [](std::vector<bool>& set, TermId id) {
    if (set[id]) return false;
    set[id] = true;
    return true;
  };
  std::vector<bool> visited(num_ids);

  // Seeds: instances of the target type.
  std::vector<TermId> frontier;
  kg.Scan(TriplePattern(kNullTermId, type_pred, target_type),
          [&](const Triple& t) {
            if (mark(visited, t.s)) frontier.push_back(t.s);
            return true;
          });
  if (frontier.empty())
    return Status::InvalidArgument("no instances of target type " +
                                   spec.target_type_iri);
  const size_t seed_count = frontier.size();
  size_t visited_count = seed_count;

  std::vector<bool> included_nodes(visited);
  std::vector<Triple> emitted;

  // Supervision edges of seeds are always kept.
  for (TermId seed : frontier) {
    for (TermId p : supervision) {
      kg.Scan(TriplePattern(seed, p, kNullTermId), [&](const Triple& t) {
        emitted.push_back(t);
        mark(included_nodes, t.o);
        return true;
      });
    }
  }

  // h-hop expansion.
  for (uint32_t hop = 0; hop < spec.hops; ++hop) {
    std::vector<TermId> next;
    for (TermId v : frontier) {
      // Outgoing edges (v, p, o).
      kg.Scan(TriplePattern(v, kNullTermId, kNullTermId),
              [&](const Triple& t) {
                emitted.push_back(t);
                if (!dict.Lookup(t.o).is_literal()) {
                  mark(included_nodes, t.o);
                  if (mark(visited, t.o)) next.push_back(t.o);
                }
                return true;
              });
      if (spec.direction == SampleDirection::kBidirectional) {
        // Incoming edges (s, p, v).
        kg.Scan(TriplePattern(kNullTermId, kNullTermId, v),
                [&](const Triple& t) {
                  emitted.push_back(t);
                  mark(included_nodes, t.s);
                  if (mark(visited, t.s)) next.push_back(t.s);
                  return true;
                });
      }
    }
    visited_count += next.size();
    frontier = std::move(next);
  }

  // Type triples of every included node (schema signal for the
  // transformer), in ascending id.
  for (size_t v = 0; v < num_ids; ++v) {
    if (!included_nodes[v]) continue;
    kg.Scan(TriplePattern(static_cast<TermId>(v), type_pred, kNullTermId),
            [&](const Triple& t) {
              emitted.push_back(t);
              return true;
            });
  }

  // Rank each term by first appearance, interning object, predicate,
  // subject in turn as TripleStore::Insert does. Sorting the ranked
  // triples gives a KG' store's SPO order; ranks map back through `terms`.
  SampledTriples out;
  std::vector<TermId> rank(num_ids, kNullTermId);
  auto rank_of = [&](TermId id) {
    if (rank[id] == kNullTermId) {
      out.terms.push_back(id);
      rank[id] = static_cast<TermId>(out.terms.size());
    }
    return rank[id];
  };
  for (Triple& t : emitted) {
    const TermId o = rank_of(t.o);
    const TermId p = rank_of(t.p);
    const TermId s = rank_of(t.s);
    t = Triple(s, p, o);
  }
  std::sort(emitted.begin(), emitted.end());
  emitted.erase(std::unique(emitted.begin(), emitted.end()), emitted.end());
  for (Triple& t : emitted)
    t = Triple(out.terms[t.s - 1], out.terms[t.p - 1], out.terms[t.o - 1]);
  out.triples = std::move(emitted);

  if (stats != nullptr) {
    stats->seed_nodes = seed_count;
    stats->visited_nodes = visited_count;
    stats->extracted_triples = out.triples.size();
    stats->original_triples = kg.size();
  }
  return out;
}

Result<std::unique_ptr<TripleStore>> MetaSampler::Extract(
    const MetaSampleSpec& spec, MetaSampleStats* stats) const {
  KGNET_ASSIGN_OR_RETURN(SampledTriples sampled, ExtractTriples(spec, stats));
  const rdf::Dictionary& dict = store_->dict();
  auto out = std::make_unique<TripleStore>();
  // Interning `terms` first gives each term its walk-order id; the whole
  // load is one batch, so the runs are built once.
  std::vector<TermId> local(dict.size(), kNullTermId);  // id -> KG' id
  {
    TripleStore::BulkLoad bulk(out.get());
    for (TermId id : sampled.terms)
      local[id] = out->dict().Intern(dict.Lookup(id));
    for (const Triple& t : sampled.triples)
      out->Insert(Triple(local[t.s], local[t.p], local[t.o]));
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
