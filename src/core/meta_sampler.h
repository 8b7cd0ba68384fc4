// Meta-sampling: extraction of a task-specific subgraph KG' (Section IV-B2).
//
// The sampler starts from the task's target nodes (e.g. all instances of
// dblp:Publication) and collects every triple reachable within `hops` hops,
// following outgoing edges only (direction = kOutgoing, the paper's d=1) or
// both directions (kBidirectional, d=2). Type triples of every included
// node and the supervision edges (label / task predicate) of target nodes
// are always preserved, since the downstream transformer needs them.
//
// The paper reports d1h1 as the best configuration for node classification
// and d2h1 for link prediction; bench_metasampling sweeps the grid.
#ifndef KGNET_CORE_META_SAMPLER_H_
#define KGNET_CORE_META_SAMPLER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "rdf/triple_store.h"

namespace kgnet::core {

/// Edge-following direction during expansion.
enum class SampleDirection {
  kOutgoing = 1,       // paper's d = 1
  kBidirectional = 2,  // paper's d = 2
};

/// Scope parameters of one meta-sampling run.
struct MetaSampleSpec {
  /// IRI of the target node type (instances seed the expansion).
  std::string target_type_iri;
  /// Supervision predicates always kept for target nodes (label predicate
  /// for NC, task predicate for LP).
  std::vector<std::string> supervision_predicate_iris;
  SampleDirection direction = SampleDirection::kOutgoing;
  uint32_t hops = 1;
};

/// Summary of an extraction.
struct MetaSampleStats {
  size_t seed_nodes = 0;
  size_t visited_nodes = 0;
  size_t extracted_triples = 0;
  size_t original_triples = 0;
  double reduction_ratio() const {
    return original_triples == 0
               ? 0.0
               : 1.0 - static_cast<double>(extracted_triples) /
                           static_cast<double>(original_triples);
  }
};

/// KG' in the ids of the store it was sampled from.
struct SampledTriples {
  /// Deduplicated, in the order a store holding only KG' scans them: SPO
  /// over the ids such a store assigns (see `terms`).
  std::vector<rdf::Triple> triples;
  /// Every term the triples mention, by first appearance in the walk
  /// (object, predicate, subject of each emitted triple): the term at
  /// position i is the one a KG' store loaded in walk order calls i + 1.
  std::vector<rdf::TermId> terms;
};

/// Extracts task-specific subgraphs from a knowledge graph.
class MetaSampler {
 public:
  explicit MetaSampler(const rdf::TripleStore* store) : store_(store) {}

  /// Runs the extraction; returns KG' as triples of the source store's
  /// ids. Nothing is copied out of the source dictionary.
  Result<SampledTriples> ExtractTriples(
      const MetaSampleSpec& spec, MetaSampleStats* stats = nullptr) const;

  /// ExtractTriples loaded into a store of its own, with the ids a store
  /// filled in walk order would assign.
  Result<std::unique_ptr<rdf::TripleStore>> Extract(
      const MetaSampleSpec& spec, MetaSampleStats* stats = nullptr) const;

  /// The SPARQL CONSTRUCT-style query text that describes this extraction
  /// (the paper calls meta-sampling "a search query against a KG"). Purely
  /// informational: ExtractTriples() evaluates the same semantics directly
  /// on the index for speed.
  static std::string DescribeAsSparql(const MetaSampleSpec& spec);

 private:
  const rdf::TripleStore* store_;
};

/// Short name like "d1h1" / "d2h2" for reports.
std::string SampleSpecLabel(const MetaSampleSpec& spec);

}  // namespace kgnet::core

#endif  // KGNET_CORE_META_SAMPLER_H_
