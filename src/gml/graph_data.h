// GraphData: the dense-graph view of a KG that GML methods train on.
//
// This is the output of the paper's "Data Transformer" step (Figure 6): the
// RDF triples are dictionary-encoded into node/relation index spaces, literal
// triples and target-label edges are removed, features are initialized with
// Xavier weights, and train/valid/test splits are generated.
#ifndef KGNET_GML_GRAPH_DATA_H_
#define KGNET_GML_GRAPH_DATA_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "rdf/triple_store.h"
#include "tensor/csr_matrix.h"
#include "tensor/matrix.h"
#include "tensor/rng.h"

namespace kgnet::gml {

/// One directed, typed edge in the encoded graph.
struct Edge {
  uint32_t src;
  uint32_t rel;
  uint32_t dst;
};

/// The encoded graph plus task supervision.
struct GraphData {
  // --- structure ---
  size_t num_nodes = 0;
  size_t num_relations = 0;
  std::vector<Edge> edges;

  // --- node classification supervision ---
  /// Node ids that carry labels (instances of the target type).
  std::vector<uint32_t> target_nodes;
  /// labels[node] in [0, num_classes) or -1.
  std::vector<int> labels;
  size_t num_classes = 0;
  /// Indices into `target_nodes` per fold.
  std::vector<uint32_t> train_idx, valid_idx, test_idx;

  // --- link prediction supervision ---
  /// The relation id of the task predicate (e.g. affiliation), or
  /// UINT32_MAX when the task is not link prediction.
  uint32_t task_relation = UINT32_MAX;
  /// Task edges per fold (these are removed from `edges`).
  std::vector<Edge> train_edges, valid_edges, test_edges;
  /// Candidate tail nodes for LP ranking: instances of the destination
  /// type when one was given, else empty (= rank against all nodes).
  /// Using a fixed candidate type makes full-KG and KG' evaluations
  /// comparable: both rank the true tail against the same kind of entity.
  std::vector<uint32_t> destination_candidates;

  // --- features ---
  size_t feature_dim = 0;
  tensor::Matrix features;  // num_nodes x feature_dim

  // --- provenance ---
  std::vector<rdf::TermId> node_terms;      // node id -> dictionary term
  std::vector<rdf::TermId> relation_terms;  // rel id -> dictionary term
  std::vector<rdf::TermId> class_terms;     // class label -> dictionary term

  /// Builds the homogeneous symmetric-normalized adjacency (with self
  /// loops) used by GCN: Â = D^-1/2 (A + Aᵀ + I) D^-1/2.
  tensor::CsrMatrix BuildGcnAdjacency() const;

  /// Builds one row-normalized adjacency per relation (plus one per inverse
  /// relation), used by RGCN. adj[r] aggregates messages dst <- src over
  /// relation r; adj[num_relations + r] is the inverse direction.
  std::vector<tensor::CsrMatrix> BuildRelationalAdjacencies() const;

  /// Node id lookup from a dictionary term; returns false if absent.
  /// Reads only the index IndexNodes() built, so concurrent calls are safe.
  bool FindNode(rdf::TermId term, uint32_t* node) const;

  /// Builds the FindNode index from `node_terms`; BuildGraphData calls it
  /// once the nodes are final.
  void IndexNodes();

  /// Total bytes of the encoded structure (edges + features), the base
  /// footprint a training pipeline must hold in memory.
  size_t StructureBytes() const;

 private:
  std::vector<std::pair<rdf::TermId, uint32_t>> node_index_;  // by term
};

/// Options controlling the transformation from triples to GraphData.
struct TransformOptions {
  /// IRI of the target node class (rdf:type object), e.g. dblp:Publication.
  std::string target_type_iri;
  /// IRI of the label predicate for node classification (removed from the
  /// message-passing graph), e.g. dblp:publishedIn. Empty for LP tasks.
  std::string label_predicate_iri;
  /// IRI of the task predicate for link prediction (its edges become
  /// supervision, removed from message passing). Empty for NC tasks.
  std::string task_predicate_iri;
  /// IRI of the LP destination type; instances become the ranking
  /// candidates (optional).
  std::string destination_type_iri;
  /// Dimensionality of Xavier-initialized node features.
  size_t feature_dim = 32;
  /// Split fractions (remainder is test).
  double train_fraction = 0.6;
  double valid_fraction = 0.2;
  /// Seed for features and splits.
  uint64_t seed = 13;
  /// Drop literal-valued triples (the paper's transformer does).
  bool drop_literals = true;
};

/// Encodes one ordered pass of triples into a GraphData according to
/// `options`; `dict` names their ids. Node, relation and class ids follow
/// the order of `triples`, so the same triples in the same order give the
/// same graph whichever dictionary numbers them. An IRI in `options` must
/// be mentioned by some triple ("not in KG" otherwise).
///
/// For node classification (label_predicate_iri set): nodes of the target
/// type with a label edge become target_nodes; label edges are excluded from
/// message passing.
/// For link prediction (task_predicate_iri set): edges of the task predicate
/// are split into train/valid/test supervision and removed from the graph.
Result<GraphData> BuildGraphData(const std::vector<rdf::Triple>& triples,
                                 const rdf::Dictionary& dict,
                                 const TransformOptions& options);

/// The same over every triple of `store`, in its SPO scan order (read in
/// place, not copied).
Result<GraphData> BuildGraphData(const rdf::TripleStore& store,
                                 const TransformOptions& options);

}  // namespace kgnet::gml

#endif  // KGNET_GML_GRAPH_DATA_H_
