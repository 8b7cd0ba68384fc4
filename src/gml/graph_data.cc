#include "gml/graph_data.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <unordered_map>

namespace kgnet::gml {

using rdf::kNullTermId;
using rdf::TermId;
using rdf::Triple;
using rdf::TriplePattern;
using tensor::CooEntry;
using tensor::CsrMatrix;
using tensor::Matrix;
using tensor::Rng;

tensor::CsrMatrix GraphData::BuildGcnAdjacency() const {
  std::vector<CooEntry> entries;
  entries.reserve(edges.size() * 2 + num_nodes);
  for (const Edge& e : edges) {
    entries.push_back({e.dst, e.src, 1.0f});
    entries.push_back({e.src, e.dst, 1.0f});
  }
  for (uint32_t v = 0; v < num_nodes; ++v) entries.push_back({v, v, 1.0f});
  CsrMatrix a(num_nodes, num_nodes, std::move(entries));
  return a.SymNormalized();
}

std::vector<tensor::CsrMatrix> GraphData::BuildRelationalAdjacencies() const {
  std::vector<std::vector<CooEntry>> buckets(num_relations * 2);
  for (const Edge& e : edges) {
    // Forward: messages flow src -> dst, so row = dst, col = src.
    buckets[e.rel].push_back({e.dst, e.src, 1.0f});
    // Inverse direction.
    buckets[num_relations + e.rel].push_back({e.src, e.dst, 1.0f});
  }
  std::vector<CsrMatrix> out;
  out.reserve(buckets.size());
  for (auto& b : buckets) {
    CsrMatrix a(num_nodes, num_nodes, std::move(b));
    out.push_back(a.RowNormalized());
  }
  return out;
}

bool GraphData::FindNode(rdf::TermId term, uint32_t* node) const {
  auto it = std::lower_bound(node_index_.begin(), node_index_.end(),
                             std::make_pair(term, uint32_t{0}));
  if (it == node_index_.end() || it->first != term) return false;
  *node = it->second;
  return true;
}

void GraphData::IndexNodes() {
  node_index_.clear();
  node_index_.reserve(node_terms.size());
  for (size_t i = 0; i < node_terms.size(); ++i)
    node_index_.emplace_back(node_terms[i], static_cast<uint32_t>(i));
  std::sort(node_index_.begin(), node_index_.end());
}

size_t GraphData::StructureBytes() const {
  return edges.size() * sizeof(Edge) + features.ByteSize() +
         labels.size() * sizeof(int);
}

namespace {

/// Assigns indices 0..n-1 to folds by one uniform shuffle.
void SplitIndices(size_t n, double train_frac, double valid_frac, Rng* rng,
                  std::vector<uint32_t>* train, std::vector<uint32_t>* valid,
                  std::vector<uint32_t>* test) {
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::shuffle(order.begin(), order.end(), rng->generator());

  const size_t target_train = static_cast<size_t>(n * train_frac);
  const size_t target_valid = static_cast<size_t>(n * valid_frac);
  for (size_t i = 0; i < n; ++i) {
    if (i < target_train) {
      train->push_back(order[i]);
    } else if (i < target_train + target_valid) {
      valid->push_back(order[i]);
    } else {
      test->push_back(order[i]);
    }
  }
}

/// Calls its argument for each triple of one ordered pass.
using TriplePass =
    std::function<void(const std::function<void(const Triple&)>&)>;

/// The one GraphData builder, over whichever pass feeds it.
Result<GraphData> Encode(const rdf::Dictionary& dict,
                         const TransformOptions& options,
                         const TriplePass& pass) {
  GraphData g;

  TermId type_pred = dict.FindIri(rdf::kRdfType);
  TermId target_type = options.target_type_iri.empty()
                           ? kNullTermId
                           : dict.FindIri(options.target_type_iri);
  TermId label_pred = options.label_predicate_iri.empty()
                          ? kNullTermId
                          : dict.FindIri(options.label_predicate_iri);
  TermId task_pred = options.task_predicate_iri.empty()
                         ? kNullTermId
                         : dict.FindIri(options.task_predicate_iri);
  if (!options.target_type_iri.empty() && target_type == kNullTermId)
    return Status::NotFound("target type not in KG: " +
                            options.target_type_iri);
  if (!options.label_predicate_iri.empty() && label_pred == kNullTermId)
    return Status::NotFound("label predicate not in KG: " +
                            options.label_predicate_iri);
  if (!options.task_predicate_iri.empty() && task_pred == kNullTermId)
    return Status::NotFound("task predicate not in KG: " +
                            options.task_predicate_iri);
  // Looked up for link prediction only; reported after the task edges.
  TermId dest_type =
      task_pred == kNullTermId || options.destination_type_iri.empty()
          ? kNullTermId
          : dict.FindIri(options.destination_type_iri);

  // The pass: assign node and relation ids. Literal objects are dropped
  // (paper: "removing literal data"); label/task predicate edges are
  // excluded from message passing. Type edges stay (they carry schema
  // signal); class nodes are regular nodes.
  std::unordered_map<TermId, uint32_t> node_of;
  std::unordered_map<TermId, uint32_t> rel_of;
  auto intern_node = [&](TermId t) -> uint32_t {
    auto [it, fresh] =
        node_of.try_emplace(t, static_cast<uint32_t>(g.node_terms.size()));
    if (fresh) g.node_terms.push_back(t);
    return it->second;
  };
  auto intern_rel = [&](TermId t) -> uint32_t {
    auto [it, fresh] =
        rel_of.try_emplace(t, static_cast<uint32_t>(g.relation_terms.size()));
    if (fresh) g.relation_terms.push_back(t);
    return it->second;
  };
  // An IRI of `options` is in the KG only if a triple of the pass mentions
  // it, as it would be in the dictionary of a store holding just the pass.
  const TermId wanted[] = {target_type, label_pred, task_pred, dest_type};
  bool mentioned[] = {false, false, false, false};
  std::vector<TermId> target_subjects;  // (s, rdf:type, target type)
  std::vector<TermId> dest_subjects;    // (s, rdf:type, destination type)
  std::vector<Triple> label_triples;
  std::vector<Triple> task_triples;
  pass([&](const Triple& t) {
    for (int w = 0; w < 4; ++w)
      if (t.s == wanted[w] || t.p == wanted[w] || t.o == wanted[w])
        mentioned[w] = true;
    if (t.p == type_pred) {
      if (t.o == target_type) target_subjects.push_back(t.s);
      if (t.o == dest_type) dest_subjects.push_back(t.s);
    }
    if (options.drop_literals && dict.Lookup(t.o).is_literal()) return;
    if (label_pred != kNullTermId && t.p == label_pred) {
      label_triples.push_back(t);
      return;
    }
    if (task_pred != kNullTermId && t.p == task_pred) {
      task_triples.push_back(t);
      return;
    }
    g.edges.push_back(Edge{intern_node(t.s), intern_rel(t.p),
                           intern_node(t.o)});
  });
  if (target_type != kNullTermId && !mentioned[0])
    return Status::NotFound("target type not in KG: " +
                            options.target_type_iri);
  if (label_pred != kNullTermId && !mentioned[1])
    return Status::NotFound("label predicate not in KG: " +
                            options.label_predicate_iri);
  if (task_pred != kNullTermId && !mentioned[2])
    return Status::NotFound("task predicate not in KG: " +
                            options.task_predicate_iri);

  g.num_nodes = g.node_terms.size();
  g.num_relations = g.relation_terms.size();
  if (g.num_nodes == 0)
    return Status::InvalidArgument("empty graph after transformation");

  tensor::Rng rng(options.seed);
  g.labels.assign(g.num_nodes, -1);

  // Node classification supervision.
  if (label_pred != kNullTermId) {
    std::sort(target_subjects.begin(), target_subjects.end());
    std::unordered_map<TermId, int> class_of;
    for (const Triple& t : label_triples) {
      auto nit = node_of.find(t.s);
      if (nit == node_of.end()) continue;  // subject had no graph edges
      // Restrict to instances of the target type if one was given.
      if (target_type != kNullTermId &&
          !std::binary_search(target_subjects.begin(), target_subjects.end(),
                              t.s))
        continue;
      auto cit = class_of.find(t.o);
      int cls;
      if (cit == class_of.end()) {
        cls = static_cast<int>(g.class_terms.size());
        class_of.emplace(t.o, cls);
        g.class_terms.push_back(t.o);
      } else {
        cls = cit->second;
      }
      if (g.labels[nit->second] == -1) {
        g.labels[nit->second] = cls;
        g.target_nodes.push_back(nit->second);
      }
    }
    g.num_classes = g.class_terms.size();
    if (g.target_nodes.empty())
      return Status::InvalidArgument(
          "no labeled target nodes found for node classification");
    SplitIndices(g.target_nodes.size(), options.train_fraction,
                 options.valid_fraction, &rng, &g.train_idx, &g.valid_idx,
                 &g.test_idx);
  }

  // Link prediction supervision.
  if (task_pred != kNullTermId) {
    std::vector<Edge> task_edges;
    for (const Triple& t : task_triples) {
      auto sit = node_of.find(t.s);
      auto oit = node_of.find(t.o);
      if (sit == node_of.end() || oit == node_of.end()) continue;
      task_edges.push_back(
          Edge{sit->second, intern_rel(task_pred), oit->second});
    }
    // intern_rel may have grown the relation table.
    g.num_relations = g.relation_terms.size();
    if (task_edges.empty())
      return Status::InvalidArgument(
          "no task edges found for link prediction");
    g.task_relation = task_edges.front().rel;
    std::vector<uint32_t> tr, va, te;
    SplitIndices(task_edges.size(), options.train_fraction,
                 options.valid_fraction, &rng, &tr, &va, &te);
    for (uint32_t i : tr) g.train_edges.push_back(task_edges[i]);
    for (uint32_t i : va) g.valid_edges.push_back(task_edges[i]);
    for (uint32_t i : te) g.test_edges.push_back(task_edges[i]);
    // Training task edges participate in message passing; valid/test do not.
    for (const Edge& e : g.train_edges) g.edges.push_back(e);

    // Destination-type candidates for ranking, in pass order.
    if (!options.destination_type_iri.empty()) {
      if (dest_type == kNullTermId || !mentioned[3])
        return Status::NotFound("destination type not in KG: " +
                                options.destination_type_iri);
      for (TermId s : dest_subjects) {
        auto it = node_of.find(s);
        if (it != node_of.end())
          g.destination_candidates.push_back(it->second);
      }
    }
  }

  // Features.
  g.feature_dim = options.feature_dim;
  g.features = Matrix(g.num_nodes, g.feature_dim);
  g.features.XavierInit(&rng);
  g.IndexNodes();
  return g;
}

}  // namespace

Result<GraphData> BuildGraphData(const std::vector<rdf::Triple>& triples,
                                 const rdf::Dictionary& dict,
                                 const TransformOptions& options) {
  return Encode(dict, options, [&](const auto& visit) {
    for (const Triple& t : triples) visit(t);
  });
}

Result<GraphData> BuildGraphData(const rdf::TripleStore& store,
                                 const TransformOptions& options) {
  return Encode(store.dict(), options, [&](const auto& visit) {
    store.Scan(TriplePattern(), [&](const Triple& t) {
      visit(t);
      return true;
    });
  });
}

}  // namespace kgnet::gml
