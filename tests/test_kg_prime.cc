// Pins of what training on a sampled subgraph KG′ produces, written
// against the public API so that any change to how KG′ is held must
// reproduce them exactly: the GraphData each job encodes (node, relation
// and class IRIs, edges, labels, splits, candidates, features), the
// bundles its models serve from, and the answers they serve: one table for
// a model fresh from training and for its saved-and-loaded copy.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/kgnet.h"
#include "core/model_io.h"
#include "workload/dblp_gen.h"

namespace kgnet::core {
namespace {

using workload::DblpSchema;

/// FNV-1a, fed field by field.
class Fnv {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  template <typename T>
  void Pod(const T& v) {
    Bytes(&v, sizeof(v));
  }
  void Str(const std::string& s) {
    Bytes(s.data(), s.size());
    Pod('\n');
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

void DigestEdges(const std::vector<gml::Edge>& edges, Fnv* f) {
  f->Pod(edges.size());
  for (const gml::Edge& e : edges) {
    f->Pod(e.src);
    f->Pod(e.rel);
    f->Pod(e.dst);
  }
}

void DigestIds(const std::vector<uint32_t>& ids, Fnv* f) {
  f->Pod(ids.size());
  for (uint32_t v : ids) f->Pod(v);
}

/// One GraphData, reduced to sizes and one digest per part. The three IRI
/// digests are 0 when the graph's dictionary is not at hand.
struct GraphPin {
  size_t nodes, relations, classes, edges;
  uint64_t node_iris, relation_iris, class_iris;
  uint64_t edge_list, labels, splits, candidates, features;
};

bool operator==(const GraphPin& a, const GraphPin& b) {
  return a.nodes == b.nodes && a.relations == b.relations &&
         a.classes == b.classes && a.edges == b.edges &&
         a.node_iris == b.node_iris && a.relation_iris == b.relation_iris &&
         a.class_iris == b.class_iris && a.edge_list == b.edge_list &&
         a.labels == b.labels && a.splits == b.splits &&
         a.candidates == b.candidates && a.features == b.features;
}

std::ostream& operator<<(std::ostream& os, const GraphPin& p) {
  return os << "{" << p.nodes << ", " << p.relations << ", " << p.classes
            << ", " << p.edges << ", " << p.node_iris << "ull, "
            << p.relation_iris << "ull, " << p.class_iris << "ull, "
            << p.edge_list << "ull, " << p.labels << "ull, " << p.splits
            << "ull, " << p.candidates << "ull, " << p.features << "ull}";
}

GraphPin PinOf(const gml::GraphData& g, const rdf::Dictionary* dict) {
  GraphPin pin{g.num_nodes, g.num_relations, g.num_classes, g.edges.size(),
               0, 0, 0, 0, 0, 0, 0, 0};
  auto iris = [&](const std::vector<rdf::TermId>& terms) -> uint64_t {
    if (dict == nullptr) return 0;
    Fnv f;
    for (rdf::TermId t : terms) f.Str(dict->Lookup(t).lexical);
    return f.value();
  };
  pin.node_iris = iris(g.node_terms);
  pin.relation_iris = iris(g.relation_terms);
  pin.class_iris = iris(g.class_terms);
  Fnv edges;
  DigestEdges(g.edges, &edges);
  pin.edge_list = edges.value();
  Fnv labels;
  labels.Pod(g.labels.size());
  for (int l : g.labels) labels.Pod(l);
  DigestIds(g.target_nodes, &labels);
  pin.labels = labels.value();
  Fnv splits;
  DigestIds(g.train_idx, &splits);
  DigestIds(g.valid_idx, &splits);
  DigestIds(g.test_idx, &splits);
  splits.Pod(g.task_relation);
  DigestEdges(g.train_edges, &splits);
  DigestEdges(g.valid_edges, &splits);
  DigestEdges(g.test_edges, &splits);
  pin.splits = splits.value();
  Fnv candidates;
  DigestIds(g.destination_candidates, &candidates);
  pin.candidates = candidates.value();
  Fnv features;
  features.Pod(g.feature_dim);
  for (size_t r = 0; r < g.features.rows(); ++r)
    for (size_t c = 0; c < g.features.cols(); ++c)
      features.Pod(g.features.At(r, c));
  pin.features = features.value();
  return pin;
}

/// A small generated DBLP KG with its periphery, so sampling prunes.
void GenerateKg(rdf::TripleStore* store) {
  workload::DblpOptions opts;
  opts.num_papers = 120;
  opts.num_authors = 60;
  opts.num_venues = 4;
  opts.num_affiliations = 8;
  opts.include_periphery = true;
  opts.periphery_scale = 0.5;
  ASSERT_TRUE(workload::GenerateDblp(opts, store).ok());
}

TrainTaskSpec NcSpec() {
  TrainTaskSpec s;
  s.task = gml::TaskType::kNodeClassification;
  s.target_type_iri = DblpSchema::Publication();
  s.label_predicate_iri = DblpSchema::PublishedIn();
  s.forced_method = gml::GmlMethod::kGcn;
  s.config.epochs = 30;
  s.config.hidden_dim = 8;
  s.config.embed_dim = 8;
  s.config.patience = 0;
  s.model_name = "nc";
  return s;
}

TrainTaskSpec LpSpec() {
  TrainTaskSpec s;
  s.task = gml::TaskType::kLinkPrediction;
  s.target_type_iri = DblpSchema::Person();
  s.destination_type_iri = DblpSchema::Affiliation();
  s.task_predicate_iri = DblpSchema::PrimaryAffiliation();
  s.forced_method = gml::GmlMethod::kTransE;
  s.config.epochs = 30;
  s.config.embed_dim = 8;
  s.config.patience = 0;
  s.model_name = "lp";
  return s;
}

struct Job {
  const char* label;
  TrainTaskSpec spec;
  GraphPin pin;
};

std::vector<Job> Jobs() {
  TrainTaskSpec d1h1 = NcSpec();
  d1h1.direction = SampleDirection::kOutgoing;
  TrainTaskSpec d2h1 = LpSpec();
  d2h1.direction = SampleDirection::kBidirectional;
  TrainTaskSpec d1h2 = NcSpec();
  d1h2.direction = SampleDirection::kOutgoing;
  d1h2.hops = 2;
  TrainTaskSpec full = NcSpec();
  full.use_meta_sampling = false;
  return {
      {"d1h1", d1h1,
       {187, 3, 4, 839,
        17536176567149445262ull, 13226438082783634070ull, 3412424150342032581ull,
        2987568633475897243ull, 13975869416462823543ull, 5493318586594332841ull,
        12161962213042174405ull, 5287262199489807027ull}},
      {"d2h1", d2h1,
       {200, 6, 0, 760,
        11173964890245925768ull, 1076297982227368358ull, 14695981039346656037ull,
        14765030864090459599ull, 16860985708262433933ull, 9821298674232452553ull,
        16302952100770005235ull, 4231167293423594884ull}},
      {"d1h2", d1h2,
       {271, 9, 4, 1223,
        9096233923178954993ull, 4572194210493307554ull, 3412424150342032581ull,
        14218774210049357914ull, 11789256054378370684ull, 5493318586594332841ull,
        12161962213042174405ull, 13658963990252374376ull}},
      {"full", full,
       {410, 14, 4, 1469,
        2672291859493178813ull, 1641315198059803693ull, 3412424150342032581ull,
        5673113097581460806ull, 17269970830818103130ull, 5493318586594332841ull,
        12161962213042174405ull, 11233605523989736065ull}},
  };
}

/// The meta-sampling spec TrainTask derives from a task spec.
MetaSampleSpec SampleOf(const TrainTaskSpec& spec) {
  MetaSampleSpec ms;
  ms.target_type_iri = spec.target_type_iri;
  ms.supervision_predicate_iris = {
      spec.task == gml::TaskType::kNodeClassification
          ? spec.label_predicate_iri
          : spec.task_predicate_iri};
  ms.direction = spec.direction.value_or(SampleDirection::kOutgoing);
  ms.hops = spec.hops;
  return ms;
}

/// The transform options TrainTask derives from a task spec.
gml::TransformOptions OptionsOf(const TrainTaskSpec& spec) {
  gml::TransformOptions t;
  t.target_type_iri = spec.target_type_iri;
  if (spec.task == gml::TaskType::kNodeClassification) {
    t.label_predicate_iri = spec.label_predicate_iri;
  } else {
    t.task_predicate_iri = spec.task_predicate_iri;
    t.destination_type_iri = spec.destination_type_iri;
  }
  t.feature_dim = spec.config.embed_dim;
  t.seed = spec.config.seed;
  return t;
}

TEST(KgPrimeGraphPinTest, ExtractedStoreEncodesThePinnedGraph) {
  rdf::TripleStore kg;
  GenerateKg(&kg);
  for (const Job& job : Jobs()) {
    const rdf::TripleStore* store = &kg;
    std::unique_ptr<rdf::TripleStore> sub;
    if (job.spec.use_meta_sampling) {
      auto extracted = MetaSampler(&kg).Extract(SampleOf(job.spec));
      ASSERT_TRUE(extracted.ok()) << extracted.status();
      sub = std::move(*extracted);
      store = sub.get();
    }
    auto g = gml::BuildGraphData(*store, OptionsOf(job.spec));
    ASSERT_TRUE(g.ok()) << g.status();
    EXPECT_EQ(PinOf(*g, &store->dict()), job.pin) << job.label;
  }
}

/// The digest PinOf gives a graph's candidates, over a bundle's
/// destination rows: the two are equal for a typed LP model, and both empty
/// for an NC model.
uint64_t CandidatesDigest(const ServingBundle& b) {
  Fnv f;
  DigestIds(b.destination_rows, &f);
  return f.value();
}

TEST(KgPrimeGraphPinTest, TrainTaskTrainsOnThePinnedGraph) {
  KgNet kg;
  GenerateKg(&kg.store());
  for (const Job& job : Jobs()) {
    auto out = kg.TrainTask(job.spec);
    ASSERT_TRUE(out.ok()) << out.status();
    auto model = kg.service().kgmeta().GetModel(out->model_uri);
    ASSERT_TRUE(model.ok());
    const ServingBundle& b = (*model)->bundle;
    EXPECT_EQ(b.node_iris.size(), job.pin.nodes) << job.label;
    EXPECT_EQ(b.class_iris.size(), job.pin.classes) << job.label;
    EXPECT_EQ(CandidatesDigest(b), job.pin.candidates) << job.label;
  }
}

TEST(KgPrimeGraphPinTest, ExtractedTriplesEncodeThePinnedGraph) {
  rdf::TripleStore kg;
  GenerateKg(&kg);
  for (const Job& job : Jobs()) {
    Result<gml::GraphData> g = Status::Internal("unset");
    if (job.spec.use_meta_sampling) {
      MetaSampleStats stats;
      auto sampled =
          MetaSampler(&kg).ExtractTriples(SampleOf(job.spec), &stats);
      ASSERT_TRUE(sampled.ok()) << sampled.status();
      EXPECT_EQ(sampled->triples.size(), stats.extracted_triples);
      g = gml::BuildGraphData(sampled->triples, kg.dict(), OptionsOf(job.spec));
    } else {
      g = gml::BuildGraphData(kg, OptionsOf(job.spec));
    }
    ASSERT_TRUE(g.ok()) << g.status();
    EXPECT_EQ(PinOf(*g, &kg.dict()), job.pin) << job.label;
  }
}

/// The graph TrainTask encodes for `spec`, built here from the extracted
/// triples (ExtractedTriplesEncodeThePinnedGraph pins it).
Result<gml::GraphData> GraphOf(const rdf::TripleStore& kg,
                               const TrainTaskSpec& spec) {
  if (!spec.use_meta_sampling) return gml::BuildGraphData(kg, OptionsOf(spec));
  KGNET_ASSIGN_OR_RETURN(SampledTriples sampled,
                         MetaSampler(&kg).ExtractTriples(SampleOf(spec)));
  return gml::BuildGraphData(sampled.triples, kg.dict(), OptionsOf(spec));
}

TEST(KgPrimeGraphPinTest, TrainedGraphsNameTermsInTheKgDictionary) {
  KgNet kg;
  GenerateKg(&kg.store());
  for (const Job& job : Jobs()) {
    auto out = kg.TrainTask(job.spec);
    ASSERT_TRUE(out.ok()) << out.status();
    auto model = kg.service().kgmeta().GetModel(out->model_uri);
    ASSERT_TRUE(model.ok());
    const ServingBundle& b = (*model)->bundle;
    Fnv nodes, classes;
    for (const std::string& iri : b.node_iris) nodes.Str(iri);
    for (const std::string& iri : b.class_iris) classes.Str(iri);
    EXPECT_EQ(nodes.value(), job.pin.node_iris) << job.label;
    EXPECT_EQ(classes.value(), job.pin.class_iris) << job.label;
    // An NC bundle predicts a class for every target node and no other.
    auto g = GraphOf(kg.store(), job.spec);
    ASSERT_TRUE(g.ok()) << g.status();
    const auto predicted = std::count_if(
        b.row_class.begin(), b.row_class.end(), [](int32_t c) { return c >= 0; });
    EXPECT_EQ(static_cast<size_t>(predicted), g->target_nodes.size())
        << job.label;
  }
}

TEST(KgPrimeGraphPinTest, ExtractLoadsTheTriplesWithWalkOrderIds) {
  rdf::TripleStore kg;
  GenerateKg(&kg);
  const MetaSampleSpec spec = SampleOf(Jobs()[1].spec);
  auto sampled = MetaSampler(&kg).ExtractTriples(spec);
  auto store = MetaSampler(&kg).Extract(spec);
  ASSERT_TRUE(sampled.ok() && store.ok());
  const rdf::Dictionary& sub = (*store)->dict();
  ASSERT_EQ(sub.num_terms(), sampled->terms.size());
  for (size_t i = 0; i < sampled->terms.size(); ++i)
    EXPECT_EQ(sub.Lookup(static_cast<rdf::TermId>(i + 1)),
              kg.dict().Lookup(sampled->terms[i]));
  std::vector<rdf::Triple> scanned;
  (*store)->Scan(rdf::TriplePattern(), [&](const rdf::Triple& t) {
    scanned.push_back(t);
    return true;
  });
  ASSERT_EQ(scanned.size(), sampled->triples.size());
  for (size_t i = 0; i < scanned.size(); ++i) {
    const rdf::Triple& want = sampled->triples[i];
    EXPECT_EQ(sub.Lookup(scanned[i].s), kg.dict().Lookup(want.s));
    EXPECT_EQ(sub.Lookup(scanned[i].p), kg.dict().Lookup(want.p));
    EXPECT_EQ(sub.Lookup(scanned[i].o), kg.dict().Lookup(want.o));
  }
}

// ---- inference answers ----

/// Renders one answer as "value" / "a b c" / "<code>: <message>", with the
/// DBLP namespace shortened so the table below stays readable.
std::string Short(std::string s) {
  const std::string ns = workload::kDblpNs;
  for (size_t at; (at = s.find(ns)) != std::string::npos;)
    s.replace(at, ns.size(), "dblp:");
  return s;
}
std::string Render(const Result<std::string>& r) {
  return Short(r.ok() ? *r : r.status().ToString());
}
std::string Render(const Result<std::vector<std::string>>& r) {
  if (!r.ok()) return Short(r.status().ToString());
  std::string out;
  for (const std::string& s : *r) out += (out.empty() ? "" : " ") + s;
  return Short(out);
}
std::string Render(const Result<std::map<std::string, std::string>>& r) {
  if (!r.ok()) return Short(r.status().ToString());
  Fnv f;
  for (const auto& [node, cls] : *r) f.Str(node + "=" + cls);
  return std::to_string(r->size()) + " entries, digest " +
         std::to_string(f.value());
}

// The four kinds of IRI a caller can ask about: a graph node, a term of
// KG′ that is not a node (a predicate), an IRI of the KG outside KG′, and
// an IRI the KG never saw.
const char* const kNcIris[] = {"publication/0", "publication/7", "person/3",
                               "publishedIn", "editor/0", "nope/0"};
const char* const kLpIris[] = {"person/0", "person/5", "affiliation/2",
                               "primaryAffiliation", "venue/0", "nope/0"};

std::vector<std::string> Iris(const char* const* names, size_t n) {
  std::vector<std::string> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i)
    out.push_back(workload::kDblpNs + std::string(names[i]));
  return out;
}

/// Every answer `im` gives for the NC model `nc` and the LP model `lp`,
/// one "call -> answer" line each.
std::vector<std::string> AnswerTable(InferenceManager& im,
                                     const std::string& nc,
                                     const std::string& lp) {
  std::vector<std::string> out;
  auto add = [&](const std::string& call, const std::string& answer) {
    out.push_back(call + " -> " + answer);
  };
  const std::vector<std::string> nc_iris =
      Iris(kNcIris, std::size(kNcIris));
  const std::vector<std::string> lp_iris =
      Iris(kLpIris, std::size(kLpIris));
  for (const std::string& iri : nc_iris)
    add("class " + Short(iri), Render(im.GetNodeClass(nc, iri)));
  auto batch = im.GetNodeClassBatch(nc, nc_iris);
  if (!batch.ok()) {
    add("class batch", Short(batch.status().ToString()));
  } else {
    for (size_t i = 0; i < nc_iris.size(); ++i)
      add("class batch " + Short(nc_iris[i]), Render((*batch)[i]));
  }
  add("class dictionary", Render(im.GetNodeClassDictionary(nc)));
  add("class of lp model", Render(im.GetNodeClass(lp, lp_iris[0])));
  for (const std::string& iri : lp_iris)
    add("links " + Short(iri), Render(im.GetTopKLinks(lp, iri, 3)));
  auto links = im.GetTopKLinksBatch(lp, lp_iris, 3);
  if (!links.ok()) {
    add("links batch", Short(links.status().ToString()));
  } else {
    for (size_t i = 0; i < lp_iris.size(); ++i)
      add("links batch " + Short(lp_iris[i]), Render((*links)[i]));
  }
  add("links of nc model", Render(im.GetTopKLinks(nc, nc_iris[0], 3)));
  for (const std::string& iri : lp_iris)
    add("similar " + Short(iri), Render(im.GetSimilarEntities(lp, iri, 3)));
  return out;
}

class KgPrimeInferencePinTest : public ::testing::Test {
 protected:
  KgPrimeInferencePinTest() {
    GenerateKg(&kg_.store());
    auto nc = kg_.TrainTask(NcSpec());
    EXPECT_TRUE(nc.ok()) << nc.status();
    if (nc.ok()) nc_uri_ = nc->model_uri;
    auto lp = kg_.TrainTask(LpSpec());
    EXPECT_TRUE(lp.ok()) << lp.status();
    if (lp.ok()) lp_uri_ = lp->model_uri;
  }

  InferenceManager& manager() { return kg_.service().inference_manager(); }

  KgNet kg_;
  std::string nc_uri_;
  std::string lp_uri_;
};

void ExpectTable(const std::vector<std::string>& got,
                 const std::vector<std::string>& want) {
  EXPECT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size() && i < want.size(); ++i)
    EXPECT_EQ(got[i], want[i]);
  std::string dump;
  for (const std::string& line : got) dump += "      \"" + line + "\",\n";
  if (::testing::Test::HasFailure()) std::printf("%s", dump.c_str());
}

/// The one table every model answers with, fresh from training or loaded.
std::vector<std::string> PinnedTable() {
  return {
      "class dblp:publication/0 -> dblp:venue/2",
      "class dblp:publication/7 -> dblp:venue/2",
      "class dblp:person/3 -> NotFound: no prediction for node dblp:person/3",
      "class dblp:publishedIn -> NotFound: no prediction for node dblp:publishedIn",
      "class dblp:editor/0 -> NotFound: no prediction for node dblp:editor/0",
      "class dblp:nope/0 -> NotFound: no prediction for node dblp:nope/0",
      "class batch dblp:publication/0 -> dblp:venue/2",
      "class batch dblp:publication/7 -> dblp:venue/2",
      "class batch dblp:person/3 -> NotFound: no prediction for node dblp:person/3",
      "class batch dblp:publishedIn -> NotFound: no prediction for node dblp:publishedIn",
      "class batch dblp:editor/0 -> NotFound: no prediction for node dblp:editor/0",
      "class batch dblp:nope/0 -> NotFound: no prediction for node dblp:nope/0",
      "class dictionary -> 120 entries, digest 2479149089145519521",
      "class of lp model -> FailedPrecondition: https://www.kgnet.com/model/lp-2 serves LinkPrediction, not NodeClassification",
      "links dblp:person/0 -> dblp:affiliation/6 dblp:affiliation/5 dblp:affiliation/3",
      "links dblp:person/5 -> dblp:affiliation/5 dblp:affiliation/2 dblp:affiliation/3",
      "links dblp:affiliation/2 -> dblp:affiliation/2 dblp:affiliation/6 dblp:affiliation/1",
      "links dblp:primaryAffiliation -> NotFound: node not in model bundle: dblp:primaryAffiliation",
      "links dblp:venue/0 -> NotFound: node not in model bundle: dblp:venue/0",
      "links dblp:nope/0 -> NotFound: node not in model bundle: dblp:nope/0",
      "links batch dblp:person/0 -> dblp:affiliation/6 dblp:affiliation/5 dblp:affiliation/3",
      "links batch dblp:person/5 -> dblp:affiliation/5 dblp:affiliation/2 dblp:affiliation/3",
      "links batch dblp:affiliation/2 -> dblp:affiliation/2 dblp:affiliation/6 dblp:affiliation/1",
      "links batch dblp:primaryAffiliation -> NotFound: node not in model bundle: dblp:primaryAffiliation",
      "links batch dblp:venue/0 -> NotFound: node not in model bundle: dblp:venue/0",
      "links batch dblp:nope/0 -> NotFound: node not in model bundle: dblp:nope/0",
      "links of nc model -> FailedPrecondition: https://www.kgnet.com/model/nc-1 serves NodeClassification, not LinkPrediction",
      "similar dblp:person/0 -> dblp:person/12 dblp:person/48 dblp:person/36",
      "similar dblp:person/5 -> dblp:person/57 dblp:person/1 dblp:person/6",
      "similar dblp:affiliation/2 -> dblp:affiliation/3 dblp:affiliation/6 dblp:affiliation/5",
      "similar dblp:primaryAffiliation -> NotFound: node not in model bundle: dblp:primaryAffiliation",
      "similar dblp:venue/0 -> NotFound: node not in model bundle: dblp:venue/0",
      "similar dblp:nope/0 -> NotFound: node not in model bundle: dblp:nope/0"};
}

TEST_F(KgPrimeInferencePinTest, LiveModelsAnswerThePinnedTable) {
  ExpectTable(AnswerTable(manager(), nc_uri_, lp_uri_), PinnedTable());
}

TEST_F(KgPrimeInferencePinTest, SavedAndLoadedModelsAnswerThePinnedTable) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("kgnet_kg_prime_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  KgMeta loaded;
  for (const std::string& uri : {nc_uri_, lp_uri_}) {
    auto model = kg_.service().kgmeta().GetModel(uri);
    ASSERT_TRUE(model.ok());
    const std::string path = (dir / "m.kgm").string();
    ASSERT_TRUE(SaveTrainedModel(**model, path).ok());
    auto back = LoadTrainedModel(path);
    ASSERT_TRUE(back.ok()) << back.status();
    ASSERT_TRUE(loaded.RegisterModel(*back).ok());
  }
  std::filesystem::remove_all(dir);
  InferenceManager im(&loaded);
  ExpectTable(AnswerTable(im, nc_uri_, lp_uri_), PinnedTable());
}

TEST_F(KgPrimeInferencePinTest, NewTermsInTheKgDoNotChangeSampledAnswers) {
  const std::vector<std::string> before =
      AnswerTable(manager(), nc_uri_, lp_uri_);
  const std::string fresh = std::string(workload::kDblpNs) + "publication/new";
  const std::string fresh_person =
      std::string(workload::kDblpNs) + "person/new";
  {
    rdf::TripleStore::BulkLoad bulk(&kg_.store());
    kg_.store().InsertIris(fresh, std::string(rdf::kRdfType),
                           DblpSchema::Publication());
    kg_.store().InsertIris(fresh, DblpSchema::PublishedIn(),
                           std::string(workload::kDblpNs) + "venue/0");
    kg_.store().InsertIris(fresh, DblpSchema::AuthoredBy(), fresh_person);
    kg_.store().InsertIris(fresh_person, std::string(rdf::kRdfType),
                           DblpSchema::Person());
    kg_.store().InsertIris(fresh_person, DblpSchema::PrimaryAffiliation(),
                           std::string(workload::kDblpNs) + "affiliation/0");
  }
  EXPECT_EQ(AnswerTable(manager(), nc_uri_, lp_uri_), before);
  EXPECT_EQ(Render(manager().GetNodeClass(nc_uri_, fresh)),
            "NotFound: no prediction for node dblp:publication/new");
  EXPECT_EQ(Render(manager().GetTopKLinks(lp_uri_, fresh_person, 3)),
            "NotFound: node not in model bundle: dblp:person/new");
}

TEST_F(KgPrimeInferencePinTest, ConcurrentFirstCallsAgreeWithSerialOnes) {
  // A model fresh from training has served nothing yet: the four threads'
  // calls are its first, racing on whatever the first call sets up.
  auto nc = kg_.TrainTask(NcSpec());
  auto lp = kg_.TrainTask(LpSpec());
  ASSERT_TRUE(nc.ok() && lp.ok());
  const std::vector<std::string> nc_iris = Iris(kNcIris, std::size(kNcIris));
  const std::vector<std::string> lp_iris = Iris(kLpIris, std::size(kLpIris));
  constexpr int kThreads = 4;
  std::atomic<int> ready{0};
  std::vector<std::vector<std::string>> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (size_t i = 0; i < nc_iris.size(); ++i) {
        const size_t at = (i + static_cast<size_t>(t)) % nc_iris.size();
        got[t].push_back(
            Render(manager().GetNodeClass(nc->model_uri, nc_iris[at])));
        got[t].push_back(
            Render(manager().GetTopKLinks(lp->model_uri, lp_iris[at], 3)));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < nc_iris.size(); ++i) {
      const size_t at = (i + static_cast<size_t>(t)) % nc_iris.size();
      EXPECT_EQ(got[t][2 * i],
                Render(manager().GetNodeClass(nc->model_uri, nc_iris[at])));
      EXPECT_EQ(got[t][2 * i + 1],
                Render(manager().GetTopKLinks(lp->model_uri, lp_iris[at], 3)));
    }
  }
}

// ---- link prediction: one ranking on every path ----

/// Hits@10 of `top10` (one list per graph node) over `g`'s test edges.
double HitsAt10(const gml::GraphData& g, const rdf::Dictionary& dict,
                const std::vector<std::vector<std::string>>& top10) {
  size_t hits = 0;
  for (const gml::Edge& e : g.test_edges) {
    const std::vector<std::string>& list = top10[e.src];
    if (std::find(list.begin(), list.end(),
                  dict.Lookup(g.node_terms[e.dst]).lexical) != list.end())
      ++hits;
  }
  return g.test_edges.empty()
             ? 0.0
             : static_cast<double>(hits) / static_cast<double>(g.test_edges.size());
}

TEST(KgPrimeLinkRankingTest, EveryMethodRanksLikeItsPredictorLiveAndLoaded) {
  KgNet kg;
  GenerateKg(&kg.store());
  const rdf::Dictionary& dict = kg.store().dict();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("kgnet_kg_prime_rank_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  for (gml::GmlMethod method :
       {gml::GmlMethod::kTransE, gml::GmlMethod::kDistMult,
        gml::GmlMethod::kComplEx, gml::GmlMethod::kRotatE,
        gml::GmlMethod::kMorse}) {
    const char* name = gml::GmlMethodName(method);
    TrainTaskSpec spec = LpSpec();
    spec.direction = SampleDirection::kBidirectional;
    spec.forced_method = method;
    auto out = kg.TrainTask(spec);
    ASSERT_TRUE(out.ok()) << name << ": " << out.status();
    auto model = kg.service().kgmeta().GetModel(out->model_uri);
    ASSERT_TRUE(model.ok());
    const std::string path = (dir / "lp.kgm").string();
    ASSERT_TRUE(SaveTrainedModel(**model, path).ok());
    auto back = LoadTrainedModel(path);
    ASSERT_TRUE(back.ok()) << back.status();
    KgMeta loaded;
    ASSERT_TRUE(loaded.RegisterModel(*back).ok());
    InferenceManager loaded_im(&loaded);

    // The reference: the same method trained on the same graph with the
    // same config, its candidates ranked by its own Score.
    auto g = GraphOf(kg.store(), spec);
    ASSERT_TRUE(g.ok()) << g.status();
    auto reference = gml::MakeLinkPredictor(method);
    ASSERT_TRUE(reference.ok());
    gml::TrainReport report;
    ASSERT_TRUE((*reference)->Train(*g, spec.config, &report).ok());

    std::vector<std::vector<std::string>> live(g->num_nodes),
        from_disk(g->num_nodes), want(g->num_nodes);
    for (uint32_t src = 0; src < g->num_nodes; ++src) {
      const std::string iri = dict.Lookup(g->node_terms[src]).lexical;
      std::vector<std::pair<float, uint32_t>> scored;
      for (uint32_t dst : g->destination_candidates)
        scored.emplace_back((*reference)->Score(src, g->task_relation, dst),
                            dst);
      for (uint32_t dst : gml::TopKByScore(std::move(scored), 10))
        want[src].push_back(dict.Lookup(g->node_terms[dst]).lexical);
      auto a = kg.service().inference_manager().GetTopKLinks(
          out->model_uri, iri, 10);
      auto b = loaded_im.GetTopKLinks(out->model_uri, iri, 10);
      ASSERT_TRUE(a.ok() && b.ok()) << name << " " << iri;
      live[src] = *a;
      from_disk[src] = *b;
      EXPECT_EQ(live[src], want[src]) << name << " registered, " << iri;
      EXPECT_EQ(from_disk[src], want[src]) << name << " loaded, " << iri;
    }
    const double hits = HitsAt10(*g, dict, want);
    EXPECT_EQ(HitsAt10(*g, dict, live), hits) << name;
    EXPECT_EQ(HitsAt10(*g, dict, from_disk), hits) << name;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace kgnet::core
