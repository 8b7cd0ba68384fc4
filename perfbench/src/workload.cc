#include "perfbench/src/workload.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <random>

#include "serving/protocol.h"
#include "sparql/parser.h"

namespace kgnet::perfbench {

namespace {

constexpr char kPrefix[] =
    "PREFIX dblp: <https://dblp.org/rdf/> "
    "PREFIX kgnet: <https://www.kgnet.com/> ";

std::string Region(const std::string& local) {
  return "<" + std::string(kRegionNs) + local + ">";
}

/// The paper's `INSERT INTO <kgnet> { ... } WHERE { SELECT * FROM
/// kgnet.TrainGML(...) }` form does not parse on the serving path, which
/// parses every query before routing it. The service detects TrainGML
/// textually, so the call travels in the literal of an INSERT DATA.
std::string TrainText(const std::string& payload) {
  return std::string(kPrefix) +
         "INSERT DATA { kgnet:bench kgnet:trainRequest \"kgnet.TrainGML(" +
         payload + ")\" . }";
}

}  // namespace

workload::DblpOptions KgOptions(Workload w) {
  workload::DblpOptions o;
  o.seed = kKgSeed;
  o.include_periphery = true;
  if (w == Workload::kReadMix) {
    o.num_papers = 6000;
    o.num_authors = 2400;
    o.num_venues = 24;
    o.num_affiliations = 80;
  } else {
    o.num_papers = 3000;
    o.num_authors = 1200;
  }
  return o;
}

std::vector<TrainJob> TrainJobs(Workload w) {
  using workload::DblpSchema;
  const int epochs = 40;
  auto nc = [&](const char* label, bool sampled) {
    TrainJob j;
    j.label = label;
    j.spec.task = gml::TaskType::kNodeClassification;
    j.spec.target_type_iri = DblpSchema::Publication();
    j.spec.label_predicate_iri = DblpSchema::PublishedIn();
    j.spec.forced_method = gml::GmlMethod::kGcn;
    j.spec.use_meta_sampling = sampled;
    j.spec.direction = core::SampleDirection::kOutgoing;
    j.spec.hops = 1;
    j.spec.config.epochs = static_cast<size_t>(epochs);
    j.spec.config.hidden_dim = 16;
    j.spec.config.embed_dim = 16;
    j.spec.config.patience = 0;
    j.spec.model_name = std::string("bench-") + label;
    j.text = TrainText(
        "{Name: 'bench-" + std::string(label) +
        "', GML-Task: {TaskType: kgnet:NodeClassifier, TargetNode: "
        "dblp:Publication, NodeLabel: dblp:publishedIn}, Method: 'GCN', "
        "MetaSampling: {Enabled: " +
        (sampled ? "true" : "false") +
        ", Direction: 1, Hops: 1}, Hyperparameters: {Epochs: " +
        std::to_string(epochs) +
        ", HiddenDim: 16, EmbedDim: 16, Patience: 0}}");
    return j;
  };
  TrainJob lp;
  lp.label = "lp_d2h1";
  lp.spec.task = gml::TaskType::kLinkPrediction;
  lp.spec.target_type_iri = DblpSchema::Person();
  lp.spec.destination_type_iri = DblpSchema::Affiliation();
  lp.spec.task_predicate_iri = DblpSchema::PrimaryAffiliation();
  lp.spec.forced_method = gml::GmlMethod::kDistMult;
  lp.spec.direction = core::SampleDirection::kBidirectional;
  lp.spec.hops = 1;
  lp.spec.config.epochs = static_cast<size_t>(epochs);
  lp.spec.config.embed_dim = 16;
  lp.spec.config.patience = 0;
  lp.spec.model_name = "bench-lp_d2h1";
  lp.text = TrainText(
      "{Name: 'bench-lp_d2h1', GML-Task: {TaskType: kgnet:LinkPredictor, "
      "SourceNode: dblp:Person, DestinationNode: dblp:Affiliation, "
      "TaskPredicate: dblp:primaryAffiliation}, Method: 'DistMult', "
      "MetaSampling: {Direction: 2, Hops: 1}, Hyperparameters: {Epochs: " +
      std::to_string(epochs) + ", EmbedDim: 16, Patience: 0}}");
  std::vector<TrainJob> jobs = {nc("nc_d1h1", true), lp};
  if (w == Workload::kTrainPipeline) jobs.push_back(nc("nc_full", false));
  return jobs;
}

std::string DeleteModelsQuery(const char* family) {
  return std::string(kPrefix) + "DELETE {?m ?p ?o} WHERE { ?m a kgnet:" +
         family + " . }";
}

uint32_t Oracle::Intern(const std::string& key) {
  auto [it, fresh] = slot_.emplace(key, static_cast<uint32_t>(keys_.size()));
  if (fresh) {
    keys_.push_back(key);
    digest_.push_back(0);
  }
  return it->second;
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t Zipf::Sample(tensor::Rng* rng) const {
  const double u =
      std::uniform_real_distribution<double>(0.0, 1.0)(rng->generator());
  const size_t i = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(i, cdf_.size() - 1);
}

StreamGen::StreamGen(uint64_t seed, const ServedState* state, Oracle* oracle)
    : rng_(seed * 0x9E3779B97F4A7C15ull + 0x5eed),
      state_(state),
      oracle_(oracle),
      paper_zipf_(state->papers.size(), kZipfS),
      person_zipf_(state->persons.size(), kZipfS),
      venue_zipf_(state->venues.size(), kZipfS) {}

std::vector<Request> StreamGen::Phase(double qps, double seconds) {
  std::vector<Request> out;
  std::exponential_distribution<double> gap(qps);
  double t = 0;
  for (;;) {
    t += gap(rng_.generator());
    if (t >= seconds) break;
    Request r;
    r.due_ns = static_cast<int64_t>(t * 1e9);
    DrawRead(&r);
    r.body = serving::BuildQueryRequest(static_cast<double>(next_id_++),
                                        oracle_->key(r.key));
    out.push_back(std::move(r));
  }
  return out;
}

void StreamGen::DrawRead(Request* r) {
  const ServedState& s = *state_;
  const std::string paper = "<" + s.papers[paper_zipf_.Sample(&rng_)] + ">";
  const std::string person = "<" + s.persons[person_zipf_.Sample(&rng_)] + ">";
  const std::string venue = "<" + s.venues[venue_zipf_.Sample(&rng_)] + ">";
  // No published query log gives shares for these kinds, so every kind
  // is drawn with the same probability.
  const double u = rng_.NextFloat() * kQueryKinds;
  std::string q = kPrefix;
  if (u < 1) {  // point lookup (single pattern)
    q += "SELECT ?v WHERE { " + paper + " dblp:publishedIn ?v . }";
  } else if (u < 2) {  // 3-pattern star
    q += "SELECT ?p ?v ?t WHERE { ?p dblp:authoredBy " + person +
         " . ?p dblp:publishedIn ?v . ?p dblp:title ?t . }";
  } else if (u < 3) {  // paper -> author -> affiliation chain
    q += "SELECT ?a ?f ?c WHERE { " + paper +
         " dblp:authoredBy ?a . ?a dblp:primaryAffiliation ?f . "
         "?f dblp:locatedIn ?c . }";
  } else if (u < 4) {  // FILTER over a venue's papers
    q += "SELECT ?p ?y WHERE { ?p dblp:publishedIn " + venue +
         " . ?p dblp:yearOfPublication ?y . FILTER(?y >= 2015) }";
  } else if (u < 5) {  // UNION
    q += "SELECT ?f WHERE { { " + person +
         " dblp:primaryAffiliation ?f . } UNION { " + person +
         " dblp:pastAffiliation ?f . } }";
  } else if (u < 6) {  // OPTIONAL
    q += "SELECT ?p ?c WHERE { ?p dblp:authoredBy " + person +
         " . OPTIONAL { ?p dblp:cites ?c . } }";
  } else if (u < 7) {  // DISTINCT over a venue's author affiliations
    q += "SELECT DISTINCT ?f WHERE { ?p dblp:publishedIn " + venue +
         " . ?p dblp:authoredBy ?a . ?a dblp:primaryAffiliation ?f . }";
  } else {  // LIMIT scans, half of them over the periphery
    q += u < 7.5 ? "SELECT ?t ?b WHERE { ?t dblp:broaderTopic ?b . } LIMIT 50"
                 : "SELECT ?p ?a WHERE { ?p dblp:authoredBy ?a . } LIMIT 100";
  }
  r->key = oracle_->Intern(q);
}

uint64_t Fnv(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  h ^= 0xff;
  h *= 1099511628211ull;
  return h;
}

uint64_t StreamDigest(const std::vector<Request>& reqs) {
  uint64_t h = kFnvSeed;
  for (const Request& r : reqs) {
    h = Fnv(h, std::to_string(r.due_ns));
    h = Fnv(h, r.body);
  }
  return h;
}

uint64_t RowsDigest(const sparql::QueryResult& r) {
  uint64_t h = Fnv(kFnvSeed, r.ask_result ? "ask:1" : "ask:0");
  for (const auto& row : r.rows) {
    for (const rdf::Term& t : row) h = Fnv(h, t.EncodeKey());
    h = Fnv(h, "\n");
  }
  return h;
}

uint64_t ValuesDigest(const std::vector<std::string>& v) {
  uint64_t h = kFnvSeed;
  for (const std::string& s : v) h = Fnv(h, s);
  return h;
}

Status ComputeOracle(core::KgNet* kg, Oracle* oracle) {
  for (size_t i = 0; i < oracle->size(); ++i) {
    const uint32_t slot = static_cast<uint32_t>(i);
    KGNET_ASSIGN_OR_RETURN(sparql::Query q,
                           sparql::ParseQuery(oracle->key(slot)));
    KGNET_ASSIGN_OR_RETURN(
        sparql::QueryResult r,
        kg->service().engine().Execute(q, kg->store().OpenSnapshot()));
    oracle->set_digest(slot, RowsDigest(r));
  }
  return Status::OK();
}

std::string RegionReadQuery() {
  return "SELECT ?g ?x WHERE { ?g " + Region("marker") + " ?m . ?g " +
         Region("item") + " ?x . }";
}

std::string GroupDeleteQuery(const std::string& group_iri) {
  // The marker is the first template triple, so it is erased first.
  const std::string group = "<" + group_iri + ">";
  const std::string pattern = "{ " + group + " " + Region("marker") +
                              " ?m . " + group + " " + Region("item") +
                              " ?x . }";
  return "DELETE " + pattern + " WHERE " + pattern;
}

bool RegionAtomic(const sparql::QueryResult& rows, std::string* why) {
  std::map<std::string, uint32_t> items;
  for (const auto& row : rows.rows) {
    if (row.size() != 2) {
      *why = "region read returned a row of width " +
             std::to_string(row.size());
      return false;
    }
    ++items[row[0].lexical];
  }
  for (const auto& [group, n] : items) {
    if (n != kGroupItems) {
      *why = "torn group " + group + ": " + std::to_string(n) + " of " +
             std::to_string(kGroupItems) + " items visible";
      return false;
    }
  }
  return true;
}

}  // namespace kgnet::perfbench
