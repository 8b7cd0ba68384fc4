#include "workload/dblp_gen.h"

#include <string>
#include <vector>

#include "rdf/term.h"
#include "tensor/rng.h"

namespace kgnet::workload {

using rdf::Term;
using rdf::TripleStore;

namespace {

std::string Iri(const std::string& kind, size_t i) {
  return std::string(kDblpNs) + kind + "/" + std::to_string(i);
}

}  // namespace

Status GenerateDblp(const DblpOptions& o, TripleStore* store) {
  if (o.num_venues == 0 || o.num_papers == 0 || o.num_authors == 0 ||
      o.num_affiliations == 0)
    return Status::InvalidArgument("DBLP generator requires non-zero sizes");
  // One batch: the store builds its permutation runs once, at the end.
  TripleStore::BulkLoad bulk(store);
  tensor::Rng rng(o.seed);
  const std::string type = std::string(rdf::kRdfType);

  // --- Venues ---
  std::vector<std::string> venues(o.num_venues);
  for (size_t v = 0; v < o.num_venues; ++v) {
    venues[v] = Iri("venue", v);
    store->InsertIris(venues[v], type, DblpSchema::Venue());
    if (o.include_literals) {
      store->Insert(Term::Iri(venues[v]), Term::Iri(DblpSchema::Pred("label")),
                    Term::Literal("Venue " + std::to_string(v)));
    }
  }

  // --- Affiliations: each belongs to a venue community ---
  std::vector<std::string> affiliations(o.num_affiliations);
  for (size_t a = 0; a < o.num_affiliations; ++a) {
    affiliations[a] = Iri("affiliation", a);
    store->InsertIris(affiliations[a], type, DblpSchema::Affiliation());
    // Country periphery (irrelevant to both tasks).
    if (o.include_periphery) {
      store->InsertIris(affiliations[a], DblpSchema::Pred("locatedIn"),
                        Iri("country", a % 25));
    }
  }
  if (o.include_periphery) {
    for (size_t c = 0; c < 25; ++c)
      store->InsertIris(Iri("country", c), type, DblpSchema::Class("Country"));
  }

  // --- Authors ---
  // Community of author i: i % num_venues. Affiliation drawn from the
  // affiliations of the same community (affiliation a belongs to community
  // a % num_venues).
  std::vector<std::string> authors(o.num_authors);
  std::vector<size_t> author_comm(o.num_authors);
  std::vector<std::vector<size_t>> comm_affils(o.num_venues);
  for (size_t a = 0; a < o.num_affiliations; ++a)
    comm_affils[a % o.num_venues].push_back(a);
  for (size_t i = 0; i < o.num_authors; ++i) {
    authors[i] = Iri("person", i);
    author_comm[i] = i % o.num_venues;
    store->InsertIris(authors[i], type, DblpSchema::Person());
    // Affiliation link: community-biased with probability
    // affiliation_community_bias, else uniform.
    size_t aff;
    const auto& pool = comm_affils[author_comm[i]];
    if (!pool.empty() &&
        rng.NextFloat() < static_cast<float>(o.affiliation_community_bias)) {
      aff = pool[rng.NextUint(pool.size())];
    } else {
      aff = rng.NextUint(o.num_affiliations);
    }
    store->InsertIris(authors[i], DblpSchema::PrimaryAffiliation(),
                      affiliations[aff]);
    for (size_t k = 0; k < o.past_affiliations_per_author; ++k) {
      store->InsertIris(authors[i], DblpSchema::Pred("pastAffiliation"),
                        affiliations[rng.NextUint(o.num_affiliations)]);
    }
    if (o.include_literals) {
      store->Insert(Term::Iri(authors[i]),
                    Term::Iri(DblpSchema::Pred("name")),
                    Term::Literal("Author " + std::to_string(i)));
    }
  }

  // Cross-community social structure: generic collaboration and membership
  // edges drawn uniformly, i.e. carrying no venue signal. They are two hops
  // from any paper, so d1h1 sampling drops them while full-KG training
  // mixes communities through them.
  if (o.social_edges_per_author > 0) {
    const size_t n_societies = std::max<size_t>(8, o.num_authors / 12);
    for (size_t s = 0; s < n_societies; ++s)
      store->InsertIris(Iri("society", s), type,
                        DblpSchema::Class("Society"));
    for (size_t i = 0; i < o.num_authors; ++i) {
      for (size_t k = 0; k < o.social_edges_per_author; ++k) {
        const size_t j = rng.NextUint(o.num_authors);
        if (j != i)
          store->InsertIris(authors[i], DblpSchema::Pred("coworkerOf"),
                            authors[j]);
      }
      store->InsertIris(authors[i], DblpSchema::Pred("societyMember"),
                        Iri("society", rng.NextUint(n_societies)));
    }
  }

  // Authors per community for fast sampling.
  std::vector<std::vector<size_t>> comm_authors(o.num_venues);
  for (size_t i = 0; i < o.num_authors; ++i)
    comm_authors[author_comm[i]].push_back(i);

  // --- Papers ---
  std::vector<std::string> papers(o.num_papers);
  std::vector<size_t> paper_venue(o.num_papers);
  for (size_t p = 0; p < o.num_papers; ++p) {
    papers[p] = Iri("publication", p);
    const size_t v = p % o.num_venues;  // balanced classes
    paper_venue[p] = v;
    store->InsertIris(papers[p], type, DblpSchema::Publication());
    store->InsertIris(papers[p], DblpSchema::PublishedIn(), venues[v]);
    // Authors: from the venue community, with noise.
    for (size_t k = 0; k < o.authors_per_paper; ++k) {
      size_t who;
      const auto& pool = comm_authors[v];
      if (!pool.empty() && rng.NextFloat() >= o.noise) {
        who = pool[rng.NextUint(pool.size())];
      } else {
        who = rng.NextUint(o.num_authors);
      }
      store->InsertIris(papers[p], DblpSchema::AuthoredBy(), authors[who]);
    }
    // Citations: to earlier papers, mostly same venue.
    if (p > 0) {
      for (size_t k = 0; k < o.citations_per_paper; ++k) {
        size_t q;
        if (rng.NextFloat() >= o.noise) {
          // Pick an earlier paper of the same venue if one exists.
          const size_t venue_papers = p / o.num_venues;
          if (venue_papers == 0) continue;
          q = rng.NextUint(venue_papers) * o.num_venues + v;
          if (q >= p) continue;
        } else {
          q = rng.NextUint(p);
        }
        store->InsertIris(papers[p], DblpSchema::Cites(), papers[q]);
      }
    }
    if (o.include_literals) {
      store->Insert(Term::Iri(papers[p]),
                    Term::Iri(DblpSchema::Pred("title")),
                    Term::Literal("Paper " + std::to_string(p)));
      store->Insert(Term::Iri(papers[p]),
                    Term::Iri(DblpSchema::Pred("yearOfPublication")),
                    Term::IntLiteral(1990 + static_cast<int64_t>(p % 35)));
    }
  }

  // --- Task-irrelevant periphery ---
  // A topic taxonomy, editorial records and conference logistics: reachable
  // only via venues or >1 hop from papers/authors, so d1h1/d2h1 sampling
  // drops almost all of it. This is the structure that inflates full-KG
  // training in Figures 13-15.
  if (o.include_periphery) {
    const size_t n_topics =
        static_cast<size_t>(o.num_papers * o.periphery_scale * 0.4);
    const size_t n_editors =
        static_cast<size_t>(o.num_venues * 10 * o.periphery_scale);
    const size_t n_events =
        static_cast<size_t>(o.num_venues * 20 * o.periphery_scale);
    for (size_t t = 0; t < n_topics; ++t) {
      store->InsertIris(Iri("topic", t), type, DblpSchema::Class("Topic"));
      if (t > 0) {
        store->InsertIris(Iri("topic", t), DblpSchema::Pred("broaderTopic"),
                          Iri("topic", rng.NextUint(t)));
      }
      // Topics hang off venues, not papers.
      store->InsertIris(venues[t % o.num_venues],
                        DblpSchema::Pred("hasTopic"), Iri("topic", t));
    }
    for (size_t e = 0; e < n_editors; ++e) {
      store->InsertIris(Iri("editor", e), type, DblpSchema::Class("Editor"));
      store->InsertIris(Iri("editor", e), DblpSchema::Pred("editorOf"),
                        venues[e % o.num_venues]);
      store->InsertIris(Iri("editor", e), DblpSchema::Pred("memberOf"),
                        Iri("committee", e % 50));
    }
    for (size_t c = 0; c < 50; ++c)
      store->InsertIris(Iri("committee", c), type,
                        DblpSchema::Class("Committee"));
    for (size_t ev = 0; ev < n_events; ++ev) {
      store->InsertIris(Iri("event", ev), type, DblpSchema::Class("Event"));
      store->InsertIris(venues[ev % o.num_venues],
                        DblpSchema::Pred("hasEvent"), Iri("event", ev));
      store->InsertIris(Iri("event", ev), DblpSchema::Pred("heldIn"),
                        Iri("city", ev % 40));
    }
    for (size_t c = 0; c < 40; ++c)
      store->InsertIris(Iri("city", c), type, DblpSchema::Class("City"));
  }
  return Status::OK();
}

}  // namespace kgnet::workload
