#include "workload/yago_gen.h"

#include <string>
#include <vector>

#include "rdf/term.h"
#include "tensor/rng.h"

namespace kgnet::workload {

using rdf::Term;
using rdf::TripleStore;

namespace {

std::string Iri(const std::string& kind, size_t i) {
  return std::string(kYagoNs) + kind + "_" + std::to_string(i);
}

}  // namespace

Status GenerateYago(const YagoOptions& o, TripleStore* store) {
  if (o.num_places == 0 || o.num_countries == 0)
    return Status::InvalidArgument("YAGO generator requires non-zero sizes");
  // One batch: the store builds its permutation runs once, at the end.
  TripleStore::BulkLoad bulk(store);
  tensor::Rng rng(o.seed);
  const std::string type = std::string(rdf::kRdfType);

  // --- Countries ---
  std::vector<std::string> countries(o.num_countries);
  for (size_t c = 0; c < o.num_countries; ++c) {
    countries[c] = Iri("country", c);
    store->InsertIris(countries[c], type, YagoSchema::Country());
  }

  // --- Places: region = country; neighbours mostly same country ---
  std::vector<std::string> places(o.num_places);
  std::vector<size_t> place_country(o.num_places);
  for (size_t p = 0; p < o.num_places; ++p) {
    places[p] = Iri("place", p);
    place_country[p] = p % o.num_countries;
    store->InsertIris(places[p], type, YagoSchema::Place());
    store->InsertIris(places[p], YagoSchema::InCountry(),
                      countries[place_country[p]]);
    if (o.include_literals) {
      store->Insert(Term::Iri(places[p]),
                    Term::Iri(YagoSchema::Name("label")),
                    Term::Literal("Place " + std::to_string(p)));
      store->Insert(Term::Iri(places[p]),
                    Term::Iri(YagoSchema::Name("population")),
                    Term::IntLiteral(static_cast<int64_t>(
                        1000 + rng.NextUint(1000000))));
    }
  }
  for (size_t p = 0; p < o.num_places; ++p) {
    const size_t c = place_country[p];
    for (size_t k = 0; k < o.neighbors_per_place; ++k) {
      size_t q;
      if (rng.NextFloat() >= o.noise) {
        // Same-country neighbour: places are laid out round-robin, so peers
        // are congruent mod num_countries.
        const size_t peers = o.num_places / o.num_countries;
        if (peers <= 1) continue;
        q = rng.NextUint(peers) * o.num_countries + c;
        if (q >= o.num_places || q == p) continue;
      } else {
        q = rng.NextUint(o.num_places);
        if (q == p) continue;
      }
      store->InsertIris(places[p], YagoSchema::NeighborOf(), places[q]);
    }
  }

  // --- People: birth place weakly country-biased; residence uniform
  // (migration). People sit two hops from any place-to-place path, so
  // their edges are mostly task-irrelevant for the country task.
  for (size_t i = 0; i < o.num_people; ++i) {
    const std::string person = Iri("person", i);
    store->InsertIris(person, type, YagoSchema::Person());
    const size_t peers = std::max<size_t>(1, o.num_places / o.num_countries);
    size_t born;
    if (rng.NextFloat() < 0.3f) {
      const size_t c = i % o.num_countries;
      born = std::min(o.num_places - 1,
                      rng.NextUint(peers) * o.num_countries + c);
    } else {
      born = rng.NextUint(o.num_places);
    }
    store->InsertIris(person, YagoSchema::Name("birthPlace"), places[born]);
    if (rng.NextFloat() < 0.5f) {
      store->InsertIris(person, YagoSchema::Name("residence"),
                        places[rng.NextUint(o.num_places)]);
    }
  }

  // --- Organizations: multinational, headquarters uniform ---
  for (size_t i = 0; i < o.num_orgs; ++i) {
    const std::string org = Iri("org", i);
    store->InsertIris(org, type, YagoSchema::Organization());
    store->InsertIris(org, YagoSchema::Name("headquarters"),
                      places[rng.NextUint(o.num_places)]);
  }

  // --- Periphery: creative works, events, taxonomy (task-irrelevant) ---
  // YAGO4 is schema-rich (104 node types, 98 edge types in Table I); the
  // periphery spreads entities over many subtypes and predicates so the
  // mini KG keeps that shape.
  if (o.include_periphery) {
    static const char* kWorkTypes[] = {"Movie",    "Book",   "Song",
                                       "Painting", "Play",   "Sculpture",
                                       "VideoGame", "Album", "Poem",
                                       "TVSeries"};
    static const char* kWorkPreds[] = {"author", "director", "composer",
                                       "illustrator", "producer"};
    const size_t n_works =
        static_cast<size_t>(o.num_places * o.periphery_scale);
    for (size_t w = 0; w < n_works; ++w) {
      const std::string work = Iri("work", w);
      store->InsertIris(work, type, YagoSchema::Name(kWorkTypes[w % 10]));
      store->InsertIris(work, YagoSchema::Name(kWorkPreds[w % 5]),
                        Iri("person", w % std::max<size_t>(1, o.num_people)));
      if (w > 0 && rng.NextFloat() < 0.3f) {
        store->InsertIris(work, YagoSchema::Name("derivedFrom"),
                          Iri("work", rng.NextUint(w)));
      }
      if (o.include_literals) {
        store->Insert(Term::Iri(work), Term::Iri(YagoSchema::Name("title")),
                      Term::Literal("Work " + std::to_string(w)));
      }
    }
    static const char* kEventTypes[] = {"Festival",   "Election",
                                        "SportsEvent", "Conference",
                                        "Battle",      "Exhibition"};
    static const char* kEventPreds[] = {"participant", "winner",
                                        "organizer"};
    const size_t n_events =
        static_cast<size_t>(o.num_countries * 15 * o.periphery_scale);
    for (size_t e = 0; e < n_events; ++e) {
      const std::string event = Iri("event", e);
      store->InsertIris(event, type, YagoSchema::Name(kEventTypes[e % 6]));
      store->InsertIris(event, YagoSchema::Name(kEventPreds[e % 3]),
                        Iri("person", e % std::max<size_t>(1, o.num_people)));
    }
    // Taxonomies with no connection to geography: genres, occupations,
    // languages, awards.
    static const char* kTaxa[] = {"Genre", "Occupation", "Language",
                                  "Award", "AcademicDegree", "Instrument"};
    static const char* kTaxaPreds[] = {"subGenreOf",   "specializes",
                                       "dialectOf",    "succeededBy",
                                       "prerequisite", "derivedInstrument"};
    for (size_t taxon = 0; taxon < 6; ++taxon) {
      for (size_t g = 0; g < 25; ++g) {
        const std::string node =
            Iri(std::string(kTaxa[taxon]) + "_item", g);
        store->InsertIris(node, type, YagoSchema::Name(kTaxa[taxon]));
        if (g > 0)
          store->InsertIris(node, YagoSchema::Name(kTaxaPreds[taxon]),
                            Iri(std::string(kTaxa[taxon]) + "_item",
                                rng.NextUint(g)));
      }
    }
    // People link into the taxonomies (still task-irrelevant).
    for (size_t i = 0; i < o.num_people; ++i) {
      const std::string person = Iri("person", i);
      store->InsertIris(person, YagoSchema::Name("occupation"),
                        Iri("Occupation_item", rng.NextUint(25)));
      if (rng.NextFloat() < 0.4f)
        store->InsertIris(person, YagoSchema::Name("speaks"),
                          Iri("Language_item", rng.NextUint(25)));
      if (rng.NextFloat() < 0.2f)
        store->InsertIris(person, YagoSchema::Name("received"),
                          Iri("Award_item", rng.NextUint(25)));
    }
  }
  return Status::OK();
}

}  // namespace kgnet::workload
