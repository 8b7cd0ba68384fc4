// Serving concurrency soak: N clients hammer a KgServer over loopback
// while a writer thread mutates (and compacts) the backing TripleStore.
// What must hold, under TSan as much as under the default build
// (the CI TSan job re-runs this suite):
//
//   - snapshot isolation at the wire: responses never observe a torn
//     mutation batch (the batch-marker invariant below);
//   - per-connection snapshot epochs are monotonically non-decreasing;
//   - concurrent batched SPARQL-ML inference against a frozen model
//     returns bitwise-stable answers while the store churns, and while
//     other models are trained and deleted over the wire (a deleted
//     model's verbs answer NotFound);
//   - overloaded and disconnecting clients never wedge the server.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/kgnet.h"
#include "tests/serving_test_util.h"
#include "workload/dblp_gen.h"

namespace kgnet::serving {
namespace {

using core::KgNet;
using rdf::Term;
using testing::ScopedServer;
using workload::DblpSchema;

constexpr int kItemsPerBatch = 5;

std::string BatchValue(int round) { return "v" + std::to_string(round); }
std::string BatchItem(int round, int j) {
  return "s" + std::to_string(round) + "_" + std::to_string(j);
}

/// The writer's protocol, mirrored by the readers' invariant: each round
/// inserts kItemsPerBatch items under <batch> then a <marker> row LAST;
/// teardown erases the marker FIRST, then the items. So in any snapshot
/// a visible marker for round r implies all kItemsPerBatch items of
/// round r are visible too.
void WriterRounds(KgNet* kg, const std::atomic<bool>* stop, int* rounds) {
  rdf::TripleStore& store = kg->store();
  int r = 0;
  while (!stop->load(std::memory_order_relaxed)) {
    for (int j = 0; j < kItemsPerBatch; ++j)
      store.Insert(Term::Iri(BatchItem(r, j)), Term::Iri("batch"),
                   Term::Iri(BatchValue(r)));
    store.Insert(Term::Iri("marker"), Term::Iri("batch"),
                 Term::Iri(BatchValue(r)));

    if (r >= 3) {
      // Retire round r-3: marker first, then its items.
      const int old = r - 3;
      auto erase = [&](const std::string& s, const std::string& o) {
        const rdf::Triple t(store.dict().Find(Term::Iri(s)),
                            store.dict().Find(Term::Iri("batch")),
                            store.dict().Find(Term::Iri(o)));
        store.Erase(t);
      };
      erase("marker", BatchValue(old));
      for (int j = 0; j < kItemsPerBatch; ++j)
        erase(BatchItem(old, j), BatchValue(old));
    }
    if (r % 7 == 3) store.Compact();  // churn the generation layer too
    ++r;
  }
  *rounds = r;
}

/// The small DBLP KG the inference cases train on.
void GenerateSmallDblp(KgNet* kg) {
  workload::DblpOptions opts;
  opts.num_papers = 80;
  opts.num_authors = 40;
  opts.num_venues = 4;
  opts.num_affiliations = 8;
  opts.include_periphery = false;
  ASSERT_TRUE(workload::GenerateDblp(opts, &kg->store()).ok());
}

/// A cheap paper-venue classifier named `name`.
core::TrainTaskSpec SmallNcSpec(const std::string& name) {
  core::TrainTaskSpec nc;
  nc.task = gml::TaskType::kNodeClassification;
  nc.target_type_iri = DblpSchema::Publication();
  nc.label_predicate_iri = DblpSchema::PublishedIn();
  nc.config.epochs = 3;
  nc.config.hidden_dim = 8;
  nc.config.embed_dim = 8;
  nc.model_name = name;
  return nc;
}

std::vector<std::string> Papers(int n) {
  std::vector<std::string> nodes;
  for (int i = 0; i < n; ++i)
    nodes.push_back("https://dblp.org/rdf/publication/" + std::to_string(i));
  return nodes;
}

TEST(ServingStressTest, SnapshotIsolationUnderConcurrentMutation) {
  KgNet kg;
  kg.store().InsertIris("warm", "batch", "v-warm");  // non-empty store
  ServerOptions options;
  options.num_workers = 4;
  ScopedServer scope(&kg.service(), options);
  ASSERT_TRUE(scope.start_status().ok()) << scope.start_status();

  std::atomic<bool> stop{false};
  int writer_rounds = 0;
  std::thread writer(
      [&] { WriterRounds(&kg, &stop, &writer_rounds); });

  constexpr int kReaders = 4;
  constexpr int kQueriesPerReader = 60;
  std::atomic<int> violations{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int c = 0; c < kReaders; ++c) {
    readers.emplace_back([&] {
      KgClient client;
      if (!scope.Connect(&client).ok()) {
        ++failures;
        return;
      }
      uint64_t last_epoch = 0;
      for (int q = 0; q < kQueriesPerReader; ++q) {
        auto resp = client.Query("SELECT ?s ?o WHERE { ?s <batch> ?o . }");
        if (!resp.ok()) {
          ++failures;
          continue;
        }
        // Plain reads always run on the concurrent snapshot path, and a
        // connection's snapshots never go back in time.
        if (!resp->has_snapshot || resp->epoch < last_epoch) ++violations;
        last_epoch = resp->epoch;

        // Batch-marker invariant: a visible marker for a round means the
        // snapshot saw the complete batch of that round.
        std::map<std::string, int> items;
        std::map<std::string, bool> markers;
        for (const auto& row : resp->result.rows) {
          if (row.size() != 2 || !row[0].is_iri() || !row[1].is_iri()) {
            ++violations;
            continue;
          }
          if (row[0].lexical == "marker")
            markers[row[1].lexical] = true;
          else if (row[0].lexical != "warm")
            ++items[row[1].lexical];
        }
        for (const auto& [value, present] : markers)
          if (present && items[value] != kItemsPerBatch) ++violations;
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(writer_rounds, 3) << "writer barely ran; soak proved nothing";
  const KgServer::Stats stats = scope.server().stats();
  EXPECT_GE(stats.requests_served,
            static_cast<uint64_t>(kReaders * kQueriesPerReader));
}

TEST(ServingStressTest, InferenceStableWhileStoreChurns) {
  KgNet kg;
  GenerateSmallDblp(&kg);
  auto trained = kg.TrainTask(SmallNcSpec("stress-nc"));
  ASSERT_TRUE(trained.ok()) << trained.status();
  const std::string model_uri = trained->model_uri;

  const std::vector<std::string> nodes = Papers(12);
  // Ground truth from the frozen model, before any churn.
  std::vector<std::string> want;
  for (const std::string& n : nodes) {
    auto r = kg.service().inference_manager().GetNodeClass(model_uri, n);
    ASSERT_TRUE(r.ok()) << r.status();
    want.push_back(*r);
  }

  ServerOptions options;
  options.num_workers = 4;
  options.batcher.window_us = 1000;
  options.batcher.max_batch = 6;
  ScopedServer scope(&kg.service(), options);
  ASSERT_TRUE(scope.start_status().ok());

  std::atomic<bool> stop{false};
  int writer_rounds = 0;
  std::thread writer(
      [&] { WriterRounds(&kg, &stop, &writer_rounds); });

  constexpr int kClients = 4;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      KgClient client;
      if (!scope.Connect(&client).ok()) {
        ++failures;
        return;
      }
      for (int q = 0; q < 40; ++q) {
        const size_t i = (c + q) % nodes.size();
        auto r = client.NodeClass(model_uri, nodes[i]);
        if (!r.ok())
          ++failures;
        else if (*r != want[i])
          ++mismatches;
        // Interleave a plain read so the snapshot and inference paths
        // contend inside the same connections' worker threads.
        if (q % 5 == 0 &&
            !client.Query("SELECT ?s WHERE { ?s <batch> ?o . }").ok())
          ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0)
      << "batched inference answers drifted under store churn";
  EXPECT_GT(writer_rounds, 0);
}

// Inference verbs race model registration: four clients ask a fixed model
// while a fifth trains other models with TrainGML and drops each with a
// kgnet: DELETE, all over the wire.
TEST(ServingStressTest, InferenceStableWhileModelsRegisterAndDelete) {
  KgNet kg;
  GenerateSmallDblp(&kg);
  auto trained = kg.TrainTask(SmallNcSpec("fixed"));
  ASSERT_TRUE(trained.ok()) << trained.status();
  const std::string fixed_uri = trained->model_uri;
  core::InferenceManager& local = kg.service().inference_manager();
  const std::vector<std::string> nodes = Papers(12);
  std::vector<std::string> want;
  for (const std::string& n : nodes) {
    auto r = local.GetNodeClass(fixed_uri, n);
    ASSERT_TRUE(r.ok()) << r.status();
    want.push_back(*r);
  }

  ServerOptions options;
  options.num_workers = 6;
  ScopedServer scope(&kg.service(), options);
  ASSERT_TRUE(scope.start_status().ok());

  std::atomic<bool> churned{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      KgClient client;
      if (!scope.Connect(&client).ok()) {
        ++failures;
        return;
      }
      for (int q = 0; q < 20 || !churned.load(); ++q) {
        const size_t i = (c + q) % nodes.size();
        auto r = client.NodeClass(fixed_uri, nodes[i]);
        if (!r.ok())
          ++failures;
        else if (*r != want[i])
          ++mismatches;
      }
    });
  }

  // The churn client; a failed check still lets the clients finish.
  const std::string prefixes =
      "PREFIX dblp: <https://dblp.org/rdf/> "
      "PREFIX kgnet: <https://www.kgnet.com/> ";
  KgClient churn;
  EXPECT_TRUE(scope.Connect(&churn).ok());
  for (int round = 0; round < 4; ++round) {
    auto train = churn.Query(
        prefixes +
        "INSERT DATA { kgnet:job kgnet:request \"kgnet.TrainGML({Name: "
        "'churn', GML-Task: {TaskType: kgnet:NodeClassifier, TargetNode: "
        "dblp:Publication, NodeLabel: dblp:publishedIn}, Hyperparameters: "
        "{Epochs: 2, HiddenDim: 8, EmbedDim: 8}})\" . }");
    if (!train.ok() || train->result.rows.empty()) {
      ADD_FAILURE() << "TrainGML: " << train.status();
      break;
    }
    const std::string uri = train->result.rows[0][0].lexical;
    EXPECT_NE(uri, fixed_uri);
    for (const std::string& n : nodes) {
      auto wire = churn.NodeClass(uri, n);
      auto in_process = local.GetNodeClass(uri, n);
      EXPECT_TRUE(wire.ok() && in_process.ok()) << uri << " " << n;
      if (wire.ok() && in_process.ok()) {
        EXPECT_EQ(*wire, *in_process) << n;
      }
    }
    auto del = churn.Query(prefixes +
                           "DELETE {?m ?p ?o} WHERE { ?m a "
                           "kgnet:NodeClassifier . FILTER(?m = <" +
                           uri + ">) }");
    EXPECT_TRUE(del.ok()) << del.status();
    if (del.ok()) {
      EXPECT_EQ(del->result.num_deleted, 1u);
    }
    EXPECT_EQ(churn.NodeClass(uri, nodes[0]).status().code(),
              StatusCode::kNotFound);
    EXPECT_EQ(local.GetNodeClass(uri, nodes[0]).status().code(),
              StatusCode::kNotFound);
  }
  churned.store(true);
  for (auto& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0)
      << "a fixed model's answers drifted while others came and went";
  EXPECT_EQ(kg.service().kgmeta().ListModelUris(),
            std::vector<std::string>{fixed_uri});
}

TEST(ServingStressTest, ChaoticClientsNeverWedgeTheServer) {
  KgNet kg;
  kg.store().InsertIris("n1", "p1", "n2");
  ServerOptions options;
  options.num_workers = 2;
  options.queue_depth = 4;
  options.idle_timeout_ms = 300;
  ScopedServer scope(&kg.service(), options);
  ASSERT_TRUE(scope.start_status().ok());

  std::atomic<bool> stop{false};
  int writer_rounds = 0;
  std::thread writer(
      [&] { WriterRounds(&kg, &stop, &writer_rounds); });

  // Chaos: connect, occasionally send garbage or half a frame, drop.
  std::vector<std::thread> chaos;
  for (int c = 0; c < 3; ++c) {
    chaos.emplace_back([&, c] {
      for (int i = 0; i < 25; ++i) {
        KgClient client;
        if (!scope.Connect(&client).ok()) continue;
        switch ((c + i) % 4) {
          case 0:
            client.Ping();
            break;
          case 1:
            client.Call("garbage!");
            break;
          case 2: {
            const char half[3] = {0, 0, 7};  // prefix fragment, then drop
            client.SendRaw(half, 3);
            break;
          }
          case 3:
            client.Query("SELECT ?s WHERE { ?s <p1> ?o . }");
            break;
        }
      }
    });
  }
  for (auto& t : chaos) t.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  // After the dust settles the server still serves a clean session.
  KgClient probe;
  ASSERT_TRUE(scope.Connect(&probe).ok());
  EXPECT_TRUE(probe.Ping().ok());
  auto r = probe.Query("SELECT ?s WHERE { ?s <p1> ?o . }");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->result.NumRows(), 1u);
}

}  // namespace
}  // namespace kgnet::serving
