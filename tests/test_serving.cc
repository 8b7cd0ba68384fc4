// Serving front-end tests (docs/SERVING.md), in four parts:
//
//  1. The loopback differential harness: ~100 seeded graph/query cases
//     where the server's response bytes must equal the locally built
//     response — same routing, same snapshot discipline, same
//     deterministic serialization (tests/serving_test_util.h).
//  2. Protocol hardening: malformed, truncated, oversized and hostile
//     frames, garbage JSON, wrong-typed fields, half-closed sockets,
//     slow writers and idle peers — the server must answer with a clean
//     error or drop the connection, and always keep serving others.
//  3. Strict env validation for the KGNET_SERVE_* knobs.
//  4. Batching/caching identity: the batched inference path and the
//     embedding-row cache return answers identical to the direct
//     unbatched calls — including identical error statuses — at 1, 2
//     and 4 pool threads.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/kgnet.h"
#include "tests/parallel_test_util.h"
#include "tests/serving_test_util.h"
#include "workload/dblp_gen.h"

namespace kgnet::serving {
namespace {

using core::KgNet;
using testing::GenerateServingCase;
using testing::LoadCase;
using testing::LocalExpectedResponse;
using testing::ScopedServer;
using testing::ServingCase;
using workload::DblpSchema;

// ------------------------------------------------- differential harness --

void RunServingSeeds(uint64_t first_seed, int count) {
  for (int i = 0; i < count; ++i) {
    const uint64_t seed = first_seed + static_cast<uint64_t>(i);
    tensor::Rng rng(seed);
    const ServingCase c = GenerateServingCase(&rng);

    KgNet kg;
    LoadCase(c, &kg.store());
    ServerOptions options;
    options.num_workers = 2;
    ScopedServer scope(&kg.service(), options);
    ASSERT_TRUE(scope.start_status().ok()) << scope.start_status();
    KgClient client;
    ASSERT_TRUE(scope.Connect(&client).ok());

    const double id = 1000 + static_cast<double>(i);
    // No writes happen between the local and the remote execution, so
    // the MVCC snapshots they open are identical — and therefore the
    // response bytes must be too.
    const std::string expected =
        LocalExpectedResponse(&kg.service(), id, c.sparql);
    auto raw = client.Call(BuildQueryRequest(id, c.sparql));
    ASSERT_TRUE(raw.ok()) << raw.status() << "\nseed=" << seed;
    ASSERT_EQ(*raw, expected)
        << "server response diverged from local execution\nseed=" << seed
        << "\n" << c.sparql;
  }
}

TEST(ServingDifferentialTest, SeededQueriesByteIdentical) {
  RunServingSeeds(100, 60);
}

TEST(ServingDifferentialTest, SeededQueriesByteIdenticalSecondBand) {
  RunServingSeeds(40000, 40);
}

TEST(ServingDifferentialTest, SnapshotKeysOnlyOnPlainReadPath) {
  KgNet kg;
  kg.store().InsertIris("n1", "p1", "n2");
  kg.store().InsertIris("n2", "p2", "n3");
  ScopedServer scope(&kg.service());
  ASSERT_TRUE(scope.start_status().ok()) << scope.start_status();
  KgClient client;
  ASSERT_TRUE(scope.Connect(&client).ok());

  // Plain read: concurrent snapshot path, epoch/delta attached.
  auto plain = client.Query("SELECT ?s WHERE { ?s <p1> ?o . }");
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_TRUE(plain->has_snapshot);
  EXPECT_GT(plain->epoch, 0u);

  // Variable predicate: potential SPARQL-ML, serialized service path —
  // no snapshot keys on the wire.
  auto ml = client.Query("SELECT ?s WHERE { ?s ?p <n3> . }");
  ASSERT_TRUE(ml.ok()) << ml.status();
  EXPECT_FALSE(ml->has_snapshot);

  // Both must still match the local oracle byte-for-byte.
  for (const char* q : {"SELECT ?s WHERE { ?s <p1> ?o . }",
                        "SELECT ?s WHERE { ?s ?p <n3> . }"}) {
    const std::string expected = LocalExpectedResponse(&kg.service(), 5, q);
    auto raw = client.Call(BuildQueryRequest(5, q));
    ASSERT_TRUE(raw.ok());
    EXPECT_EQ(*raw, expected) << q;
  }
}

TEST(ServingDifferentialTest, ParseErrorsByteIdentical) {
  KgNet kg;
  kg.store().InsertIris("n1", "p1", "n2");
  ScopedServer scope(&kg.service());
  ASSERT_TRUE(scope.start_status().ok()) << scope.start_status();
  KgClient client;
  ASSERT_TRUE(scope.Connect(&client).ok());
  const char* broken[] = {"SELECT WHERE {", "nonsense", "SELECT * WHERE"};
  for (const char* q : broken) {
    const std::string expected = LocalExpectedResponse(&kg.service(), 9, q);
    auto raw = client.Call(BuildQueryRequest(9, q));
    ASSERT_TRUE(raw.ok());
    EXPECT_EQ(*raw, expected) << q;
    EXPECT_NE(raw->find("\"ok\":false"), std::string::npos) << q;
  }
  // The connection survived every error response.
  EXPECT_TRUE(client.Ping().ok());
}

// A read whose literal says TrainGML is a read: it returns its row in
// process and over loopback, byte-identical to local execution.
TEST(ServingDifferentialTest, ReadMentioningTrainGmlReturnsItsRow) {
  KgNet kg;
  kg.store().Insert(rdf::Term::Iri("n1"), rdf::Term::Iri("p1"),
                    rdf::Term::Literal("TrainGML"));
  const char* q =
      "SELECT ?s WHERE { ?s ?p ?o . FILTER(?o = \"TrainGML\") } LIMIT 1";
  auto local = kg.service().Execute(q);
  ASSERT_TRUE(local.ok()) << local.status();
  ASSERT_EQ(local->NumRows(), 1u);
  EXPECT_EQ(local->rows[0][0], rdf::Term::Iri("n1"));

  ScopedServer scope(&kg.service());
  ASSERT_TRUE(scope.start_status().ok()) << scope.start_status();
  KgClient client;
  ASSERT_TRUE(scope.Connect(&client).ok());
  const std::string expected = LocalExpectedResponse(&kg.service(), 3, q);
  auto raw = client.Call(BuildQueryRequest(3, q));
  ASSERT_TRUE(raw.ok()) << raw.status();
  EXPECT_EQ(*raw, expected);
  EXPECT_NE(raw->find("\"ok\":true"), std::string::npos) << *raw;
}

// Routing reads the parse: a function call (every call in the grammar is a
// UDF) in select items, FILTERs, sub-selects, UNION or OPTIONAL groups
// takes the service path; a literal or IRI that only mentions sql:UDFS
// is a plain read. Either way the server's bytes equal local execution.
TEST(ServingDifferentialTest, UdfCallsRouteOnTheParse) {
  KgNet kg;
  kg.store().InsertIris("n1", "p1", "n2");
  kg.store().Insert(rdf::Term::Iri("n1"), rdf::Term::Iri("p2"),
                    rdf::Term::Literal("sql:UDFS.getNodeClass"));
  struct Case {
    const char* query;
    bool service;
  };
  const Case cases[] = {
      {"SELECT ?s WHERE { ?s <p2> \"sql:UDFS.getNodeClass\" . }", false},
      {"SELECT ?s WHERE { ?s <sql:UDFS.getNodeClass> ?o . }", false},
      {"SELECT ?s sql:UDFS.getNodeClass(<m>, ?s) AS ?c WHERE { ?s <p1> ?o . }",
       true},
      {"SELECT ?s WHERE { ?s <p1> ?o . "
       "FILTER(sql:UDFS.getNodeClass(<m>, ?s) = <n2>) }",
       true},
      {"SELECT ?s WHERE { ?s <p1> ?o . "
       "{ SELECT sql:UDFS.getNodeClassDict(<m>) AS ?d WHERE { } } }",
       true},
      {"SELECT ?s WHERE { { ?s <p1> ?o . } UNION { ?s <p2> ?o . "
       "FILTER(sql:UDFS.getNodeClass(<m>, ?s) = <n2>) } }",
       true},
      {"SELECT ?s WHERE { ?s <p1> ?o . OPTIONAL { ?s <p2> ?l . "
       "FILTER(sql:UDFS.getNodeClass(<m>, ?s) = <n2>) } }",
       true},
  };
  ScopedServer scope(&kg.service());
  ASSERT_TRUE(scope.start_status().ok()) << scope.start_status();
  KgClient client;
  ASSERT_TRUE(scope.Connect(&client).ok());
  for (const Case& c : cases) {
    auto parsed = sparql::ParseQuery(c.query);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << c.query;
    EXPECT_EQ(KgServer::RoutesToService(*parsed, c.query), c.service)
        << c.query;
    const std::string expected =
        LocalExpectedResponse(&kg.service(), 4, c.query);
    auto raw = client.Call(BuildQueryRequest(4, c.query));
    ASSERT_TRUE(raw.ok()) << raw.status();
    EXPECT_EQ(*raw, expected) << c.query;
  }
}

TEST(ServingDifferentialTest, UpdatesRouteToServiceAndApply) {
  KgNet kg;
  kg.store().InsertIris("n1", "p1", "n2");
  ScopedServer scope(&kg.service());
  ASSERT_TRUE(scope.start_status().ok()) << scope.start_status();
  KgClient client;
  ASSERT_TRUE(scope.Connect(&client).ok());
  auto ins = client.Query("INSERT DATA { <n9> <p1> <n1> . }");
  ASSERT_TRUE(ins.ok()) << ins.status();
  EXPECT_FALSE(ins->has_snapshot);  // serialized single-writer path
  EXPECT_EQ(ins->result.num_inserted, 1u);
  auto readback = client.Query("SELECT ?s WHERE { ?s <p1> <n1> . }");
  ASSERT_TRUE(readback.ok()) << readback.status();
  EXPECT_EQ(readback->result.NumRows(), 1u);
}

// ---------------------------------------------------------- hardening --

int RawConnect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// The one invariant every hardening case ends with: a fresh client can
/// still connect, ping and query. Whatever the hostile peer did, the
/// server must keep serving everyone else.
void ExpectStillServing(ScopedServer* scope) {
  KgClient probe;
  ASSERT_TRUE(scope->Connect(&probe).ok());
  EXPECT_TRUE(probe.Ping().ok());
  auto r = probe.Query("SELECT ?s WHERE { ?s <p1> ?o . }");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->result.NumRows(), 1u);
}

class ServingHardeningTest : public ::testing::Test {
 protected:
  void Seed(KgNet* kg) { kg->store().InsertIris("n1", "p1", "n2"); }
};

TEST_F(ServingHardeningTest, GarbageJsonGetsErrorKeepsConnection) {
  KgNet kg;
  Seed(&kg);
  ScopedServer scope(&kg.service());
  ASSERT_TRUE(scope.start_status().ok());
  KgClient client;
  ASSERT_TRUE(scope.Connect(&client).ok());
  const char* garbage[] = {"this is not json", "{\"op\":", "[1,2,3]",
                           "null", "{}", "\"query\""};
  for (const char* body : garbage) {
    auto raw = client.Call(body);
    ASSERT_TRUE(raw.ok()) << body;  // transport ok; payload is an error
    EXPECT_NE(raw->find("\"ok\":false"), std::string::npos) << body;
    EXPECT_TRUE(client.Ping().ok()) << body;  // connection survived
  }
  ExpectStillServing(&scope);
}

TEST_F(ServingHardeningTest, WrongTypedFieldsRejected) {
  KgNet kg;
  Seed(&kg);
  ScopedServer scope(&kg.service());
  ASSERT_TRUE(scope.start_status().ok());
  KgClient client;
  ASSERT_TRUE(scope.Connect(&client).ok());
  const char* bad[] = {
      "{\"op\":42}",
      "{\"op\":\"query\"}",
      "{\"op\":\"query\",\"query\":7}",
      "{\"op\":\"query\",\"query\":[\"SELECT\"]}",
      "{\"op\":\"infer_class\",\"model\":true,\"node\":\"n\"}",
      "{\"op\":\"infer_links\",\"model\":\"m\",\"node\":\"n\",\"k\":\"x\"}",
      "{\"op\":\"infer_links\",\"model\":\"m\",\"node\":\"n\",\"k\":-1}",
      "{\"op\":\"no_such_op\"}",
  };
  for (const char* body : bad) {
    auto raw = client.Call(body);
    ASSERT_TRUE(raw.ok()) << body;
    EXPECT_NE(raw->find("\"ok\":false"), std::string::npos) << body;
    EXPECT_NE(raw->find("InvalidArgument"), std::string::npos) << body;
  }
  EXPECT_TRUE(client.Ping().ok());
  ExpectStillServing(&scope);
}

TEST_F(ServingHardeningTest, TruncatedFramesAndAbruptCloses) {
  KgNet kg;
  Seed(&kg);
  ScopedServer scope(&kg.service());
  ASSERT_TRUE(scope.start_status().ok());

  // Half a length prefix, then close.
  int fd = RawConnect(scope.port());
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::send(fd, "\x00\x00", 2, 0), 2);
  ::close(fd);

  // A full prefix promising 100 bytes, 10 delivered, then close.
  KgClient client;
  ASSERT_TRUE(scope.Connect(&client).ok());
  const std::string frame = EncodeFrame(std::string(100, 'x'));
  ASSERT_TRUE(client.SendRaw(frame.data(), 14).ok());
  client.Close();

  // Twenty drive-by connects, some with stray bytes.
  for (int i = 0; i < 20; ++i) {
    const int f = RawConnect(scope.port());
    ASSERT_GE(f, 0);
    if (i % 3 == 0) ::send(f, "\xff", 1, 0);
    ::close(f);
  }
  ExpectStillServing(&scope);
}

TEST_F(ServingHardeningTest, OverCapLengthPrefixAnsweredThenDropped) {
  KgNet kg;
  Seed(&kg);
  ServerOptions options;
  options.max_frame_bytes = 1024;
  ScopedServer scope(&kg.service(), options);
  ASSERT_TRUE(scope.start_status().ok());
  for (const uint32_t hostile : {uint32_t{4096}, uint32_t{0xffffffff}}) {
    KgClient client;
    ASSERT_TRUE(scope.Connect(&client).ok());
    client.set_timeout_ms(2000);
    const unsigned char prefix[4] = {
        static_cast<unsigned char>(hostile >> 24),
        static_cast<unsigned char>(hostile >> 16),
        static_cast<unsigned char>(hostile >> 8),
        static_cast<unsigned char>(hostile)};
    ASSERT_TRUE(client.SendRaw(prefix, 4).ok());
    // The server explains, then drops the unresynchronizable stream.
    auto explain = client.ReadResponse();
    ASSERT_TRUE(explain.ok()) << explain.status();
    EXPECT_NE(explain->find("InvalidArgument"), std::string::npos);
    auto after = client.ReadResponse();
    EXPECT_FALSE(after.ok());
  }
  EXPECT_GE(scope.server().stats().malformed_frames, 2u);
  ExpectStillServing(&scope);
}

TEST_F(ServingHardeningTest, EmptyFrameBodyIsAnErrorNotACrash) {
  KgNet kg;
  Seed(&kg);
  ScopedServer scope(&kg.service());
  ASSERT_TRUE(scope.start_status().ok());
  KgClient client;
  ASSERT_TRUE(scope.Connect(&client).ok());
  const std::string frame = EncodeFrame("");
  ASSERT_TRUE(client.SendRaw(frame.data(), frame.size()).ok());
  auto resp = client.ReadResponse();
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_NE(resp->find("\"ok\":false"), std::string::npos);
  EXPECT_TRUE(client.Ping().ok());
  ExpectStillServing(&scope);
}

TEST_F(ServingHardeningTest, HalfClosedSocketReleasesWorker) {
  KgNet kg;
  Seed(&kg);
  ServerOptions options;
  options.num_workers = 1;  // a leaked worker would hang ExpectStillServing
  ScopedServer scope(&kg.service(), options);
  ASSERT_TRUE(scope.start_status().ok());
  const int fd = RawConnect(scope.port());
  ASSERT_GE(fd, 0);
  ::shutdown(fd, SHUT_WR);  // half-close: we write nothing, keep reading
  char buf[16];
  const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);  // server closes: EOF
  EXPECT_LE(n, 0);
  ::close(fd);
  ExpectStillServing(&scope);
}

TEST_F(ServingHardeningTest, SlowWriterIsServedWhileMakingProgress) {
  KgNet kg;
  Seed(&kg);
  ServerOptions options;
  options.idle_timeout_ms = 400;
  ScopedServer scope(&kg.service(), options);
  ASSERT_TRUE(scope.start_status().ok());
  KgClient client;
  ASSERT_TRUE(scope.Connect(&client).ok());
  // Dribble a ping frame one byte at a time, total time > idle timeout;
  // every byte is progress, so the idle clock keeps resetting.
  const std::string frame = EncodeFrame(BuildPingRequest(3));
  for (char byte : frame) {
    ASSERT_TRUE(client.SendRaw(&byte, 1).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  auto resp = client.ReadResponse();
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_NE(resp->find("\"ok\":true"), std::string::npos);
}

TEST_F(ServingHardeningTest, IdlePeerIsDroppedNotLeaked) {
  KgNet kg;
  Seed(&kg);
  ServerOptions options;
  options.num_workers = 1;
  options.idle_timeout_ms = 150;
  ScopedServer scope(&kg.service(), options);
  ASSERT_TRUE(scope.start_status().ok());
  KgClient idle;
  ASSERT_TRUE(scope.Connect(&idle).ok());
  idle.set_timeout_ms(2000);
  // Send nothing; the server must hang up on us, freeing its one worker.
  auto resp = idle.ReadResponse();
  EXPECT_FALSE(resp.ok());
  ExpectStillServing(&scope);
}

TEST_F(ServingHardeningTest, QueueFullAnsweredWithOverload) {
  KgNet kg;
  Seed(&kg);
  ServerOptions options;
  options.num_workers = 1;
  options.queue_depth = 1;
  options.request_deadline_ms = 10000;
  ScopedServer scope(&kg.service(), options);
  ASSERT_TRUE(scope.start_status().ok());
  // Pin the single worker with a live session...
  KgClient pinned;
  ASSERT_TRUE(scope.Connect(&pinned).ok());
  ASSERT_TRUE(pinned.Ping().ok());
  // ...fill the one queue slot, then the next connection must be
  // answered with ResourceExhausted immediately.
  KgClient queued;
  ASSERT_TRUE(scope.Connect(&queued).ok());
  KgClient rejected;
  ASSERT_TRUE(scope.Connect(&rejected).ok());
  rejected.set_timeout_ms(3000);
  auto resp = rejected.ReadResponse();
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_NE(resp->find("ResourceExhausted"), std::string::npos);
  EXPECT_GE(scope.server().stats().overload_rejects, 1u);
  // Releasing the pinned session lets the queued connection be served.
  pinned.Close();
  EXPECT_TRUE(queued.Ping().ok());
}

// ------------------------------------------------------ env validation --

TEST(ServingEnvTest, ApplyServerEnvKeepsBaseOnGarbage) {
  setenv("KGNET_SERVE_PORT", "notaport", 1);
  setenv("KGNET_SERVE_WORKERS", "-3", 1);
  setenv("KGNET_SERVE_QUEUE_DEPTH", "1e9", 1);
  ServerOptions base;
  base.port = 7000;
  base.num_workers = 6;
  base.queue_depth = 48;
  const ServerOptions applied = ApplyServerEnv(base);
  EXPECT_EQ(applied.port, 7000);
  EXPECT_EQ(applied.num_workers, 6);
  EXPECT_EQ(applied.queue_depth, 48);

  setenv("KGNET_SERVE_PORT", "7777", 1);
  setenv("KGNET_SERVE_WORKERS", "2", 1);
  setenv("KGNET_SERVE_QUEUE_DEPTH", "9", 1);
  const ServerOptions valid = ApplyServerEnv(base);
  EXPECT_EQ(valid.port, 7777);
  EXPECT_EQ(valid.num_workers, 2);
  EXPECT_EQ(valid.queue_depth, 9);

  unsetenv("KGNET_SERVE_PORT");
  unsetenv("KGNET_SERVE_WORKERS");
  unsetenv("KGNET_SERVE_QUEUE_DEPTH");
}

// --------------------------------------- batching / caching identity --

/// Trains the tiny NC + LP models once per binary (the same fast specs
/// as test_inference_manager).
struct MlSetup {
  KgNet kg;
  std::string nc_uri, lp_uri;
  std::vector<std::string> papers, people;
  bool ok = false;

  MlSetup() {
    workload::DblpOptions opts;
    opts.num_papers = 80;
    opts.num_authors = 40;
    opts.num_venues = 4;
    opts.num_affiliations = 8;
    opts.include_periphery = false;
    if (!workload::GenerateDblp(opts, &kg.store()).ok()) return;

    core::TrainTaskSpec nc;
    nc.task = gml::TaskType::kNodeClassification;
    nc.target_type_iri = DblpSchema::Publication();
    nc.label_predicate_iri = DblpSchema::PublishedIn();
    nc.config.epochs = 3;
    nc.config.hidden_dim = 8;
    nc.config.embed_dim = 8;
    nc.model_name = "serving-nc";
    auto nc_out = kg.TrainTask(nc);
    if (!nc_out.ok()) return;
    nc_uri = nc_out->model_uri;

    core::TrainTaskSpec lp;
    lp.task = gml::TaskType::kLinkPrediction;
    lp.target_type_iri = DblpSchema::Person();
    lp.destination_type_iri = DblpSchema::Affiliation();
    lp.task_predicate_iri = DblpSchema::PrimaryAffiliation();
    lp.config.epochs = 3;
    lp.config.embed_dim = 8;
    lp.model_name = "serving-lp";
    auto lp_out = kg.TrainTask(lp);
    if (!lp_out.ok()) return;
    lp_uri = lp_out->model_uri;

    for (int i = 0; i < 16; ++i)
      papers.push_back("https://dblp.org/rdf/publication/" +
                       std::to_string(i));
    papers.push_back("https://dblp.org/rdf/publication/no-such-node");
    for (int i = 0; i < 16; ++i)
      people.push_back("https://dblp.org/rdf/person/" + std::to_string(i));
    people.push_back("https://dblp.org/rdf/person/no-such-node");
    ok = true;
  }
};

MlSetup* GetMlSetup() {
  static MlSetup* setup = new MlSetup();
  return setup;
}

/// Outcome of one inference request, comparable between the direct
/// in-process call and the remote batched/cached call: the value on
/// success, the verbatim Status string otherwise.
std::string Outcome(const Result<std::string>& r) {
  return r.ok() ? "v:" + *r : "e:" + r.status().ToString();
}
std::string Outcome(const Result<std::vector<std::string>>& r) {
  if (!r.ok()) return "e:" + r.status().ToString();
  std::string out = "v:";
  for (const std::string& v : *r) out += v + "|";
  return out;
}

TEST(ServingBatchIdentityTest, BatchedClassIdenticalAcrossThreadCounts) {
  MlSetup* ml = GetMlSetup();
  ASSERT_TRUE(ml->ok);
  core::InferenceManager& im = ml->kg.service().inference_manager();
  std::vector<std::string> want;
  for (const std::string& n : ml->papers)
    want.push_back(Outcome(im.GetNodeClass(ml->nc_uri, n)));

  kgnet::testing::ThreadCountGuard thread_guard;
  for (int threads : {1, 2, 4}) {
    common::ThreadPool::SetNumThreads(threads);
    for (int window_us : {0, 1500}) {  // unbatched passthrough and batched
      ServerOptions options;
      options.num_workers = 4;
      options.batcher.window_us = window_us;
      options.batcher.max_batch = 8;
      ScopedServer scope(&ml->kg.service(), options);
      ASSERT_TRUE(scope.start_status().ok());
      std::vector<std::string> got(ml->papers.size());
      std::vector<std::thread> clients;
      for (int c = 0; c < 4; ++c) {
        clients.emplace_back([&, c] {
          KgClient client;
          if (!scope.Connect(&client).ok()) return;
          for (size_t i = c; i < ml->papers.size(); i += 4)
            got[i] = Outcome(client.NodeClass(ml->nc_uri, ml->papers[i]));
        });
      }
      for (auto& t : clients) t.join();
      EXPECT_EQ(got, want)
          << threads << " threads, window " << window_us << "us";
    }
  }
}

TEST(ServingBatchIdentityTest, BatchedLinksIdenticalAcrossThreadCounts) {
  MlSetup* ml = GetMlSetup();
  ASSERT_TRUE(ml->ok);
  core::InferenceManager& im = ml->kg.service().inference_manager();
  std::vector<std::string> want;
  for (const std::string& n : ml->people)
    want.push_back(Outcome(im.GetTopKLinks(ml->lp_uri, n, 3)));

  kgnet::testing::ThreadCountGuard thread_guard;
  for (int threads : {1, 2, 4}) {
    common::ThreadPool::SetNumThreads(threads);
    ServerOptions options;
    options.num_workers = 4;
    options.batcher.window_us = 1500;
    options.batcher.max_batch = 8;
    ScopedServer scope(&ml->kg.service(), options);
    ASSERT_TRUE(scope.start_status().ok());
    std::vector<std::string> got(ml->people.size());
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
      clients.emplace_back([&, c] {
        KgClient client;
        if (!scope.Connect(&client).ok()) return;
        for (size_t i = c; i < ml->people.size(); i += 4)
          got[i] = Outcome(client.TopKLinks(ml->lp_uri, ml->people[i], 3));
      });
    }
    for (auto& t : clients) t.join();
    EXPECT_EQ(got, want) << threads << " threads";
  }
}

TEST(ServingBatchIdentityTest, CachedSimilarIdenticalAcrossThreadCounts) {
  MlSetup* ml = GetMlSetup();
  ASSERT_TRUE(ml->ok);
  core::InferenceManager& im = ml->kg.service().inference_manager();
  std::vector<std::string> want;
  for (const std::string& n : ml->people)
    want.push_back(Outcome(im.GetSimilarEntities(ml->lp_uri, n, 3)));

  kgnet::testing::ThreadCountGuard thread_guard;
  for (int threads : {1, 2, 4}) {
    common::ThreadPool::SetNumThreads(threads);
    ServerOptions options;
    options.num_workers = 2;
    options.embed_cache_rows = 8;  // smaller than the node set: evictions
    ScopedServer scope(&ml->kg.service(), options);
    ASSERT_TRUE(scope.start_status().ok());
    KgClient client;
    ASSERT_TRUE(scope.Connect(&client).ok());
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<std::string> got;
      for (const std::string& n : ml->people)
        got.push_back(Outcome(client.SimilarEntities(ml->lp_uri, n, 3)));
      EXPECT_EQ(got, want) << "pass " << pass << ", " << threads
                           << " threads";
    }
    EXPECT_GT(scope.server().embed_cache().hits() +
                  scope.server().embed_cache().misses(),
              0u);
  }
}

TEST(ServingBatchIdentityTest, BatcherCoalescesUnderConcurrency) {
  MlSetup* ml = GetMlSetup();
  ASSERT_TRUE(ml->ok);
  core::InferenceManager& im = ml->kg.service().inference_manager();
  ServerOptions options;
  options.num_workers = 4;
  options.batcher.window_us = 5000;
  options.batcher.max_batch = 4;
  ScopedServer scope(&ml->kg.service(), options);
  ASSERT_TRUE(scope.start_status().ok());
  im.ResetCounters();
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      KgClient client;
      if (!scope.Connect(&client).ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < 8; ++i) {
        auto r = client.NodeClass(ml->nc_uri,
                                  ml->papers[(c * 8 + i) % 16]);
        if (!r.ok()) ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  // 32 requests; how much coalescing happens is timing-dependent, but
  // the batched path can never make MORE model calls than requests, and
  // every request went through the batcher.
  EXPECT_LE(im.http_calls(), 32u);
  EXPECT_GE(scope.server().batcher().batched_calls(), 1u);
}

}  // namespace
}  // namespace kgnet::serving
