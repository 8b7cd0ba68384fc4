// Serving front-end benchmark: loopback throughput/latency of
// kgnet_serve's protocol, the call-count reduction from inference
// batching, the embedding-row cache, and admission control under
// overload. Results go to BENCH_serving.json in the working directory.
//
// Identity claims (batched == unbatched, cached == uncached) are checked
// unconditionally; coalescing-ratio bars need real concurrency and are
// gated on hardware_concurrency >= 4 like bench_parallel's scaling bars.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/fault_injection.h"
#include "core/kgnet.h"
#include "serving/client.h"
#include "serving/protocol.h"
#include "serving/server.h"
#include "workload/dblp_gen.h"

namespace {

using kgnet::core::KgNet;
using kgnet::core::TrainTaskSpec;
using kgnet::bench::Percentile;
using kgnet::serving::KgClient;
using kgnet::serving::KgServer;
using kgnet::serving::ServerOptions;
using kgnet::workload::DblpSchema;
using Clock = std::chrono::steady_clock;

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Setup {
  KgNet kg;
  std::string nc_uri;
  std::string lp_uri;
  std::vector<std::string> papers;
  std::vector<std::string> people;
};

bool Build(Setup* s) {
  kgnet::workload::DblpOptions opts;
  opts.num_papers = 120;
  opts.num_authors = 60;
  opts.num_venues = 4;
  opts.num_affiliations = 8;
  opts.include_periphery = false;
  if (!kgnet::workload::GenerateDblp(opts, &s->kg.store()).ok()) return false;

  TrainTaskSpec nc;
  nc.task = kgnet::gml::TaskType::kNodeClassification;
  nc.target_type_iri = DblpSchema::Publication();
  nc.label_predicate_iri = DblpSchema::PublishedIn();
  nc.config.epochs = 3;
  nc.config.hidden_dim = 8;
  nc.config.embed_dim = 8;
  nc.model_name = "bench-nc";
  auto nc_out = s->kg.TrainTask(nc);
  if (!nc_out.ok()) return false;
  s->nc_uri = nc_out->model_uri;

  TrainTaskSpec lp;
  lp.task = kgnet::gml::TaskType::kLinkPrediction;
  lp.target_type_iri = DblpSchema::Person();
  lp.destination_type_iri = DblpSchema::Affiliation();
  lp.task_predicate_iri = DblpSchema::PrimaryAffiliation();
  lp.config.epochs = 3;
  lp.config.embed_dim = 8;
  lp.model_name = "bench-lp";
  auto lp_out = s->kg.TrainTask(lp);
  if (!lp_out.ok()) return false;
  s->lp_uri = lp_out->model_uri;

  for (int i = 0; i < 40; ++i)
    s->papers.push_back("https://dblp.org/rdf/publication/" +
                        std::to_string(i));
  for (int i = 0; i < 40; ++i)
    s->people.push_back("https://dblp.org/rdf/person/" + std::to_string(i));
  return true;
}

const char* kQueries[] = {
    "SELECT ?p ?v WHERE { ?p <https://dblp.org/rdf/publishedIn> ?v . } "
    "LIMIT 20",
    "SELECT ?a WHERE { ?p <https://dblp.org/rdf/authoredBy> ?a . } LIMIT 10",
    "ASK { ?p <https://dblp.org/rdf/publishedIn> ?v . }",
};

}  // namespace

int main() {
  kgnet::bench::ShapeChecker shape;
  const unsigned hw_raw = std::thread::hardware_concurrency();
  const int hw = hw_raw == 0 ? 1 : static_cast<int>(hw_raw);
  std::printf("serving bench: hardware_concurrency=%d\n\n", hw);

  Setup setup;
  if (!Build(&setup)) {
    std::fprintf(stderr, "setup failed\n");
    return 1;
  }
  kgnet::core::InferenceManager& im = setup.kg.service().inference_manager();

  // ---- section 1: mixed read throughput over loopback ----
  constexpr int kClients = 4;
  constexpr int kPerClient = 50;
  double qps = 0, p50 = 0, p99 = 0;
  {
    ServerOptions options;
    options.num_workers = kClients;
    KgServer server(&setup.kg.service(), options);
    if (!server.Start().ok()) return 1;
    std::vector<std::vector<double>> lat(kClients);
    std::atomic<int> failures{0};
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        KgClient client;
        if (!client.Connect("127.0.0.1", server.port()).ok()) {
          ++failures;
          return;
        }
        for (int i = 0; i < kPerClient; ++i) {
          const auto q0 = Clock::now();
          auto r = client.Query(kQueries[(c + i) % 3]);
          lat[c].push_back(Ms(q0, Clock::now()));
          if (!r.ok()) ++failures;
        }
      });
    }
    for (auto& t : threads) t.join();
    const double total_ms = Ms(t0, Clock::now());
    std::vector<double> all;
    for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
    qps = all.size() / (total_ms / 1000.0);
    p50 = Percentile(&all, 0.50);
    p99 = Percentile(&all, 0.99);
    std::printf("mixed reads: %d clients x %d reqs -> %.0f qps, "
                "p50 %.3f ms, p99 %.3f ms\n",
                kClients, kPerClient, qps, p50, p99);
    shape.Check(failures.load() == 0, "mixed read workload: zero failures");
    server.Stop();
  }

  // ---- section 2: inference batching (one model call per window) ----
  uint64_t unbatched_calls = 0, batched_calls = 0;
  bool batch_identical = true;
  {
    // Unbatched ground truth, one API call per node.
    std::vector<std::string> expect_class;
    std::vector<std::vector<std::string>> expect_links;
    im.ResetCounters();
    for (const std::string& n : setup.papers)
      expect_class.push_back(im.GetNodeClass(setup.nc_uri, n).value_or("?"));
    for (const std::string& n : setup.people)
      expect_links.push_back(
          im.GetTopKLinks(setup.lp_uri, n, 3).value_or({}));
    unbatched_calls = im.http_calls();

    ServerOptions options;
    options.num_workers = kClients;
    options.batcher.window_us = 2000;
    options.batcher.max_batch = 16;
    KgServer server(&setup.kg.service(), options);
    if (!server.Start().ok()) return 1;
    im.ResetCounters();
    std::vector<std::thread> threads;
    std::atomic<bool> ok{true};
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        KgClient client;
        if (!client.Connect("127.0.0.1", server.port()).ok()) {
          ok = false;
          return;
        }
        for (size_t i = c; i < setup.papers.size(); i += kClients) {
          auto r = client.NodeClass(setup.nc_uri, setup.papers[i]);
          if (!r.ok() || *r != expect_class[i]) ok = false;
        }
        for (size_t i = c; i < setup.people.size(); i += kClients) {
          auto r = client.TopKLinks(setup.lp_uri, setup.people[i], 3);
          if (!r.ok() || *r != expect_links[i]) ok = false;
        }
      });
    }
    for (auto& t : threads) t.join();
    batched_calls = im.http_calls();
    batch_identical = ok.load();
    std::printf("batching: %zu requests -> %llu API calls unbatched, "
                "%llu batched (%.2fx reduction), %llu coalesced\n",
                setup.papers.size() + setup.people.size(),
                static_cast<unsigned long long>(unbatched_calls),
                static_cast<unsigned long long>(batched_calls),
                batched_calls > 0
                    ? static_cast<double>(unbatched_calls) / batched_calls
                    : 0.0,
                static_cast<unsigned long long>(
                    server.batcher().coalesced_requests()));
    shape.Check(batch_identical,
                "batched inference responses identical to unbatched calls");
    shape.Check(batched_calls <= unbatched_calls,
                "batching never issues more API calls than unbatched");
    if (hw >= 4) {
      shape.Check(batched_calls * 3 <= unbatched_calls * 2,
                  "batching coalesces >= 1.5x under concurrent load");
    } else {
      std::printf("coalescing bar skipped: hardware_concurrency=%d < 4\n",
                  hw);
      shape.Check(true, "coalescing bar skipped (hardware_concurrency < 4)");
    }
    server.Stop();
  }

  // ---- section 3: embedding-row cache ----
  uint64_t cache_hits = 0, cache_misses = 0;
  bool cache_identical = true;
  {
    std::vector<std::vector<std::string>> expect;
    for (const std::string& n : setup.people)
      expect.push_back(im.GetSimilarEntities(setup.lp_uri, n, 3).value_or({}));

    ServerOptions options;
    options.num_workers = 1;
    options.embed_cache_rows = 64;
    KgServer server(&setup.kg.service(), options);
    if (!server.Start().ok()) return 1;
    KgClient client;
    if (!client.Connect("127.0.0.1", server.port()).ok()) return 1;
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < setup.people.size(); ++i) {
        auto r = client.SimilarEntities(setup.lp_uri, setup.people[i], 3);
        if (!r.ok() || *r != expect[i]) cache_identical = false;
      }
    }
    cache_hits = server.embed_cache().hits();
    cache_misses = server.embed_cache().misses();
    std::printf("embed cache: 2 passes over %zu nodes -> %llu hits, "
                "%llu misses\n",
                setup.people.size(),
                static_cast<unsigned long long>(cache_hits),
                static_cast<unsigned long long>(cache_misses));
    shape.Check(cache_identical,
                "cached similarity responses identical to uncached calls");
    shape.Check(cache_hits >= setup.people.size(),
                "second pass served from the row cache");
    server.Stop();
  }

  // ---- section 4: admission control under overload ----
  uint64_t overload_rejects = 0;
  constexpr int kFlood = 10;
  constexpr int kQueueDepth = 2;
  {
    ServerOptions options;
    options.num_workers = 1;
    options.queue_depth = kQueueDepth;
    options.request_deadline_ms = 10000;
    KgServer server(&setup.kg.service(), options);
    if (!server.Start().ok()) return 1;
    // Pin the single worker with a live session...
    KgClient pinned;
    if (!pinned.Connect("127.0.0.1", server.port()).ok()) return 1;
    if (!pinned.Ping().ok()) return 1;
    // ...then flood: kQueueDepth connections queue, the rest must be
    // rejected immediately with ResourceExhausted.
    std::vector<std::unique_ptr<KgClient>> flood;
    for (int i = 0; i < kFlood; ++i) {
      flood.push_back(std::make_unique<KgClient>());
      if (!flood.back()->Connect("127.0.0.1", server.port()).ok()) return 1;
    }
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    while (Clock::now() < deadline) {
      overload_rejects = server.stats().overload_rejects;
      if (overload_rejects >= kFlood - kQueueDepth) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    std::printf("overload: %d conns at 1 busy worker, queue %d -> "
                "%llu immediate rejects\n",
                kFlood, kQueueDepth,
                static_cast<unsigned long long>(overload_rejects));
    shape.Check(overload_rejects == kFlood - kQueueDepth,
                "admission control rejects exactly the over-queue surplus");
    server.Stop();
  }

  // ---- section 5: degraded modes (docs/RESILIENCE.md) ----
  // (a) read latency under a 5% injected socket-fault rate, clients
  // retrying; (b) fast-fail latency of an open circuit breaker; (c) how
  // quickly a deadline-cancelled query hands its worker back.
  constexpr double kSocketFaultRate = 0.05;
  constexpr int kDegradedOps = 200;
  constexpr int64_t kCancelDeadlineMs = 50;
  double degraded_p50 = 0, degraded_p99 = 0;
  int degraded_failures = 0;
  double fastfail_p50 = 0, fastfail_p99 = 0;
  double cancel_elapsed_ms = 0, reclaim_ms = 0;
  bool cancel_ok = false, reclaim_ok = false;
  {
    kgnet::common::ScopedFaultInjection guard;  // restore env config after
    auto& injector = kgnet::common::FaultInjector::Instance();

    // (a) 5% of server-side reply writes are dropped mid-connection;
    // armed retries must absorb every one of them.
    {
      ServerOptions options;
      options.num_workers = 2;
      KgServer server(&setup.kg.service(), options);
      if (!server.Start().ok()) return 1;
      injector.ConfigureSite(2026, kSocketFaultRate,
                             kgnet::common::FaultSite::kSocketWrite);
      KgClient client;
      kgnet::serving::RetryOptions retry;
      retry.max_attempts = 6;
      retry.initial_backoff_ms = 1;
      retry.max_backoff_ms = 8;
      retry.jitter_seed = 2026;
      client.set_retry_options(retry);
      if (!client.Connect("127.0.0.1", server.port()).ok()) return 1;
      std::vector<double> lat;
      for (int i = 0; i < kDegradedOps; ++i) {
        const auto q0 = Clock::now();
        auto r = client.Query(kQueries[i % 3]);
        lat.push_back(Ms(q0, Clock::now()));
        if (!r.ok()) ++degraded_failures;
      }
      const uint64_t dropped =
          injector.fired(kgnet::common::FaultSite::kSocketWrite);
      injector.Disable();
      degraded_p50 = Percentile(&lat, 0.50);
      degraded_p99 = Percentile(&lat, 0.99);
      std::printf("degraded reads: %d ops at %.0f%% socket-write faults "
                  "(%llu dropped replies) -> p50 %.3f ms, p99 %.3f ms, "
                  "%d unrecovered\n",
                  kDegradedOps, kSocketFaultRate * 100,
                  static_cast<unsigned long long>(dropped), degraded_p50,
                  degraded_p99, degraded_failures);
      shape.Check(dropped > 0, "fault injection exercised the write site");
      shape.Check(degraded_failures == 0,
                  "retries recover every injected socket fault");
      server.Stop();
    }

    // (b) breaker-open fast-fail: wedge the model site, trip the
    // breaker, then measure the rejection path (no model call, no queue).
    {
      ServerOptions options;
      options.num_workers = 2;
      options.breaker.failure_threshold = 3;
      options.breaker.cooldown_ms = 60000;  // stays open for the section
      KgServer server(&setup.kg.service(), options);
      if (!server.Start().ok()) return 1;
      injector.ConfigureSite(2027, 1.0,
                             kgnet::common::FaultSite::kModelCall);
      KgClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) return 1;
      for (int i = 0; i < 3; ++i)
        (void)client.NodeClass(setup.nc_uri, setup.papers[0]);
      const uint64_t model_calls_when_open =
          injector.invocations(kgnet::common::FaultSite::kModelCall);
      std::vector<double> lat;
      for (int i = 0; i < 100; ++i) {
        const auto q0 = Clock::now();
        auto r = client.NodeClass(setup.nc_uri, setup.papers[i % 40]);
        lat.push_back(Ms(q0, Clock::now()));
        if (r.ok()) degraded_failures += 1000;  // must be rejected
      }
      const bool no_model_reached =
          injector.invocations(kgnet::common::FaultSite::kModelCall) ==
          model_calls_when_open;
      injector.Disable();
      fastfail_p50 = Percentile(&lat, 0.50);
      fastfail_p99 = Percentile(&lat, 0.99);
      std::printf("breaker open: 100 fast-fails -> p50 %.3f ms, "
                  "p99 %.3f ms (%llu served fast-fail total)\n",
                  fastfail_p50, fastfail_p99,
                  static_cast<unsigned long long>(
                      server.breaker().fast_fails()));
      shape.Check(server.stats().breaker_fast_fails >= 100,
                  "open breaker rejects every inference request");
      shape.Check(no_model_reached,
                  "breaker fast-fails never reach the model site");
      server.Stop();
    }

    // (c) worker reclaim: a deadline-cancelled scan must hand its worker
    // back within 2x the deadline (the paper-level responsiveness bound;
    // the sanitized test suites re-check a relaxed version).
    {
      for (int s = 0; s < 100; ++s)
        for (int k = 0; k < 10; ++k)
          setup.kg.store().InsertIris(
              "bench-dense-" + std::to_string(s), "bench-dense-p",
              "bench-dense-" + std::to_string((s * 31 + k * 17 + 7) % 100));
      ServerOptions options;
      options.num_workers = 1;
      KgServer server(&setup.kg.service(), options);
      if (!server.Start().ok()) return 1;
      KgClient slow;
      if (!slow.Connect("127.0.0.1", server.port()).ok()) return 1;
      slow.set_request_deadline_ms(kCancelDeadlineMs);
      const auto c0 = Clock::now();
      auto r = slow.Query(
          "SELECT * WHERE { ?a <bench-dense-p> ?b . ?b <bench-dense-p> ?c . "
          "?c <bench-dense-p> ?d . ?d <bench-dense-p> ?e . }");
      cancel_elapsed_ms = Ms(c0, Clock::now());
      cancel_ok = !r.ok() && r.status().code() ==
                                 kgnet::StatusCode::kDeadlineExceeded;
      slow.Close();  // a session worker stays pinned while the conn lives
      KgClient quick;
      const auto r0 = Clock::now();
      reclaim_ok = quick.Connect("127.0.0.1", server.port()).ok() &&
                   quick.Query(kQueries[0]).ok();
      reclaim_ms = Ms(r0, Clock::now());
      std::printf("cancelled query: %lldms deadline answered in %.3f ms; "
                  "worker reused %.3f ms later\n",
                  static_cast<long long>(kCancelDeadlineMs),
                  cancel_elapsed_ms, reclaim_ms);
      shape.Check(cancel_ok, "deadline-bounded scan returns DeadlineExceeded");
      shape.Check(cancel_elapsed_ms < 2.0 * kCancelDeadlineMs,
                  "cancelled query frees its worker within 2x the deadline");
      shape.Check(reclaim_ok, "freed worker immediately serves new work");
      server.Stop();
    }
  }

  const int failed = shape.Report();

  FILE* json = std::fopen("BENCH_serving.json", "w");
  if (json != nullptr) {
    std::fprintf(
        json,
        "{\n  \"hardware_concurrency\": %d,\n"
        "  \"mixed\": {\"clients\": %d, \"requests\": %d, \"qps\": %.1f, "
        "\"p50_ms\": %.4f, \"p99_ms\": %.4f},\n"
        "  \"batching\": {\"requests\": %zu, \"unbatched_api_calls\": %llu, "
        "\"batched_api_calls\": %llu, \"identical\": %s},\n"
        "  \"embed_cache\": {\"hits\": %llu, \"misses\": %llu, "
        "\"identical\": %s},\n"
        "  \"overload\": {\"flood\": %d, \"queue_depth\": %d, "
        "\"rejected\": %llu},\n"
        "  \"degraded\": {\"socket_fault_rate\": %.2f, \"ops\": %d, "
        "\"unrecovered\": %d, \"p50_ms\": %.4f, \"p99_ms\": %.4f,\n"
        "    \"breaker_fastfail_p50_ms\": %.4f, "
        "\"breaker_fastfail_p99_ms\": %.4f,\n"
        "    \"cancel_deadline_ms\": %lld, \"cancel_elapsed_ms\": %.4f, "
        "\"reclaim_ms\": %.4f, \"reclaim_ok\": %s}\n}\n",
        hw, kClients, kClients * kPerClient, qps, p50, p99,
        setup.papers.size() + setup.people.size(),
        static_cast<unsigned long long>(unbatched_calls),
        static_cast<unsigned long long>(batched_calls),
        batch_identical ? "true" : "false",
        static_cast<unsigned long long>(cache_hits),
        static_cast<unsigned long long>(cache_misses),
        cache_identical ? "true" : "false", kFlood, kQueueDepth,
        static_cast<unsigned long long>(overload_rejects),
        kSocketFaultRate, kDegradedOps, degraded_failures, degraded_p50,
        degraded_p99, fastfail_p50, fastfail_p99,
        static_cast<long long>(kCancelDeadlineMs), cancel_elapsed_ms,
        reclaim_ms, reclaim_ok ? "true" : "false");
    std::fclose(json);
    std::printf("\nwrote BENCH_serving.json\n");
  }
  return failed == 0 ? 0 : 1;
}
