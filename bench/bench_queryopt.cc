// Part 1 regenerates the Figure 11 vs Figure 12 comparison: SPARQL-ML
// execution plans. The per-instance plan issues one inference call per
// bound instance; the dictionary plan issues a single call that
// materializes all predictions and answers per-row lookups locally. The
// optimizer must pick the dictionary plan once the instance count
// outgrows the break-even point.
//
// Part 2 compares the plain-SPARQL hot path per BGP shape: the streaming
// executor (merge/hash/bind joins over sorted index cursors) against the
// legacy materializing nested-loop evaluator, and writes the timings to
// BENCH_queryopt.json in the working directory. Part 6 times the read
// kinds of the perfbench read_mix workload one by one.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "core/kgnet.h"
#include "sparql/engine.h"
#include "sparql/exec.h"
#include "sparql/parser.h"
#include "tensor/rng.h"
#include "workload/dblp_gen.h"

namespace {
constexpr char kPrefixes[] =
    "PREFIX dblp: <https://dblp.org/rdf/>\n"
    "PREFIX kgnet: <https://www.kgnet.com/>\n";

const char* kQuery =
    "SELECT ?paper ?venue WHERE {\n"
    "  ?paper a dblp:Publication .\n"
    "  ?paper ?clf ?venue .\n"
    "  ?clf a kgnet:NodeClassifier .\n"
    "  ?clf kgnet:TargetNode dblp:Publication . }";

double Median(std::vector<double>* samples) {
  std::sort(samples->begin(), samples->end());
  return (*samples)[samples->size() / 2];
}

double PercentileMs(std::vector<double>* samples, double pct) {
  std::sort(samples->begin(), samples->end());
  const size_t n = samples->size();
  size_t idx = static_cast<size_t>(pct / 100.0 * static_cast<double>(n));
  if (idx >= n) idx = n - 1;
  return (*samples)[idx];
}

/// Executes `query` `reps` times in `mode`; returns (median ms, rows).
std::pair<double, size_t> TimeQuery(kgnet::sparql::QueryEngine* engine,
                                    const kgnet::sparql::Query& query,
                                    kgnet::sparql::ExecMode mode, int reps) {
  engine->set_exec_mode(mode);
  size_t rows = 0;
  std::vector<double> ms;
  for (int i = 0; i <= reps; ++i) {  // one warmup + reps timed
    auto t0 = std::chrono::steady_clock::now();
    auto r = engine->Execute(query);
    auto t1 = std::chrono::steady_clock::now();
    if (!r.ok()) {
      std::fprintf(stderr, "executor bench query failed: %s\n",
                   r.status().ToString().c_str());
      std::exit(1);
    }
    rows = r->NumRows();
    if (i > 0)
      ms.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return {Median(&ms), rows};
}

struct ShapeResult {
  std::string name;
  double old_ms = 0;
  double new_ms = 0;
  size_t rows = 0;
  double speedup() const { return new_ms > 0 ? old_ms / new_ms : 0; }
};

struct MemoryConfigResult {
  std::string name;
  size_t index_bytes = 0;
  double bytes_per_triple = 0;
  double reduction_vs_flat6 = 0;  // flat six-order rows / these bytes
  double star3_ms = 0;            // streaming time for the star3 shape
};

/// Part 3: index memory vs speed. Rebuilds the bench graph under several
/// TripleStore configurations, reporting compressed index bytes/triple
/// (against the 6 * sizeof(Triple) = 72 bytes/triple the flat six-order
/// layout used to cost) next to the streaming time of the star3 shape.
int RunIndexMemoryBench(kgnet::bench::ShapeChecker* shape,
                        const kgnet::workload::DblpOptions& graph_opts,
                        std::vector<MemoryConfigResult>* out) {
  using namespace kgnet;
  using IndexSet = rdf::TripleStore::Options::IndexSet;

  const std::string px = "PREFIX dblp: <https://dblp.org/rdf/>\n";
  const std::string star3 =
      px + "SELECT ?p ?v ?a WHERE { ?p a dblp:Publication . "
           "?p dblp:publishedIn ?v . ?p dblp:authoredBy ?a . }";
  auto parsed = sparql::ParseQuery(star3);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }

  struct Config {
    const char* name;
    rdf::TripleStore::Options opts;
  };
  const Config configs[] = {
      {"all6_block128", {IndexSet::kAllSix, 128}},
      {"all6_block16", {IndexSet::kAllSix, 16}},
      {"all6_block1024", {IndexSet::kAllSix, 1024}},
      {"trio_block128", {IndexSet::kClassicTrio, 128}},
  };

  std::printf("\nINDEX MEMORY vs SPEED (compressed permutation indexes)\n\n");
  std::printf("%-16s %14s %14s %12s %12s\n", "config", "index bytes",
              "bytes/triple", "vs flat 6x", "star3 (ms)");

  std::array<size_t, rdf::kNumIndexOrders> default_order_bytes{};
  for (const Config& cfg : configs) {
    rdf::TripleStore store(cfg.opts);
    if (!workload::GenerateDblp(graph_opts, &store).ok()) return 1;
    store.FlushInserts();
    const size_t triples = store.size();
    const double raw = static_cast<double>(triples * sizeof(rdf::Triple));
    const double flat6 = raw * rdf::kNumIndexOrders;
    if (out->empty()) {  // first config = the default store
      for (int oi = 0; oi < rdf::kNumIndexOrders; ++oi)
        default_order_bytes[static_cast<size_t>(oi)] =
            store.IndexBytes(static_cast<rdf::IndexOrder>(oi));
    }

    sparql::QueryEngine engine(&store);
    auto [ms, rows] =
        TimeQuery(&engine, *parsed, sparql::ExecMode::kStreaming, 5);
    (void)rows;

    MemoryConfigResult r;
    r.name = cfg.name;
    r.index_bytes = store.TotalIndexBytes();
    r.bytes_per_triple =
        static_cast<double>(r.index_bytes) / static_cast<double>(triples);
    r.reduction_vs_flat6 = flat6 / static_cast<double>(r.index_bytes);
    r.star3_ms = ms;
    std::printf("%-16s %14zu %14.2f %11.2fx %12.3f\n", r.name.c_str(),
                r.index_bytes, r.bytes_per_triple, r.reduction_vs_flat6,
                r.star3_ms);
    out->push_back(std::move(r));
  }

  // Per-order breakdown, captured from the default configuration above.
  std::printf("\n  per-order bytes (all6_block128): ");
  for (int oi = 0; oi < rdf::kNumIndexOrders; ++oi) {
    std::printf("%s=%zu ", rdf::IndexOrderName(static_cast<rdf::IndexOrder>(oi)),
                default_order_bytes[static_cast<size_t>(oi)]);
  }
  std::printf("\n");

  // Acceptance bars: the default full six-order set must land at or
  // under 2.4x the raw triple bytes — a >= 2.5x reduction against the
  // 6x flat layout this store used to pay.
  const MemoryConfigResult& def = (*out)[0];
  const double vs_raw =
      def.bytes_per_triple / static_cast<double>(sizeof(rdf::Triple));
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.2fx raw (%.1f bytes/triple)", vs_raw,
                def.bytes_per_triple);
  shape->Check(vs_raw <= 2.4,
               std::string("six compressed orders <= 2.4x raw triple "
                           "bytes (got ") + buf + ")");
  shape->Check(def.reduction_vs_flat6 >= 2.5,
               "compressed six-order set >= 2.5x smaller than flat rows");
  return 0;
}

struct ThreadScalingResult {
  std::string name;
  double serial_ms = 0;  // default config, 1 thread, serial operators
  double t1_ms = 0;      // morsel operators forced on, 1 thread
  double t2_ms = 0;
  double t4_ms = 0;
};

/// Part 4: morsel-parallel streaming execution across thread counts.
/// Result identity against the serial stream is asserted at every
/// width; latency bars only where they are meaningful — the forced
/// 1-thread run must not pay more than ~10% machinery overhead, and a
/// host with >= 4 real cores must not regress at 4 threads. (Speedup
/// itself is printed but not gated: CI containers are often 1-core.)
int RunThreadScalingBench(kgnet::bench::ShapeChecker* shape,
                          kgnet::rdf::TripleStore* store,
                          std::vector<ThreadScalingResult>* out) {
  using namespace kgnet;

  const std::string px = "PREFIX dblp: <https://dblp.org/rdf/>\n";
  struct Spec {
    const char* name;
    std::string query;
  };
  const Spec specs[] = {
      {"star3",
       px + "SELECT ?p ?v ?a WHERE { ?p a dblp:Publication . "
            "?p dblp:publishedIn ?v . ?p dblp:authoredBy ?a . }"},
      {"chain2",
       px + "SELECT ?p ?f WHERE { ?p dblp:authoredBy ?a . "
            "?a dblp:primaryAffiliation ?f . }"},
  };

  const int saved_threads = common::ThreadPool::num_threads();
  const sparql::MorselConfig saved_cfg = sparql::GetMorselConfig();
  // Thresholds low enough that the bench graph's scans and merge groups
  // actually take the parallel paths.
  sparql::MorselConfig forced;
  forced.scan_min_parallel_rows = 256;
  forced.smj_min_parallel_group = 64;
  forced.force_parallel = true;

  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("\nMORSEL-PARALLEL STREAMING ACROSS THREAD COUNTS "
              "(%u hardware threads)\n\n", cores);
  std::printf("%-10s %12s %12s %12s %12s %10s\n", "shape", "serial (ms)",
              "T=1 (ms)", "T=2 (ms)", "T=4 (ms)", "T=4 spd");

  for (const Spec& spec : specs) {
    auto parsed = sparql::ParseQuery(spec.query);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 1;
    }
    sparql::QueryEngine engine(store);
    engine.set_exec_mode(sparql::ExecMode::kStreaming);

    sparql::QueryResult last;
    auto once = [&](const sparql::MorselConfig& cfg, int threads,
                    double* ms) -> const sparql::QueryResult* {
      common::ThreadPool::SetNumThreads(threads);
      sparql::GetMorselConfig() = cfg;
      auto t0 = std::chrono::steady_clock::now();
      auto r = engine.Execute(*parsed);
      auto t1 = std::chrono::steady_clock::now();
      if (!r.ok()) {
        std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
        return nullptr;
      }
      *ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
      last = std::move(*r);
      return &last;
    };

    // Serial reference: default config, one thread — the latched path.
    double ms = 0;
    const sparql::QueryResult* ref = once(sparql::MorselConfig{}, 1, &ms);
    if (ref == nullptr) return 1;
    const auto serial_rows = ref->rows;

    ThreadScalingResult r;
    r.name = spec.name;
    // Serial vs forced-T1 samples are interleaved pairwise so load drift
    // on the host hits both configurations equally.
    std::vector<double> serial_samples, forced_samples;
    for (int i = 0; i < 11; ++i) {
      if (once(sparql::MorselConfig{}, 1, &ms) == nullptr) return 1;
      serial_samples.push_back(ms);
      const sparql::QueryResult* run = once(forced, 1, &ms);
      if (run == nullptr) return 1;
      forced_samples.push_back(ms);
      if (i == 0) {
        shape->Check(run->rows == serial_rows,
                     std::string(spec.name) +
                         ": identical result stream at 1 threads");
      }
    }
    r.serial_ms = Median(&serial_samples);
    r.t1_ms = Median(&forced_samples);

    for (int threads : {2, 4}) {
      std::vector<double> samples;
      for (int i = 0; i < 6; ++i) {
        const sparql::QueryResult* run = once(forced, threads, &ms);
        if (run == nullptr) return 1;
        if (i == 0) {
          shape->Check(run->rows == serial_rows,
                       std::string(spec.name) +
                           ": identical result stream at " +
                           std::to_string(threads) + " threads");
        } else {
          samples.push_back(ms);  // first run doubles as warmup
        }
      }
      (threads == 2 ? r.t2_ms : r.t4_ms) = Median(&samples);
    }
    std::printf("%-10s %12.3f %12.3f %12.3f %12.3f %9.2fx\n", r.name.c_str(),
                r.serial_ms, r.t1_ms, r.t2_ms, r.t4_ms,
                r.t4_ms > 0 ? r.serial_ms / r.t4_ms : 0);

    // Forced morsel machinery on one thread pays for its buffering
    // (~15-20% here) — which is exactly why the default config latches
    // it off at one thread. Bound it loosely to catch pathological
    // regressions in the buffering itself without flaking on loaded
    // CI hosts.
    shape->Check(r.t1_ms <= r.serial_ms * 1.50 + 0.50,
                 std::string(spec.name) +
                     ": forced 1-thread morsel overhead <= 50% + 0.5 ms");
    // With real cores behind the pool, 4 threads must not regress.
    if (cores >= 4) {
      shape->Check(r.t4_ms <= r.serial_ms * 1.10 + 0.05,
                   std::string(spec.name) +
                       ": 4-thread run does not regress vs serial");
    }
    out->push_back(std::move(r));
  }

  common::ThreadPool::SetNumThreads(saved_threads);
  sparql::GetMorselConfig() = saved_cfg;
  return 0;
}

struct MixedReadWriteResult {
  int iterations = 0;
  int batch_triples = 0;
  double snapshot_p50_ms = 0, snapshot_p99_ms = 0;
  double stall_p50_ms = 0, stall_p99_ms = 0;
};

/// Part 5: reader latency under a concurrent write stream. The MVCC
/// read path answers queries on a dirty store by merging the
/// uncompacted delta under a snapshot; the pre-MVCC store rebuilt the
/// permutation runs on the first read after any write. Per iteration a
/// small mutation batch lands and one star3 query is timed — as-is for
/// the snapshot path, with the compaction forced onto the read for the
/// stall path (exactly what the old first-dirty-read paid).
int RunMixedReadWriteBench(kgnet::bench::ShapeChecker* shape,
                           kgnet::rdf::TripleStore* store,
                           MixedReadWriteResult* out) {
  using namespace kgnet;

  const std::string px = "PREFIX dblp: <https://dblp.org/rdf/>\n";
  auto parsed = sparql::ParseQuery(
      px + "SELECT ?p ?v ?a WHERE { ?p a dblp:Publication . "
           "?p dblp:publishedIn ?v . ?p dblp:authoredBy ?a . }");
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  sparql::QueryEngine engine(store);
  engine.set_exec_mode(sparql::ExecMode::kStreaming);

  const rdf::Term type = rdf::Term::Iri(std::string(rdf::kRdfType));
  const rdf::Term pub = rdf::Term::Iri(workload::DblpSchema::Publication());
  const rdf::Term in = rdf::Term::Iri(workload::DblpSchema::PublishedIn());
  const rdf::Term by = rdf::Term::Iri(workload::DblpSchema::AuthoredBy());
  const rdf::Term venue = rdf::Term::Iri("https://dblp.org/rdf/venue/mixed");
  const rdf::Term author =
      rdf::Term::Iri("https://dblp.org/rdf/person/mixed");

  constexpr int kIters = 40;
  constexpr int kPubsPerBatch = 4;  // three triples per publication
  int next_id = 0;
  auto run_mode = [&](bool stall_on_read, std::vector<double>* samples) {
    for (int it = 0; it < kIters; ++it) {
      for (int i = 0; i < kPubsPerBatch; ++i) {
        const rdf::Term s =
            rdf::Term::Iri("https://dblp.org/rdf/publication/mixed" +
                           std::to_string(next_id++));
        store->Insert(s, type, pub);
        store->Insert(s, in, venue);
        store->Insert(s, by, author);
      }
      auto t0 = std::chrono::steady_clock::now();
      if (stall_on_read) store->Compact();
      auto r = engine.Execute(*parsed);
      auto t1 = std::chrono::steady_clock::now();
      if (!r.ok()) {
        std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
        return false;
      }
      samples->push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    return true;
  };

  store->Compact();  // both modes start from a clean generation
  std::vector<double> snap_ms, stall_ms;
  if (!run_mode(false, &snap_ms)) return 1;
  store->Compact();
  if (!run_mode(true, &stall_ms)) return 1;

  out->iterations = kIters;
  out->batch_triples = kPubsPerBatch * 3;
  out->snapshot_p50_ms = PercentileMs(&snap_ms, 50);
  out->snapshot_p99_ms = PercentileMs(&snap_ms, 99);
  out->stall_p50_ms = PercentileMs(&stall_ms, 50);
  out->stall_p99_ms = PercentileMs(&stall_ms, 99);

  std::printf("\nMIXED READ+WRITE (%d-triple batch before every read)\n\n",
              out->batch_triples);
  std::printf("%-22s %12s %12s\n", "read path", "p50 (ms)", "p99 (ms)");
  std::printf("%-22s %12.3f %12.3f\n", "snapshot merge", out->snapshot_p50_ms,
              out->snapshot_p99_ms);
  std::printf("%-22s %12.3f %12.3f\n", "stall on compaction",
              out->stall_p50_ms, out->stall_p99_ms);

  // The headline claim of the versioned store: a reader on a dirty
  // store no longer pays the index rebuild.
  shape->Check(out->snapshot_p50_ms <= out->stall_p50_ms,
               "dirty-store reader p50: snapshot merge beats stall-on-flush");
  shape->Check(out->snapshot_p99_ms <= out->stall_p99_ms * 1.10 + 0.05,
               "dirty-store reader p99: snapshot merge beats stall-on-flush");
  return 0;
}

struct ReadKindResult {
  std::string name;
  double median_us = 0;
  size_t rows = 0;
  size_t rows_scanned = 0;
  size_t rows_walked = 0;
};

/// Part 6: the read kinds of perfbench's read_mix stream
/// (perfbench/src/workload.cc), each timed alone. The KG is read_mix's
/// (same generator options and seed) and every constant is the hottest
/// one — rank 0 of perfbench's fixed popularity shuffle — so a kind's
/// time here is its time at the head of the Zipf draw. Reported, not
/// gated: the host's speed drifts, so the table is for before/after
/// comparison of one revision against another on one machine.
int RunReadKindBench(std::vector<ReadKindResult>* out) {
  using namespace kgnet;
  workload::DblpOptions opts;
  opts.seed = 42;
  opts.include_periphery = true;
  opts.num_papers = 6000;
  opts.num_authors = 2400;
  opts.num_venues = 24;
  opts.num_affiliations = 80;
  rdf::TripleStore store;
  if (!workload::GenerateDblp(opts, &store).ok()) return 1;
  store.Compact();

  // perfbench's popularity order: one seeded shuffle per constant kind.
  tensor::Rng rng(42);
  auto hottest = [&rng](const char* kind, size_t n) {
    std::vector<std::string> v(n);
    for (size_t i = 0; i < n; ++i)
      v[i] = std::string(workload::kDblpNs) + kind + "/" + std::to_string(i);
    std::shuffle(v.begin(), v.end(), rng.generator());
    return "<" + v[0] + ">";
  };
  const std::string paper = hottest("publication", opts.num_papers);
  const std::string person = hottest("person", opts.num_authors);
  const std::string venue = hottest("venue", opts.num_venues);

  const std::string px = "PREFIX dblp: <https://dblp.org/rdf/> ";
  struct Kind {
    const char* name;
    std::string query;
  };
  const Kind kinds[] = {
      {"point", px + "SELECT ?v WHERE { " + paper + " dblp:publishedIn ?v . }"},
      {"star", px + "SELECT ?p ?v ?t WHERE { ?p dblp:authoredBy " + person +
                   " . ?p dblp:publishedIn ?v . ?p dblp:title ?t . }"},
      {"chain", px + "SELECT ?a ?f ?c WHERE { " + paper +
                    " dblp:authoredBy ?a . ?a dblp:primaryAffiliation ?f . "
                    "?f dblp:locatedIn ?c . }"},
      {"filter", px + "SELECT ?p ?y WHERE { ?p dblp:publishedIn " + venue +
                     " . ?p dblp:yearOfPublication ?y . FILTER(?y >= 2015) }"},
      {"union", px + "SELECT ?f WHERE { { " + person +
                    " dblp:primaryAffiliation ?f . } UNION { " + person +
                    " dblp:pastAffiliation ?f . } }"},
      {"optional", px + "SELECT ?p ?c WHERE { ?p dblp:authoredBy " + person +
                       " . OPTIONAL { ?p dblp:cites ?c . } }"},
      {"distinct", px + "SELECT DISTINCT ?f WHERE { ?p dblp:publishedIn " +
                       venue + " . ?p dblp:authoredBy ?a . "
                               "?a dblp:primaryAffiliation ?f . }"},
      {"limit50", px + "SELECT ?t ?b WHERE { ?t dblp:broaderTopic ?b . } "
                       "LIMIT 50"},
      {"limit100", px + "SELECT ?p ?a WHERE { ?p dblp:authoredBy ?a . } "
                        "LIMIT 100"},
  };

  std::printf("\nPERFBENCH READ KINDS (read_mix KG, %zu triples, hottest "
              "constants, serial Execute)\n\n",
              store.size());
  std::printf("%-10s %12s %8s %14s %14s\n", "kind", "median (us)", "rows",
              "rows_scanned", "rows_walked");
  sparql::QueryEngine engine(&store);
  const rdf::Snapshot snapshot = store.OpenSnapshot();
  for (const Kind& kind : kinds) {
    auto parsed = sparql::ParseQuery(kind.query);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 1;
    }
    ReadKindResult r;
    r.name = kind.name;
    // Counters from one run with an ExecInfo (the full planned tree);
    // timings as perfbench's server runs the query, without one.
    sparql::ExecInfo info;
    auto counted = engine.Execute(*parsed, snapshot, &info);
    if (!counted.ok()) {
      std::fprintf(stderr, "%s\n", counted.status().ToString().c_str());
      return 1;
    }
    r.rows = counted->NumRows();
    r.rows_scanned = info.rows_scanned;
    r.rows_walked = info.rows_walked;
    std::vector<double> us;
    for (int i = 0; i <= 200; ++i) {  // one warmup + 200 timed
      auto t0 = std::chrono::steady_clock::now();
      auto res = engine.Execute(*parsed, snapshot);
      auto t1 = std::chrono::steady_clock::now();
      if (!res.ok() || res->NumRows() != r.rows) {
        std::fprintf(stderr, "read kind %s: unstable result\n", kind.name);
        return 1;
      }
      if (i > 0)
        us.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
    r.median_us = Median(&us);
    std::printf("%-10s %12.1f %8zu %14zu %14zu\n", r.name.c_str(),
                r.median_us, r.rows, r.rows_scanned, r.rows_walked);
    out->push_back(std::move(r));
  }
  return 0;
}

/// Part 2: per-shape old-vs-new executor timings on a plain DBLP KG.
int RunExecutorBench(kgnet::bench::ShapeChecker* shape) {
  using namespace kgnet;
  namespace ws = workload;

  rdf::TripleStore store;
  ws::DblpOptions opts;
  opts.num_papers = 4000;
  opts.num_authors = 1600;
  opts.num_venues = 8;
  opts.num_affiliations = 40;
  opts.include_periphery = false;
  opts.include_literals = false;
  if (!ws::GenerateDblp(opts, &store).ok()) return 1;
  sparql::QueryEngine engine(&store);

  const std::string px = "PREFIX dblp: <https://dblp.org/rdf/>\n";
  struct ShapeSpec {
    const char* name;
    std::string query;
    // Timed repetitions. Microsecond-scale shapes take more samples so
    // the median is stable against timer jitter.
    int reps = 5;
  };
  const ShapeSpec specs[] = {
      {"star2",
       px + "SELECT ?p ?v WHERE { ?p a dblp:Publication . "
            "?p dblp:publishedIn ?v . }",
       5},
      {"star3",
       px + "SELECT ?p ?v ?a WHERE { ?p a dblp:Publication . "
            "?p dblp:publishedIn ?v . ?p dblp:authoredBy ?a . }",
       5},
      {"chain2",
       px + "SELECT ?p ?f WHERE { ?p dblp:authoredBy ?a . "
            "?a dblp:primaryAffiliation ?f . }",
       5},
      {"selective",
       px + "SELECT ?a ?f WHERE { <https://dblp.org/rdf/publication/17> "
            "dblp:authoredBy ?a . ?a dblp:primaryAffiliation ?f . }",
       41},
      {"star3_limit10",
       px + "SELECT ?p ?v ?a WHERE { ?p a dblp:Publication . "
            "?p dblp:publishedIn ?v . ?p dblp:authoredBy ?a . } LIMIT 10",
       5},
  };

  std::printf("\nSTREAMING EXECUTOR vs LEGACY (plain SPARQL, %zu triples)\n\n",
              store.size());
  std::printf("%-15s %12s %12s %10s %10s\n", "shape", "legacy (ms)",
              "stream (ms)", "speedup", "rows");

  std::vector<ShapeResult> results;
  for (const ShapeSpec& spec : specs) {
    auto parsed = sparql::ParseQuery(spec.query);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 1;
    }
    auto [old_ms, old_rows] =
        TimeQuery(&engine, *parsed, sparql::ExecMode::kMaterialized, spec.reps);
    auto [new_ms, new_rows] =
        TimeQuery(&engine, *parsed, sparql::ExecMode::kStreaming, spec.reps);
    ShapeResult r;
    r.name = spec.name;
    r.old_ms = old_ms;
    r.new_ms = new_ms;
    r.rows = new_rows;
    std::printf("%-15s %12.3f %12.3f %9.2fx %10zu\n", r.name.c_str(),
                r.old_ms, r.new_ms, r.speedup(), r.rows);
    shape->Check(old_rows == new_rows,
                 std::string(spec.name) + ": row counts agree (" +
                     std::to_string(old_rows) + " vs " +
                     std::to_string(new_rows) + ")");
    results.push_back(std::move(r));
  }

  double best = 0;
  bool no_regression = true;
  for (const ShapeResult& r : results) {
    best = std::max(best, r.speedup());
    // 10% relative + 0.05 ms absolute slack against timer jitter.
    if (r.new_ms > r.old_ms * 1.10 + 0.05) no_regression = false;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", best);
  shape->Check(best >= 2.0, std::string("streaming executor >= 2x on at "
                                        "least one shape (best ") +
                                buf + "x)");
  shape->Check(no_regression,
               "no shape regresses more than 10% vs the legacy executor");
  for (const ShapeResult& r : results) {
    if (r.name != "selective") continue;
    // Pinned since the single-pattern fast path + planner shortcuts:
    // the fully/near-bound shape must not lose to the legacy evaluator
    // on planning overhead again.
    std::snprintf(buf, sizeof(buf), "%.2f", r.speedup());
    shape->Check(r.speedup() >= 1.0,
                 std::string("selective shape: streaming >= legacy (got ") +
                     buf + "x)");
  }

  // Part 3: memory-vs-speed across index configurations (same graph).
  std::vector<MemoryConfigResult> mem;
  if (RunIndexMemoryBench(shape, opts, &mem) != 0) return 1;

  // Part 4: morsel-parallel streaming across thread counts (same graph).
  std::vector<ThreadScalingResult> scaling;
  if (RunThreadScalingBench(shape, &store, &scaling) != 0) return 1;

  // Part 5: reader latency under writes, snapshot merge vs stall
  // (mutates the graph, so it runs after every read-only section).
  MixedReadWriteResult mixed;
  if (RunMixedReadWriteBench(shape, &store, &mixed) != 0) return 1;

  // Part 6: the perfbench read kinds, one by one (own KG).
  std::vector<ReadKindResult> kinds;
  if (RunReadKindBench(&kinds) != 0) return 1;

  // Machine-readable output for tracking across revisions.
  FILE* json = std::fopen("BENCH_queryopt.json", "w");
  if (json != nullptr) {
    // Thread count recorded so timing trajectories across revisions
    // compare like with like (the flush path parallelizes on the pool).
    std::fprintf(json,
                 "{\n  \"triples\": %zu,\n  \"num_threads\": %d,\n"
                 "  \"shapes\": [\n",
                 store.size(), common::ThreadPool::num_threads());
    for (size_t i = 0; i < results.size(); ++i) {
      const ShapeResult& r = results[i];
      std::fprintf(json,
                   "    {\"name\": \"%s\", \"rows\": %zu, "
                   "\"legacy_ms\": %.4f, \"streaming_ms\": %.4f, "
                   "\"speedup\": %.3f}%s\n",
                   r.name.c_str(), r.rows, r.old_ms, r.new_ms, r.speedup(),
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json,
                 "  \"index_memory\": {\n"
                 "    \"raw_bytes_per_triple\": %zu,\n"
                 "    \"flat_six_order_bytes_per_triple\": %zu,\n"
                 "    \"configs\": [\n",
                 sizeof(rdf::Triple),
                 sizeof(rdf::Triple) * rdf::kNumIndexOrders);
    for (size_t i = 0; i < mem.size(); ++i) {
      const MemoryConfigResult& r = mem[i];
      std::fprintf(json,
                   "      {\"name\": \"%s\", \"index_bytes\": %zu, "
                   "\"bytes_per_triple\": %.2f, "
                   "\"reduction_vs_flat6\": %.3f, \"star3_ms\": %.4f}%s\n",
                   r.name.c_str(), r.index_bytes, r.bytes_per_triple,
                   r.reduction_vs_flat6, r.star3_ms,
                   i + 1 < mem.size() ? "," : "");
    }
    std::fprintf(json, "    ]\n  },\n");
    std::fprintf(json,
                 "  \"mixed_read_write\": {\"iterations\": %d, "
                 "\"batch_triples\": %d, \"snapshot_p50_ms\": %.4f, "
                 "\"snapshot_p99_ms\": %.4f, \"stall_p50_ms\": %.4f, "
                 "\"stall_p99_ms\": %.4f},\n",
                 mixed.iterations, mixed.batch_triples, mixed.snapshot_p50_ms,
                 mixed.snapshot_p99_ms, mixed.stall_p50_ms,
                 mixed.stall_p99_ms);
    std::fprintf(json, "  \"thread_scaling\": [\n");
    for (size_t i = 0; i < scaling.size(); ++i) {
      const ThreadScalingResult& r = scaling[i];
      std::fprintf(json,
                   "    {\"name\": \"%s\", \"serial_ms\": %.4f, "
                   "\"forced_t1_ms\": %.4f, \"t2_ms\": %.4f, "
                   "\"t4_ms\": %.4f}%s\n",
                   r.name.c_str(), r.serial_ms, r.t1_ms, r.t2_ms, r.t4_ms,
                   i + 1 < scaling.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"read_kinds\": [\n");
    for (size_t i = 0; i < kinds.size(); ++i) {
      const ReadKindResult& r = kinds[i];
      std::fprintf(json,
                   "    {\"name\": \"%s\", \"median_us\": %.1f, "
                   "\"rows\": %zu, \"rows_scanned\": %zu, "
                   "\"rows_walked\": %zu}%s\n",
                   r.name.c_str(), r.median_us, r.rows, r.rows_scanned,
                   r.rows_walked, i + 1 < kinds.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_queryopt.json\n");
  }
  return 0;
}
}  // namespace

int main() {
  using namespace kgnet;
  using workload::DblpSchema;
  bench::ShapeChecker shape;

  std::printf("QUERY OPTIMIZER: per-instance (Fig. 11) vs dictionary "
              "(Fig. 12) plans\n\n");
  std::printf("%-10s %-14s %12s %14s %12s\n", "|papers|", "plan",
              "HTTP calls", "exec time (ms)", "rows");

  for (size_t papers : {25, 100, 400, 1600}) {
    core::KgNet kg;
    workload::DblpOptions opts;
    opts.num_papers = papers;
    opts.num_authors = std::max<size_t>(40, papers / 2);
    opts.num_venues = 5;
    opts.num_affiliations = 15;
    opts.include_periphery = false;
    if (!workload::GenerateDblp(opts, &kg.store()).ok()) return 1;

    core::TrainTaskSpec spec;
    spec.task = gml::TaskType::kNodeClassification;
    spec.target_type_iri = DblpSchema::Publication();
    spec.label_predicate_iri = DblpSchema::PublishedIn();
    spec.forced_method = gml::GmlMethod::kGraphSaint;
    spec.config.epochs = 5;  // quality is irrelevant to plan cost
    spec.config.hidden_dim = 8;
    spec.config.embed_dim = 8;
    spec.model_name = "planbench";
    auto out = kg.TrainTask(spec);
    if (!out.ok()) {
      std::fprintf(stderr, "%s\n", out.status().ToString().c_str());
      return 1;
    }

    const std::string query = std::string(kPrefixes) + kQuery;
    core::ExecutionStats per, dict, opt;
    auto r1 = kg.service().ExecuteWithPlan(query,
                                           core::RewritePlan::kPerInstance,
                                           &per);
    auto r2 = kg.service().ExecuteWithPlan(query,
                                           core::RewritePlan::kDictionary,
                                           &dict);
    auto r3 = kg.Execute(query, &opt);  // optimizer decides
    if (!r1.ok() || !r2.ok() || !r3.ok()) {
      std::fprintf(stderr, "query failed\n");
      return 1;
    }
    std::printf("%-10zu %-14s %12llu %14.2f %12zu\n", papers,
                "per-instance",
                static_cast<unsigned long long>(per.http_calls),
                per.execution_seconds * 1e3, r1->NumRows());
    std::printf("%-10s %-14s %12llu %14.2f %12zu\n", "",
                "dictionary",
                static_cast<unsigned long long>(dict.http_calls),
                dict.execution_seconds * 1e3, r2->NumRows());
    std::printf("%-10s %-14s %12llu %14.2f %12s\n", "", "(optimizer)",
                static_cast<unsigned long long>(opt.http_calls),
                opt.execution_seconds * 1e3,
                opt.plan == core::RewritePlan::kDictionary ? "-> dict"
                                                           : "-> per-inst");

    shape.Check(per.http_calls == papers,
                "per-instance plan issues |papers| calls (" +
                    std::to_string(papers) + ")");
    shape.Check(dict.http_calls == 1, "dictionary plan issues one call");
    shape.Check(r1->NumRows() == r2->NumRows(),
                "both plans return the same number of rows");
    if (papers >= 100)
      shape.Check(opt.plan == core::RewritePlan::kDictionary,
                  "optimizer picks the dictionary plan at |papers|=" +
                      std::to_string(papers));
  }

  if (RunExecutorBench(&shape) != 0) return 1;
  return shape.Report() == 0 ? 0 : 1;
}
