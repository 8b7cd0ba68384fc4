// Thread-pool scaling of the parallel hot paths: dense GEMM, sparse
// SpMM and an end-to-end GCN training epoch, each swept over 1/2/4/N
// pool threads (ThreadPool::SetNumThreads). Two kinds of claims are
// checked:
//
//   - determinism, always: every kernel must produce bitwise-identical
//     results at every thread count (the pool's fixed chunking and the
//     kernels' fixed accumulation orders guarantee it; this bench is the
//     executable proof). Thread counts above hardware_concurrency still
//     exercise this — determinism may not depend on how many cores the
//     host really has.
//   - scaling, only on hardware with >= 4 cores: >= 2.5x at 4 threads
//     for MatMul and SpMM. On smaller machines the bars are skipped (a
//     1-core box cannot exhibit parallel speedup) and the JSON still
//     records the measured curve.
//
// A serial `load` section follows the sweep: a DBLP bulk load split
// into generate + intern and the one compaction that builds the six
// permutation runs when the load's TripleStore::BulkLoad scope closes.
//
// Results go to BENCH_parallel.json in the working directory.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "tests/parallel_test_util.h"
#include "gml/gcn.h"
#include "gml/graph_data.h"
#include "gml/model.h"
#include "rdf/triple_store.h"
#include "tensor/csr_matrix.h"
#include "tensor/matrix.h"
#include "tensor/rng.h"
#include "workload/dblp_gen.h"

namespace {

using kgnet::common::ThreadPool;
using kgnet::tensor::CsrMatrix;
using kgnet::tensor::Matrix;
using kgnet::testing::BitsOf;
using kgnet::testing::SameBits;

double MedianMs(std::vector<double>* samples) {
  std::sort(samples->begin(), samples->end());
  return (*samples)[samples->size() / 2];
}

/// Median wall time of `reps` runs of fn(), in milliseconds (one
/// untimed warmup).
template <typename Fn>
double TimeMs(int reps, const Fn& fn) {
  std::vector<double> ms;
  for (int i = 0; i <= reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    if (i > 0)
      ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return MedianMs(&ms);
}

struct ThreadSample {
  int threads = 0;
  double ms = 0;
};

struct SectionResult {
  std::string name;
  std::string shape;
  std::vector<ThreadSample> samples;
  bool bitwise_identical = true;

  double MsAt(int threads) const {
    for (const ThreadSample& s : samples)
      if (s.threads == threads) return s.ms;
    return 0;
  }
  /// speedup of `threads` threads over 1 thread (0 when not measured).
  double SpeedupAt(int threads) const {
    const double base = MsAt(1), t = MsAt(threads);
    return base > 0 && t > 0 ? base / t : 0;
  }
};

void PrintSection(const SectionResult& r) {
  std::printf("%-12s %-28s", r.name.c_str(), r.shape.c_str());
  for (const ThreadSample& s : r.samples)
    std::printf("  %dT %9.3f", s.threads, s.ms);
  std::printf("  [%s]\n", r.bitwise_identical ? "bitwise-identical"
                                              : "RESULTS DIVERGE");
}

/// The thread counts to sweep: 1, 2, 4 and the configured default,
/// deduplicated and sorted.
std::vector<int> SweepCounts() {
  std::vector<int> counts = {1, 2, 4, ThreadPool::num_threads()};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

SectionResult BenchMatMul(const std::vector<int>& counts) {
  kgnet::tensor::Rng rng(29);
  Matrix a(2048, 256), b(256, 64);
  a.XavierInit(&rng);
  b.XavierInit(&rng);
  SectionResult r;
  r.name = "matmul";
  r.shape = "2048x256 * 256x64";
  Matrix reference;
  for (int threads : counts) {
    ThreadPool::SetNumThreads(threads);
    Matrix out;
    const double ms = TimeMs(5, [&] { out = Matrix::MatMul(a, b); });
    if (threads == counts.front()) {
      reference = out;
    } else if (!SameBits(reference, out)) {
      r.bitwise_identical = false;
    }
    r.samples.push_back({threads, ms});
  }
  return r;
}

SectionResult BenchSpMM(const std::vector<int>& counts, const CsrMatrix& adj,
                        const Matrix& x) {
  SectionResult r;
  r.name = "spmm";
  char shape[64];
  std::snprintf(shape, sizeof(shape), "%zux%zu nnz=%zu d=%zu", adj.rows(),
                adj.cols(), adj.nnz(), x.cols());
  r.shape = shape;
  Matrix reference, reference_t;
  for (int threads : counts) {
    ThreadPool::SetNumThreads(threads);
    Matrix out, out_t;
    const double ms = TimeMs(5, [&] { out = adj.SpMM(x); });
    out_t = adj.SpMMTransposed(x);
    if (threads == counts.front()) {
      reference = out;
      reference_t = out_t;
    } else if (!SameBits(reference, out) || !SameBits(reference_t, out_t)) {
      r.bitwise_identical = false;
    }
    r.samples.push_back({threads, ms});
  }
  return r;
}

/// One DBLP bulk load, split at the scope release.
struct LoadSplit {
  double generate_ms = 0;  // GenerateDblp: generate, intern, append
  double compact_ms = 0;   // the BulkLoad release: the one compaction
  size_t triples = 0;
  uint64_t compactions = 0;  // per load; a bulk load performs one
};

/// Median of 3 loads. An outer BulkLoad scope around GenerateDblp (whose
/// own scope nests inside it) holds the compaction back, so releasing it
/// times exactly the one compaction of the load.
LoadSplit BenchLoad(const kgnet::workload::DblpOptions& opts) {
  using Clock = std::chrono::steady_clock;
  std::vector<double> generate_ms, compact_ms;
  LoadSplit r;
  for (int i = 0; i < 3; ++i) {
    kgnet::rdf::TripleStore store;
    std::optional<kgnet::rdf::TripleStore::BulkLoad> bulk(&store);
    const auto t0 = Clock::now();
    if (!kgnet::workload::GenerateDblp(opts, &store).ok()) break;
    const auto t1 = Clock::now();
    bulk.reset();
    const auto t2 = Clock::now();
    generate_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    compact_ms.push_back(
        std::chrono::duration<double, std::milli>(t2 - t1).count());
    r.triples = store.size();
    r.compactions = store.GetStats().compactions;
  }
  if (!generate_ms.empty()) {
    r.generate_ms = MedianMs(&generate_ms);
    r.compact_ms = MedianMs(&compact_ms);
  }
  return r;
}

SectionResult BenchGcnEpoch(const std::vector<int>& counts,
                            const kgnet::gml::GraphData& graph) {
  using kgnet::gml::GcnClassifier;
  using kgnet::gml::TrainConfig;
  using kgnet::gml::TrainReport;
  SectionResult r;
  r.name = "gcn_epoch";
  char shape[64];
  std::snprintf(shape, sizeof(shape), "%zu nodes d=%zu", graph.num_nodes,
                graph.feature_dim);
  r.shape = shape;

  TrainConfig config;
  config.epochs = 5;
  config.hidden_dim = 64;
  config.patience = 0;  // fixed epoch count: timings stay comparable
  config.seed = 17;

  uint64_t reference_loss_bits = 0;
  double reference_metric = -1.0;
  for (int threads : counts) {
    ThreadPool::SetNumThreads(threads);
    TrainReport report;
    const double ms = TimeMs(2, [&] {
      GcnClassifier model;
      (void)model.Train(graph, config, &report);
    });
    const uint64_t loss_bits = BitsOf(report.final_loss);
    if (threads == counts.front()) {
      reference_loss_bits = loss_bits;
      reference_metric = report.metric;
    } else if (loss_bits != reference_loss_bits ||
               report.metric != reference_metric) {
      r.bitwise_identical = false;
    }
    r.samples.push_back(
        {threads, ms / static_cast<double>(config.epochs)});
  }
  return r;
}

}  // namespace

int main() {
  using namespace kgnet;
  bench::ShapeChecker shape;

  const int default_threads = common::ThreadPool::num_threads();
  const unsigned hw_raw = std::thread::hardware_concurrency();
  const int hw = hw_raw == 0 ? 1 : static_cast<int>(hw_raw);
  const std::vector<int> counts = SweepCounts();

  std::printf("PARALLEL SCALING over the shared thread pool\n");
  std::printf("hardware_concurrency=%d, default threads=%d, sweep:", hw,
              default_threads);
  for (int c : counts) std::printf(" %d", c);
  std::printf("\n\n");

  // Shared inputs. The DBLP graph matches bench_queryopt's, so the load
  // numbers line up with the index-memory section there.
  workload::DblpOptions opts;
  opts.num_papers = 4000;
  opts.num_authors = 1600;
  opts.num_venues = 8;
  opts.num_affiliations = 40;
  opts.include_periphery = false;
  opts.include_literals = false;

  rdf::TripleStore store;
  if (!workload::GenerateDblp(opts, &store).ok()) return 1;
  gml::TransformOptions topts;
  topts.target_type_iri = workload::DblpSchema::Publication();
  topts.label_predicate_iri = workload::DblpSchema::PublishedIn();
  topts.feature_dim = 64;
  topts.seed = 17;
  auto graph = gml::BuildGraphData(store, topts);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  const tensor::CsrMatrix adj = graph->BuildGcnAdjacency();

  std::vector<SectionResult> sections;
  sections.push_back(BenchMatMul(counts));
  PrintSection(sections.back());
  sections.push_back(BenchSpMM(counts, adj, graph->features));
  PrintSection(sections.back());
  sections.push_back(BenchGcnEpoch(counts, *graph));
  PrintSection(sections.back());
  common::ThreadPool::SetNumThreads(default_threads);

  const LoadSplit load = BenchLoad(opts);
  std::printf("\nload         dblp %zu triples, 6 orders: generate+intern "
              "%.3f ms, one compaction %.3f ms (%llu compaction)\n",
              load.triples, load.generate_ms, load.compact_ms,
              static_cast<unsigned long long>(load.compactions));

  // ---- shape checks ----
  for (const SectionResult& r : sections)
    shape.Check(r.bitwise_identical,
                r.name + ": results bitwise-identical across thread counts");
  shape.Check(load.compactions == 1,
              "load: a bulk load builds the permutation runs once");
  if (hw >= 4) {
    char buf[96];
    for (const SectionResult& r : sections) {
      if (r.name == "gcn_epoch") continue;  // covered by the two kernels
      const double s4 = r.SpeedupAt(4);
      std::snprintf(buf, sizeof(buf), "%s: >= 2.5x at 4 threads (got %.2fx)",
                    r.name.c_str(), s4);
      shape.Check(s4 >= 2.5, buf);
    }
  } else {
    std::printf("\nscaling bars skipped: hardware_concurrency=%d < 4 "
                "(a machine without 4 cores cannot exhibit 4-thread "
                "speedup; determinism checks above still ran)\n",
                hw);
    shape.Check(true, "scaling bars skipped (hardware_concurrency < 4)");
  }

  // ---- machine-readable output ----
  FILE* json = std::fopen("BENCH_parallel.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"hardware_concurrency\": %d,\n"
                 "  \"default_threads\": %d,\n  \"sections\": [\n",
                 hw, default_threads);
    for (size_t i = 0; i < sections.size(); ++i) {
      const SectionResult& r = sections[i];
      std::fprintf(json,
                   "    {\"name\": \"%s\", \"shape\": \"%s\", "
                   "\"bitwise_identical\": %s,\n     \"threads\": [",
                   r.name.c_str(), r.shape.c_str(),
                   r.bitwise_identical ? "true" : "false");
      for (size_t j = 0; j < r.samples.size(); ++j)
        std::fprintf(json, "%s{\"n\": %d, \"ms\": %.4f}",
                     j > 0 ? ", " : "", r.samples[j].threads,
                     r.samples[j].ms);
      std::fprintf(json, "],\n     \"speedup_at_4\": %.3f}%s\n",
                   r.SpeedupAt(4), i + 1 < sections.size() ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n  \"load\": {\"triples\": %zu, \"generate_ms\": "
                 "%.4f, \"compact_ms\": %.4f, \"compactions\": %llu}\n}\n",
                 load.triples, load.generate_ms, load.compact_ms,
                 static_cast<unsigned long long>(load.compactions));
    std::fclose(json);
    std::printf("\nwrote BENCH_parallel.json\n");
  }
  return shape.Report() == 0 ? 0 : 1;
}
