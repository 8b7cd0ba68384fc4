// kgnet_perfbench: the repository benchmark (see perfbench/README.md).
//
//   kgnet_perfbench --workload read_mix|train_pipeline
//                   --seed N --seconds S --trace 0|1 [--git-sha SHA]
//                   [--spans PATH]
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// prints the per-layer metrics of a traced run and writes its spans. The
// last stdout line is one JSON object {correct, attempted, failed,
// metrics}. A wrong answer anywhere makes the exit code non-zero.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "perfbench/src/bench.h"
#include "perfbench/src/histogram.h"

#ifndef KGNET_PERFBENCH_BUILD_TYPE
#define KGNET_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace kgnet::perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

int Senders(Workload w) { return w == Workload::kTrainPipeline ? 3 : 4; }

Status RunJob(serving::KgClient* client, core::KgNet* kg, const TrainJob& job,
              JobRun* out) {
  out->label = job.label;
  const int64_t t0 = NowNs();
  KGNET_ASSIGN_OR_RETURN(serving::QueryResponse r, client->Query(job.text));
  out->wall_s = Seconds(NowNs() - t0);
  if (r.result.rows.size() != 1 || r.result.rows[0].size() != 3)
    return Status::Internal("TrainGML " + job.label + ": unexpected response");
  out->model_uri = r.result.rows[0][0].lexical;
  out->metric = std::atof(r.result.rows[0][1].lexical.c_str());
  KGNET_ASSIGN_OR_RETURN(core::ModelInfo info,
                         kg->service().kgmeta().Get(out->model_uri));
  out->peak_bytes = info.train_memory_bytes;
  return Status::OK();
}

Status SetUp(Workload w, Served* out) {
  const int64_t t0 = NowNs();
  out->kg = std::make_unique<core::KgNet>();
  const workload::DblpOptions kg_opts = KgOptions(w);
  KGNET_RETURN_IF_ERROR(workload::GenerateDblp(kg_opts, &out->kg->store()));
  out->kg->store().Compact();
  out->load_s = Seconds(NowNs() - t0);
  serving::ServerOptions options;
  options.num_workers = 4;
  out->server =
      std::make_unique<serving::KgServer>(&out->kg->service(), options);
  KGNET_RETURN_IF_ERROR(out->server->Start());
  out->setup_s = Seconds(NowNs() - t0);

  // Popularity order is fixed like the KG, so every seed sees the same
  // hot set; the seed draws the arrivals, the mix and the Zipf ranks.
  tensor::Rng rng(kKgSeed);
  auto ranked = [&rng](const char* kind, size_t n) {
    std::vector<std::string> v(n);
    for (size_t i = 0; i < n; ++i)
      v[i] = std::string(workload::kDblpNs) + kind + "/" + std::to_string(i);
    std::shuffle(v.begin(), v.end(), rng.generator());
    return v;
  };
  out->state.papers = ranked("publication", kg_opts.num_papers);
  out->state.persons = ranked("person", kg_opts.num_authors);
  out->state.venues = ranked("venue", kg_opts.num_venues);
  return Status::OK();
}

void RunTrainLoop(int port, core::KgNet* kg, Workload w,
                  const std::atomic<bool>* stop, TrainLoop* out) {
  serving::KgClient client;
  client.set_timeout_ms(120000);
  out->status = client.Connect("127.0.0.1", port);
  if (!out->status.ok()) out->failed.store(true);
  const std::vector<TrainJob> jobs = TrainJobs(w);
  while (out->status.ok() && !stop->load()) {
    const int64_t t0 = NowNs();
    for (const TrainJob& job : jobs) {
      JobRun run;
      out->status = RunJob(&client, kg, job, &run);
      if (!out->status.ok()) {
        out->failed.store(true);
        return;
      }
      out->jobs.push_back(run);
    }
    out->pass_s.push_back(Seconds(NowNs() - t0));
    out->pass_end_ns.push_back(NowNs());
    // Untimed: drop the pass's models so memory does not grow per pass.
    for (const char* family : {"NodeClassifier", "LinkPredictor"}) {
      auto del = client.Query(DeleteModelsQuery(family));
      if (!del.ok()) {
        out->status = del.status();
        out->failed.store(true);
        return;
      }
    }
    out->passes.fetch_add(1);
  }
}

namespace {

struct Args {
  Workload workload = Workload::kReadMix;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload_name = v;
      if (v == "read_mix") a->workload = Workload::kReadMix;
      else if (v == "train_pipeline") a->workload = Workload::kTrainPipeline;
      else return false;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--git-sha") {
      a->git_sha = v;
    } else if (k == "--spans") {
      a->spans = v;
    } else {
      return false;
    }
  }
  return !a->workload_name.empty() && a->seconds > 0;
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::atof(line.c_str() + 6) / 1024.0;
  return 0;
}

/// A percentile with its support, warning when fewer than 10 samples lie
/// beyond a p99.
double ReportPercentile(const char* what, const Histogram& h, double p) {
  const double ms = static_cast<double>(h.Percentile(p)) / 1e6;
  const uint64_t beyond = h.Beyond(p);
  std::printf("  %-18s p%-4g = %9.4f ms  (n=%llu, beyond=%llu)%s\n", what, p,
              ms, static_cast<unsigned long long>(h.count()),
              static_cast<unsigned long long>(beyond),
              p >= 99 && beyond < 10 ? "  WARNING: <10 samples beyond" : "");
  return ms;
}

}  // namespace

double SaturationQps(const PhaseResult& r) {
  // The median over 250 ms windows of the completion rate skips the ramp
  // while a machine that idled through lighter load speeds back up.
  std::vector<double> per_window(static_cast<size_t>(r.seconds * 4), 0);
  for (const Sample& s : r.samples) {
    if (s.outcome != Outcome::kOk || s.recv_ns < r.start_ns) continue;
    const size_t k = static_cast<size_t>((s.recv_ns - r.start_ns) / 250'000'000);
    if (k < per_window.size()) per_window[k] += 4;
  }
  return Median(per_window);
}

std::vector<Metric> OpenLoopLatencies(const PhaseResult& r) {
  const Histogram all = r.Latency();
  ReportPercentile("all", all, 50);
  ReportPercentile("all", all, 90);
  ReportPercentile("all", all, 99);
  // The reported figures are medians over equal time slices of the phase:
  // a stall or a slow spell of the machine moves the slices it covers,
  // not the figure. p99 needs the longer slices for its support.
  auto sliced = [&r](double slice_s, double p) {
    const int slices = std::max(1, static_cast<int>(r.seconds / slice_s));
    const int64_t span = static_cast<int64_t>(r.seconds * 1e9);
    std::vector<double> per_slice;
    for (int k = 0; k < slices; ++k) {
      Histogram h;
      const int64_t lo = r.start_ns + span * k / slices;
      const int64_t hi = r.start_ns + span * (k + 1) / slices;
      for (const Sample& s : r.samples)
        if (s.outcome != Outcome::kUnsent && s.due_ns >= lo && s.due_ns < hi)
          h.Record(static_cast<uint64_t>(s.recv_ns - s.due_ns));
      per_slice.push_back(static_cast<double>(h.Percentile(p)) / 1e6);
    }
    std::printf("  %-18s p%-4g by slice:", "all", p);
    for (double v : per_slice) std::printf(" %.4f", v);
    std::printf(" ms\n");
    return Median(per_slice);
  };
  return {
      {"p50_ms", sliced(2, 50), "ms"},
      {"p90_ms", sliced(2, 90), "ms"},
      {"p99_ms", sliced(4, 99), "ms"},
      {"late_p99_ms", static_cast<double>(r.Lateness().Percentile(99)) / 1e6,
       "ms"},
  };
}

namespace {

bool StreamSelfCheck(uint64_t seed) {
  ServedState st;
  for (int i = 0; i < 50; ++i) {
    st.papers.push_back("p" + std::to_string(i));
    st.persons.push_back("a" + std::to_string(i));
    st.venues.push_back("v" + std::to_string(i % 5));
  }
  auto digest = [&st](uint64_t s) {
    Oracle o;
    StreamGen gen(s, &st, &o);
    return StreamDigest(gen.Phase(1000, 0.5));
  };
  const uint64_t a = digest(seed), b = digest(seed), c = digest(seed + 1);
  std::printf("# self-check stream digest: seed %llu -> %016llx (repeat %s, "
              "seed+1 %s)\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(a), a == b ? "same" : "DIFFERS",
              a != c ? "differs" : "SAME");
  return a == b && a != c;
}

int Untraced(const Args& args, std::vector<Metric>* metrics, bool* correct,
             uint64_t* attempted, uint64_t* failed) {
  const Workload w = args.workload;
  // Set-up is repeated and its median reported, so that work moved into
  // set-up shows without one slow set-up deciding the figure. Half the
  // set-ups run after the measured phase, so that a slow spell of the
  // host at the start of a run does not decide it either.
  constexpr int kSetupsBefore = 8, kSetupsAfter = 7;
  std::vector<double> setup_times;
  Served served;
  auto set_up = [&](int reps) {
    for (int r = 0; r < reps; ++r) {
      served = Served();  // tear the previous system down first
      Status st = SetUp(w, &served);
      if (!st.ok()) {
        std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
        return false;
      }
      setup_times.push_back(served.setup_s);
    }
    return true;
  };
  if (!set_up(kSetupsBefore)) return 1;
  std::printf("# KG: %zu triples, %zu terms\n", served.kg->store().size(),
              served.kg->store().dict().num_terms());
  const int port = served.server->port();
  const int senders = Senders(w);
  const double rate = kFixedQps;
  const double fixed_s = args.seconds * kFixedShare;
  Oracle oracle;
  StreamGen gen(args.seed, &served.state, &oracle);
  const std::vector<Request> warm = gen.Phase(rate, kWarmS);
  const std::vector<Request> fixed = gen.Phase(rate, fixed_s);
  std::printf("# stream digest %016llx (%zu fixed-rate requests)\n",
              static_cast<unsigned long long>(StreamDigest(fixed)),
              fixed.size());
  Status ost = ComputeOracle(served.kg.get(), &oracle);
  if (!ost.ok()) {
    std::fprintf(stderr, "oracle failed: %s\n", ost.ToString().c_str());
    return 1;
  }

  std::atomic<bool> stop{false};
  TrainLoop train;
  std::thread trainer;
  if (w == Workload::kTrainPipeline)
    trainer = std::thread(RunTrainLoop, port, served.kg.get(), w, &stop,
                          &train);

  Checker checker(&oracle);
  PhaseResult warm_r, fixed_r;
  Status st = RunPhase(port, warm, senders, kWarmS, 1.0, &checker, &warm_r);
  if (st.ok())
    st = RunPhase(port, fixed, senders, fixed_s, 1.0, &checker, &fixed_r);
  uint64_t wrong = warm_r.wrong + fixed_r.wrong;
  const int64_t fixed_end =
      fixed_r.start_ns + static_cast<int64_t>(fixed_s * 1e9);
  if (w == Workload::kTrainPipeline) {
    while (!train.failed.load() && train.passes.load() < 3)
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stop.store(true);
    trainer.join();
  }
  if (!st.ok() || !train.status.ok()) {
    std::fprintf(stderr, "run failed: %s %s\n", st.ToString().c_str(),
                 train.status.ToString().c_str());
    return 1;
  }

  std::printf("# fixed-rate phase: %.0f req/s offered for %.1f s, %d "
              "connections, latency from intended send time\n",
              rate, fixed_s, senders);
  std::vector<Metric> latencies = OpenLoopLatencies(fixed_r);

  // train_pipeline's job list: printed, not gated (see README.md).
  const std::vector<JobRun>& jobs = train.jobs;
  if (!jobs.empty()) {
    // Wall time of the passes that ran beside the open-loop reads.
    std::vector<double> with_reads;
    for (size_t i = 0; i < train.pass_s.size(); ++i)
      if (train.pass_end_ns[i] <= fixed_end)
        with_reads.push_back(train.pass_s[i]);
    std::printf("# train: job list %.3f s (median of %zu passes)\n",
                Median(with_reads), with_reads.size());
    for (const JobRun& j : jobs) {
      std::printf("  job %-8s %7.3f s  metric %.4f  peak %.2f MB\n",
                  j.label.c_str(), j.wall_s, j.metric,
                  static_cast<double>(j.peak_bytes) / 1e6);
    }
    // Training is deterministic at the fixed KG: every pass must report
    // the same model quality.
    const size_t per_pass = TrainJobs(w).size();
    for (size_t i = per_pass; i < jobs.size(); ++i)
      if (jobs[i].metric != jobs[i % per_pass].metric) {
        std::printf("  WRONG: job %s metric changed between passes\n",
                    jobs[i].label.c_str());
        ++wrong;
      }
  }

  if (!set_up(kSetupsAfter)) return 1;
  std::printf("# setup %.3f s (median of %zu, range %.3f-%.3f)\n",
              Median(setup_times), setup_times.size(),
              *std::min_element(setup_times.begin(), setup_times.end()),
              *std::max_element(setup_times.begin(), setup_times.end()));

  const uint64_t att = fixed_r.attempted + fixed_r.unsent + jobs.size();
  const uint64_t fail = fixed_r.failed + fixed_r.unsent + fixed_r.wrong;
  *attempted = att;
  *failed = fail;
  *correct = wrong == 0;
  for (const std::string& n : checker.notes())
    std::printf("  note: %s\n", n.c_str());
  const double success = 1.0 - static_cast<double>(fail) /
                                   static_cast<double>(std::max<uint64_t>(att, 1));
  *metrics = {
      {"setup_s", Median(setup_times), "s"},
      {"success_share", success, "share"},
  };
  // Every open-loop request is a plain read. p99 is printed above and
  // reported by the traced run, but spreads too far between runs to gate.
  for (const Metric& m : latencies)
    if (m.name == "p50_ms" || m.name == "p90_ms")
      metrics->push_back({"read_" + m.name, m.value, m.unit});
  metrics->push_back({"rss_mb", PeakRssMb(), "MB"});
  return 0;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("METRIC %-32s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(num, sizeof(num), "%.17g", v);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + num +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace kgnet::perfbench

int main(int argc, char** argv) {
  using namespace kgnet::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: kgnet_perfbench --workload read_mix|train_pipeline "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  const char* threads_env = std::getenv("KGNET_NUM_THREADS");
  const std::string stamp =
      std::string("{\"stamp\": true, \"workload\": \"") + args.workload_name +
      "\", \"seed\": " + std::to_string(args.seed) +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"KGNET_NUM_THREADS\": \"" +
      (threads_env != nullptr ? threads_env : "unset") +
      "\", \"pool_threads\": " +
      std::to_string(kgnet::common::ThreadPool::num_threads()) +
      ", \"build_type\": \"" + KGNET_PERFBENCH_BUILD_TYPE +
      "\", \"git_sha\": \"" + args.git_sha + "\"}";
  std::printf("# %s\n", stamp.c_str());

  // Timings from an unoptimized or sanitized build mean nothing.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  std::fprintf(stderr, "refusing to run: sanitizer build\n");
  return 2;
#endif
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr, "refusing to run: unoptimized build\n");
  return 2;
#endif
  const std::string build_type = KGNET_PERFBENCH_BUILD_TYPE;
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    std::fprintf(stderr, "refusing to run: build type %s\n",
                 build_type.c_str());
    return 2;
  }

  std::string why;
  if (!Histogram::SelfCheck(args.seed, &why)) {
    std::fprintf(stderr, "histogram self-check failed: %s\n", why.c_str());
    return 1;
  }
  std::printf("# self-check histogram vs exact percentiles: ok\n");
  if (!StreamSelfCheck(args.seed)) return 1;

  std::vector<Metric> metrics;
  bool correct = false;
  uint64_t attempted = 0, failed = 0;
  int rc = 0;
  if (args.trace) {
    const std::string spans =
        args.spans.empty() ? ".bench_spans-" + args.workload_name + "-" +
                                 std::to_string(args.seed) + ".jsonl"
                           : args.spans;
    kgnet::Status st = TracedRun(args.workload, args.seed, args.seconds, spans,
                                 stamp, &metrics, &correct, &attempted,
                                 &failed);
    if (!st.ok()) {
      std::fprintf(stderr, "traced run failed: %s\n", st.ToString().c_str());
      return 1;
    }
  } else {
    rc = Untraced(args, &metrics, &correct, &attempted, &failed);
    if (rc != 0) return rc;
  }
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
