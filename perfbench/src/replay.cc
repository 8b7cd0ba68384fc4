// The traced run: the untraced run's open-loop part with client-side
// request spans, then one thread replaying the same requests through
// each layer's public entry points in the order the server calls them,
// then fixed probes of the layers the stream does not reach. Spans are
// taken only in the benchmark's own code, around calls into the layers.
#include <algorithm>
#include <atomic>
#include <map>
#include <thread>

#include "core/meta_sampler.h"
#include "core/method_selector.h"
#include "gml/graph_data.h"
#include "perfbench/src/bench.h"
#include "serving/protocol.h"
#include "sparql/parser.h"
#include "tensor/csr_matrix.h"
#include "tensor/matrix.h"

namespace kgnet::perfbench {

namespace {

/// The median stage sum of a replayed TrainGML job may differ from the
/// median wall time of the same job sent over the wire by at most this
/// share; a larger gap is a failed check. Both run alone on the machine,
/// kJobReps times each, but the wire run also registers the model.
constexpr double kStageTolerance = 0.5;
constexpr int kJobReps = 5;

/// Sums and counts for per-layer means.
struct Acc {
  double sum = 0;
  double n = 0;
  void Add(double v) {
    sum += v;
    n += 1;
  }
  double Mean() const { return n > 0 ? sum / n : 0; }
};

struct ReplayStats {
  Acc parse_us, encode_us, bytes, sparql_parse_us, plan_us, exec_us;
  double rows_scanned = 0, rows_out = 0;
  std::map<uint32_t, int64_t> handle_ns;  // rid -> in-process handling
  std::vector<sparql::Query> plain_reads;  // for the dirty-store re-run
  uint64_t wrong = 0;
};

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Replays one plain read the way KgServer::HandleBody handles it.
void ReplayOne(const Request& req, uint32_t rid, core::KgNet* kg,
               const Oracle& oracle, SpanRecorder* rec, ReplayStats* st) {
  sparql::QueryEngine& engine = kg->service().engine();
  rec->Begin("serving", "handle", rid);
  rec->Begin("serving", "request_parse", rid);
  Result<serving::Request> parsed = serving::ParseRequest(req.body);
  st->parse_us.Add(Us(rec->End()));
  Result<sparql::Query> q = Status::Internal("not a query request");
  if (parsed.ok() && parsed->op == serving::Request::Op::kQuery) {
    rec->Begin("sparql", "parse", rid);
    q = sparql::ParseQuery(parsed->query);
    st->sparql_parse_us.Add(Us(rec->End()));
  }
  if (!q.ok() || serving::KgServer::RoutesToService(*q, parsed->query)) {
    ++st->wrong;
    st->handle_ns[rid] = rec->End();
    return;
  }
  rec->Begin("sparql", "plan", rid);
  (void)engine.Explain(*q);
  st->plan_us.Add(Us(rec->End()));
  rec->Begin("rdf", "snapshot_open", rid);
  const rdf::Snapshot snap = kg->store().OpenSnapshot();
  rec->End();
  rec->Begin("sparql", "exec", rid);
  Result<sparql::QueryResult> r = engine.Execute(*q, snap);
  st->exec_us.Add(Us(rec->End()));
  if (r.ok()) {
    st->rows_out += static_cast<double>(r->rows.size());
    if (RowsDigest(*r) != oracle.digest(req.key)) ++st->wrong;
    sparql::ExecInfo info;
    info.snapshot_epoch = snap.epoch();
    info.snapshot_delta = snap.delta_size();
    rec->Begin("serving", "response_encode", rid);
    const std::string resp =
        serving::BuildQueryResponse(parsed->id, *r, &info);
    st->encode_us.Add(Us(rec->End()));
    st->bytes.Add(static_cast<double>(resp.size()));
  } else {
    ++st->wrong;
  }
  st->handle_ns[rid] = rec->End();
  // Outside every span: the executor's counters need an ExecInfo, which
  // turns off the single-pattern fast path the timed run used.
  sparql::ExecInfo info;
  (void)engine.Execute(*q, snap, &info);
  st->rows_scanned += static_cast<double>(info.rows_scanned);
  if (st->plain_reads.size() < 400) st->plain_reads.push_back(*q);
}

/// Stage timings of one replayed TrainGML job (the pipeline of
/// GmlTrainingManager::TrainTask, stage by stage).
struct StageRun {
  double total_s = 0, metasample_ms = 0, transform_ms = 0, select_us = 0;
  double epoch_ms = 0, subgraph_share = 1;
  size_t nodes = 0, dim = 0, hidden = 0;
  tensor::CsrMatrix adj;  // NC jobs: the GCN adjacency, for the SpMM probe
};

Status ReplayJob(const TrainJob& job, core::KgNet* kg, SpanRecorder* rec,
                 StageRun* out) {
  const core::TrainTaskSpec& spec = job.spec;
  rec->Begin("core", "train_job." + job.label, -1);
  const rdf::TripleStore* store = &kg->store();
  std::unique_ptr<rdf::TripleStore> sub;
  if (spec.use_meta_sampling) {
    core::MetaSampleSpec ms;
    ms.target_type_iri = spec.target_type_iri;
    ms.supervision_predicate_iris = {
        spec.task == gml::TaskType::kNodeClassification
            ? spec.label_predicate_iri
            : spec.task_predicate_iri};
    ms.direction = *spec.direction;
    ms.hops = spec.hops;
    core::MetaSampleStats stats;
    rec->Begin("core", "metasample", -1);
    KGNET_ASSIGN_OR_RETURN(sub,
                           core::MetaSampler(store).Extract(ms, &stats));
    out->metasample_ms = static_cast<double>(rec->End()) / 1e6;
    out->subgraph_share = 1.0 - stats.reduction_ratio();
    store = sub.get();
  }
  gml::TransformOptions topts;
  topts.target_type_iri = spec.target_type_iri;
  if (spec.task == gml::TaskType::kNodeClassification) {
    topts.label_predicate_iri = spec.label_predicate_iri;
  } else {
    topts.task_predicate_iri = spec.task_predicate_iri;
    topts.destination_type_iri = spec.destination_type_iri;
  }
  topts.feature_dim = spec.config.embed_dim;
  topts.seed = spec.config.seed;
  rec->Begin("gml", "transform", -1);
  KGNET_ASSIGN_OR_RETURN(gml::GraphData graph,
                         gml::BuildGraphData(*store, topts));
  out->transform_ms = static_cast<double>(rec->End()) / 1e6;
  rec->Begin("core", "select", -1);
  const core::GraphSummary summary = core::GraphSummary::FromGraph(graph);
  KGNET_ASSIGN_OR_RETURN(
      core::Selection sel,
      core::MethodSelector::Select(spec.task, summary, spec.config,
                                   spec.budget));
  sel.method = *spec.forced_method;
  out->select_us = static_cast<double>(rec->End()) / 1e3;
  gml::TrainReport report;
  rec->Begin("gml", "train", -1);
  if (spec.task == gml::TaskType::kNodeClassification) {
    KGNET_ASSIGN_OR_RETURN(auto m, gml::MakeNodeClassifier(sel.method));
    KGNET_RETURN_IF_ERROR(m->Train(graph, spec.config, &report));
  } else {
    KGNET_ASSIGN_OR_RETURN(auto m, gml::MakeLinkPredictor(sel.method));
    KGNET_RETURN_IF_ERROR(m->Train(graph, spec.config, &report));
  }
  rec->End();
  out->epoch_ms = report.epochs_run > 0
                      ? report.train_seconds * 1e3 /
                            static_cast<double>(report.epochs_run)
                      : 0;
  out->total_s = static_cast<double>(rec->End()) / 1e9;
  out->nodes = graph.num_nodes;
  out->dim = spec.config.embed_dim;
  out->hidden = spec.config.hidden_dim;
  if (spec.task == gml::TaskType::kNodeClassification)
    out->adj = graph.BuildGcnAdjacency();
  return Status::OK();
}

}  // namespace

Status TracedRun(Workload w, uint64_t seed, double seconds,
                 const std::string& spans_path, const std::string& stamp,
                 std::vector<Metric>* metrics, bool* correct,
                 uint64_t* attempted, uint64_t* failed) {
  Served served;
  KGNET_RETURN_IF_ERROR(SetUp(w, &served));
  core::KgNet* kg = served.kg.get();
  serving::KgServer& server = *served.server;
  const int port = server.port();
  const int senders = Senders(w);
  const double rate = kFixedQps;
  const double fixed_s = seconds * kFixedShare;

  // ---- open-loop part: the untraced run's warm-up and fixed phase ----
  Oracle oracle;
  StreamGen gen(seed, &served.state, &oracle);
  const std::vector<Request> warm = gen.Phase(rate, kWarmS);
  const std::vector<Request> fixed = gen.Phase(rate, fixed_s);
  // Capacity: the stream offered past saturation for kSatS seconds.
  constexpr double kSatS = 5.0;
  const std::vector<Request> saturate = gen.Phase(kSaturationQps, kSatS);
  KGNET_RETURN_IF_ERROR(ComputeOracle(kg, &oracle));
  std::atomic<bool> stop{false};
  TrainLoop train;
  std::thread trainer;
  if (w == Workload::kTrainPipeline)
    trainer = std::thread(RunTrainLoop, port, kg, w, &stop, &train);
  Checker checker(&oracle);
  PhaseResult warm_r, fixed_r;
  Status st = RunPhase(port, warm, senders, kWarmS, 1.0, &checker, &warm_r);
  if (st.ok())
    st = RunPhase(port, fixed, senders, fixed_s, 1.0, &checker, &fixed_r);
  const serving::KgServer::Stats sstats = server.stats();
  PhaseResult sat_r;
  if (st.ok())
    st = RunPhase(port, saturate, senders, kSatS, 1.0, &checker, &sat_r);
  if (w == Workload::kTrainPipeline) {
    while (!train.failed.load() && train.passes.load() < 1)
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stop.store(true);
    trainer.join();
  }
  KGNET_RETURN_IF_ERROR(st);
  KGNET_RETURN_IF_ERROR(train.status);
  uint64_t wrong = warm_r.wrong + fixed_r.wrong + sat_r.wrong;
  *attempted = fixed_r.attempted + fixed_r.unsent;
  *failed = fixed_r.failed + fixed_r.unsent + fixed_r.wrong;

  SpanRecorder rec;
  for (const Sample& s : fixed_r.samples) {
    if (s.outcome == Outcome::kUnsent) continue;
    const int64_t parent = static_cast<int64_t>(rec.spans().size());
    rec.Add({"loadgen.request", "loadgen", s.due_ns, s.recv_ns, -1, s.rid});
    rec.Add({"loadgen.wait", "loadgen", s.due_ns, s.sent_ns, parent, s.rid});
    rec.Add({"loadgen.call", "loadgen", s.sent_ns, s.recv_ns, parent, s.rid});
  }

  // ---- idle single-connection round trips (serving.wire_us) ----
  std::vector<uint32_t> wire_rids;
  std::map<uint32_t, int64_t> rtt_ns;
  {
    serving::KgClient client;
    KGNET_RETURN_IF_ERROR(client.Connect("127.0.0.1", port));
    for (uint32_t i = 0; i < fixed.size() && i < 200; ++i) {
      const int64_t t0 = NowNs();
      KGNET_RETURN_IF_ERROR(client.Call(fixed[i].body).status());
      rtt_ns[i] = NowNs() - t0;
      wire_rids.push_back(i);
    }
  }

  // ---- in-process replay of the fixed-phase stream ----
  ReplayStats rs;
  const uint32_t n_replay =
      static_cast<uint32_t>(std::min<size_t>(fixed.size(), 3000));
  for (uint32_t i = 0; i < n_replay; ++i)
    ReplayOne(fixed[i], i, kg, oracle, &rec, &rs);
  wrong += rs.wrong;
  std::vector<double> wire;
  for (uint32_t rid : wire_rids) {
    auto it = rs.handle_ns.find(rid);
    if (it != rs.handle_ns.end())
      wire.push_back(Us(rtt_ns[rid] - it->second));
  }

  // ---- rdf probes ----
  rdf::TripleStore& store = kg->store();
  double scan_ns_per_row = 0, dict_lookup_ns = 0;
  {
    rdf::TriplePattern pat;
    pat.p = store.dict().FindIri(workload::DblpSchema::AuthoredBy());
    const rdf::Snapshot snap = store.OpenSnapshot();
    size_t rows = 0;
    rec.Begin("rdf", "scan", -1);
    for (int rep = 0; rep < 20; ++rep) {
      rdf::TripleCursor c = snap.OpenCursor(rdf::IndexOrder::kPos, pat);
      rdf::Triple t;
      while (c.Next(&t)) ++rows;
    }
    scan_ns_per_row = static_cast<double>(rec.End()) /
                      static_cast<double>(std::max<size_t>(rows, 1));
    const size_t terms = store.dict().num_terms();
    size_t bytes = 0;
    const size_t lookups = 200000;
    rec.Begin("rdf", "dict_lookup", -1);
    for (size_t i = 0; i < lookups; ++i)
      bytes += store.dict()
                   .Lookup(static_cast<rdf::TermId>(1 + (i * 7919) % terms))
                   .lexical.size();
    dict_lookup_ns = static_cast<double>(rec.End()) /
                     static_cast<double>(lookups);
    if (bytes == 0) ++wrong;  // keeps the lookups observable
  }
  const double index_bytes_per_triple =
      static_cast<double>(store.TotalIndexBytes()) /
      static_cast<double>(std::max<size_t>(store.size(), 1));

  // Dirty store: region groups appended without compaction, then the
  // replayed plain reads again over the delta. The groups are then read
  // back (whole-group invariant) and deleted through the service, which
  // must report every group's triple count.
  Acc insert_us, open_us, dirty_us;
  size_t delta_entries = 0;
  double compact_ms = 0;
  {
    constexpr int kGroups = 400;
    const rdf::Term item = rdf::Term::Iri(std::string(kRegionNs) + "item");
    const rdf::Term marker = rdf::Term::Iri(std::string(kRegionNs) + "marker");
    const rdf::Term on = rdf::Term::Iri(std::string(kRegionNs) + "on");
    auto group_iri = [](int g) {
      return std::string(kRegionNs) + "probe/" + std::to_string(g);
    };
    for (int g = 0; g < kGroups; ++g) {
      const rdf::Term grp = rdf::Term::Iri(group_iri(g));
      for (uint32_t i = 0; i <= kGroupItems; ++i) {
        const rdf::Term obj =
            i == kGroupItems ? on
                             : rdf::Term::Iri(std::string(kRegionNs) + "pv/" +
                                              std::to_string(g * 16 + i));
        rec.Begin("rdf", "insert", -1);
        store.Insert(grp, i == kGroupItems ? marker : item, obj);
        insert_us.Add(Us(rec.End()));
      }
      if (g % 8 == 0) {
        rec.Begin("rdf", "snapshot_open", -1);
        const rdf::Snapshot s = store.OpenSnapshot();
        open_us.Add(Us(rec.End()));
        delta_entries = s.delta_size();
      }
    }
    const rdf::Snapshot snap = store.OpenSnapshot();
    for (const sparql::Query& q : rs.plain_reads) {
      rec.Begin("sparql", "exec_dirty", -1);
      auto r = kg->service().engine().Execute(q, snap);
      dirty_us.Add(Us(rec.End()));
      if (!r.ok()) ++wrong;
    }
    auto region = kg->service().Execute(RegionReadQuery());
    std::string why;
    if (!region.ok() || !RegionAtomic(*region, &why) ||
        region->rows.size() != kGroups * kGroupItems) {
      std::printf("  WRONG: dirty-store region read: %s\n",
                  region.ok() ? why.c_str() : region.status().ToString().c_str());
      ++wrong;
    }
    for (int g = 0; g < kGroups; ++g) {
      rec.Begin("core", "update", -1);
      auto del = kg->service().Execute(GroupDeleteQuery(group_iri(g)));
      rec.End();
      if (!del.ok() || del->num_deleted != kGroupItems + 1) {
        std::printf("  WRONG: group %d delete: %s\n", g,
                    del.ok() ? (std::to_string(del->num_deleted) +
                                " triples deleted")
                                   .c_str()
                             : del.status().ToString().c_str());
        ++wrong;
      }
    }
    rec.Begin("rdf", "compact", -1);
    store.Compact();
    compact_ms = static_cast<double>(rec.End()) / 1e6;
  }
  const double compactions = static_cast<double>(store.GetStats().compactions);

  // ---- training pipeline: each job over the wire, then stage by stage ----
  const std::vector<TrainJob> jobs = TrainJobs(w);
  std::vector<JobRun> wire_jobs(jobs.size());
  std::vector<StageRun> stages(jobs.size());
  Acc metasample_ms, subgraph_share, select_us, transform_ms, epoch_ms;
  Acc model_metric;
  double worst_gap = 0, train_peak_mb = 0;
  {
    serving::KgClient client;
    client.set_timeout_ms(120000);
    KGNET_RETURN_IF_ERROR(client.Connect("127.0.0.1", port));
    for (size_t i = 0; i < jobs.size(); ++i) {
      std::vector<double> wire_s, stage_s;
      for (int r = 0; r < kJobReps; ++r) {
        JobRun run;
        KGNET_RETURN_IF_ERROR(RunJob(&client, kg, jobs[i], &run));
        if (r == 0) wire_jobs[i] = run;  // its model serves the probes
        wire_s.push_back(run.wall_s);
        KGNET_RETURN_IF_ERROR(ReplayJob(jobs[i], kg, &rec, &stages[i]));
        const StageRun& s = stages[i];
        stage_s.push_back(s.total_s);
        if (jobs[i].spec.use_meta_sampling) {
          metasample_ms.Add(s.metasample_ms);
          subgraph_share.Add(s.subgraph_share);
        }
        select_us.Add(s.select_us);
        transform_ms.Add(s.transform_ms);
        epoch_ms.Add(s.epoch_ms);
      }
      model_metric.Add(wire_jobs[i].metric);
      train_peak_mb = std::max(
          train_peak_mb, static_cast<double>(wire_jobs[i].peak_bytes) / 1e6);
      const double ws = Median(wire_s), ss = Median(stage_s);
      const double gap = std::abs(ss - ws) / ws;
      worst_gap = std::max(worst_gap, gap);
      std::printf("  span-check %-8s stages %.3f s vs wire %.3f s (medians "
                  "of %d): gap %.1f%% (tolerance %.0f%%) %s\n",
                  jobs[i].label.c_str(), ss, ws, kJobReps, gap * 100,
                  kStageTolerance * 100,
                  gap <= kStageTolerance ? "ok" : "WRONG");
      if (gap > kStageTolerance) ++wrong;
    }
  }

  // ---- tensor kernels at the first NC job's shapes ----
  double gflops = 0, spmm_ms = 0;
  {
    const StageRun& s = stages[0];
    tensor::Rng rng(7);
    tensor::Matrix x(s.nodes, s.dim), wgt(s.dim, s.hidden);
    x.XavierInit(&rng);
    wgt.XavierInit(&rng);
    const int reps = 20;
    rec.Begin("tensor", "matmul", -1);
    float sink = 0;
    for (int r = 0; r < reps; ++r)
      sink += tensor::Matrix::MatMul(x, wgt).At(0, 0);
    const double mm_ns = static_cast<double>(rec.End());
    gflops = 2.0 * static_cast<double>(s.nodes * s.dim * s.hidden) * reps /
             mm_ns;
    rec.Begin("tensor", "spmm", -1);
    for (int r = 0; r < reps; ++r) sink += s.adj.SpMM(x).At(0, 0);
    spmm_ms = static_cast<double>(rec.End()) / 1e6 / reps;
    if (!std::isfinite(sink)) ++wrong;
  }

  // ---- core inference and SPARQL-ML probes, on the wire-trained models ----
  const std::string& nc = wire_jobs[0].model_uri;
  const std::string& lp = wire_jobs[1].model_uri;
  Acc batch_us, similar_us, opt_us, mlexec_us, calls;
  core::InferenceManager& im = kg->service().inference_manager();
  const ServedState& ss = served.state;
  for (int r = 0; r < 50; ++r) {
    std::vector<std::string> nodes;
    for (int k = 0; k < 8; ++k)
      nodes.push_back(ss.papers[static_cast<size_t>(r * 8 + k) %
                                ss.papers.size()]);
    rec.Begin("core", "infer_batch", -1);
    auto b = im.GetNodeClassBatch(nc, nodes);
    batch_us.Add(Us(rec.End()));
    if (!b.ok()) ++wrong;
    rec.Begin("core", "infer_similar", -1);
    auto sim = im.GetSimilarEntities(
        lp, ss.persons[static_cast<size_t>(r) % ss.persons.size()], 5);
    similar_us.Add(Us(rec.End()));
    if (!sim.ok()) ++wrong;
    const std::string& paper = ss.papers[static_cast<size_t>(r)];
    const std::string q =
        "PREFIX dblp: <https://dblp.org/rdf/> PREFIX kgnet: "
        "<https://www.kgnet.com/> SELECT ?paper ?venue WHERE { ?paper "
        "dblp:title \"Paper " +
        paper.substr(paper.rfind('/') + 1) +
        "\" . ?paper ?NC ?venue . ?NC a kgnet:NodeClassifier . ?NC "
        "kgnet:TargetNode dblp:Publication . ?NC kgnet:NodeLabel "
        "dblp:publishedIn . }";
    core::ExecutionStats es;
    rec.Begin("core", "sparqlml", -1);
    auto ml = kg->service().Execute(q, &es);
    rec.End();
    if (!ml.ok()) ++wrong;
    opt_us.Add(es.optimizer_seconds * 1e6);
    mlexec_us.Add(es.execution_seconds * 1e6);
    calls.Add(static_cast<double>(es.http_calls));
  }

  // ---- inference over the wire: the batcher and the embed-row cache ----
  // Every workload sends the same burst (kBurstConns connections sending
  // back to back), so the serving-side inference path is measured even
  // where the stream has no inference.
  constexpr int kBurstConns = 4;
  constexpr int kBurstPerConn = 150;
  std::vector<std::vector<std::pair<std::string, uint64_t>>> burst(
      kBurstConns);  // request body, expected answer digest
  double burst_batchable = 0;
  {
    tensor::Rng rng(seed ^ 0xB0057ull);
    const Zipf papers(ss.papers.size(), kZipfS);
    const Zipf persons(ss.persons.size(), kZipfS);
    for (int c = 0; c < kBurstConns; ++c) {
      for (int i = 0; i < kBurstPerConn; ++i) {
        const double id = static_cast<double>(i + 1);
        std::vector<std::string> want;
        std::string body;
        if (i % 3 == 0) {
          const std::string& n = ss.papers[papers.Sample(&rng)];
          KGNET_ASSIGN_OR_RETURN(std::string v, im.GetNodeClass(nc, n));
          want = {v};
          body = serving::BuildInferRequest(id, "infer_class", nc, n, 1);
        } else {
          const std::string& n = ss.persons[persons.Sample(&rng)];
          const bool links = i % 3 == 1;
          KGNET_ASSIGN_OR_RETURN(want, links ? im.GetTopKLinks(lp, n, 3)
                                             : im.GetSimilarEntities(lp, n, 5));
          body = serving::BuildInferRequest(
              id, links ? "infer_links" : "infer_similar", lp, n, links ? 3 : 5);
        }
        if (i % 3 != 2) burst_batchable += 1;
        burst[c].emplace_back(std::move(body), ValuesDigest(want));
      }
    }
  }
  const double batched0 = static_cast<double>(server.batcher().batched_calls());
  const double coalesced0 =
      static_cast<double>(server.batcher().coalesced_requests());
  const double hits0 = static_cast<double>(server.embed_cache().hits());
  const double misses0 = static_cast<double>(server.embed_cache().misses());
  std::atomic<int> burst_wrong{0};
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kBurstConns; ++c) {
      threads.emplace_back([&, c] {
        serving::KgClient client;
        if (!client.Connect("127.0.0.1", port).ok()) {
          burst_wrong.fetch_add(1);
          return;
        }
        for (size_t i = 0; i < burst[c].size(); ++i) {
          auto resp = client.Call(burst[c][i].first);
          std::vector<std::string> got;
          if (resp.ok() && i % 3 == 0) {
            auto v = serving::ParseValueResponse(*resp);
            if (v.ok()) got = {*v};
          } else if (resp.ok()) {
            auto v = serving::ParseValuesResponse(*resp);
            if (v.ok()) got = *v;
          }
          if (!resp.ok() || ValuesDigest(got) != burst[c][i].second)
            burst_wrong.fetch_add(1);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  wrong += static_cast<uint64_t>(burst_wrong.load());
  const double batched =
      static_cast<double>(server.batcher().batched_calls()) - batched0;
  const double coalesced =
      static_cast<double>(server.batcher().coalesced_requests()) - coalesced0;
  const double hits = static_cast<double>(server.embed_cache().hits()) - hits0;
  const double misses =
      static_cast<double>(server.embed_cache().misses()) - misses0;

  const std::map<std::string, int64_t> self = rec.SelfTimeByLayer();
  auto self_ms = [&self](const char* layer) {
    auto it = self.find(layer);
    return it == self.end() ? 0.0 : static_cast<double>(it->second) / 1e6;
  };
  for (const Metric& m : OpenLoopLatencies(fixed_r))
    metrics->push_back({"loadgen." + m.name, m.value, m.unit});
  metrics->insert(metrics->end(), {
      {"loadgen.max_qps", SaturationQps(sat_r), "req/s"},
      {"loadgen.offered_qps",
       static_cast<double>(fixed.size()) / fixed_s, "req/s"},
      {"serving.request_parse_us", rs.parse_us.Mean(), "us"},
      {"serving.response_encode_us", rs.encode_us.Mean(), "us"},
      {"serving.response_bytes", rs.bytes.Mean(), "bytes"},
      {"serving.wire_us", Median(wire), "us"},
      {"serving.batch_size", batched > 0 ? burst_batchable / batched : 0,
       "count"},
      {"serving.coalesced_share", coalesced / burst_batchable, "share"},
      {"serving.embed_cache_hit_rate",
       hits + misses > 0 ? hits / (hits + misses) : 0, "share"},
      {"serving.overload_rejects",
       static_cast<double>(sstats.overload_rejects), "count"},
      {"serving.error_responses", static_cast<double>(sstats.error_responses),
       "count"},
      {"sparql.parse_us", rs.sparql_parse_us.Mean(), "us"},
      {"sparql.plan_us", rs.plan_us.Mean(), "us"},
      {"sparql.exec_us", rs.exec_us.Mean(), "us"},
      {"sparql.exec_dirty_us", dirty_us.Mean(), "us"},
      {"sparql.rows_scanned_per_result",
       rs.rows_scanned / std::max(rs.rows_out, 1.0), "count"},
      {"rdf.snapshot_open_us", open_us.Mean(), "us"},
      {"rdf.delta_entries", static_cast<double>(delta_entries), "count"},
      {"rdf.compact_ms", compact_ms, "ms"},
      {"rdf.compactions", compactions, "count"},
      {"rdf.scan_ns_per_row", scan_ns_per_row, "ns"},
      {"rdf.dict_lookup_ns", dict_lookup_ns, "ns"},
      {"rdf.insert_us", insert_us.Mean(), "us"},
      {"rdf.load_s", served.load_s, "s"},
      {"rdf.index_bytes_per_triple", index_bytes_per_triple, "bytes"},
      {"core.sparqlml_optimize_us", opt_us.Mean(), "us"},
      {"core.sparqlml_exec_us", mlexec_us.Mean(), "us"},
      {"core.infer_calls_per_query", calls.Mean(), "count"},
      {"core.infer_batch_us", batch_us.Mean(), "us"},
      {"core.infer_similar_us", similar_us.Mean(), "us"},
      {"core.metasample_ms", metasample_ms.Mean(), "ms"},
      {"core.subgraph_share", subgraph_share.Mean(), "share"},
      {"core.select_us", select_us.Mean(), "us"},
      {"gml.transform_ms", transform_ms.Mean(), "ms"},
      {"gml.epoch_ms", epoch_ms.Mean(), "ms"},
      {"gml.model_metric", model_metric.Mean(), "score"},
      {"core.train_peak_mb", train_peak_mb, "MB"},
      {"tensor.matmul_gflops", gflops, "GFLOP/s"},
      {"tensor.spmm_ms", spmm_ms, "ms"},
      {"serving.self_ms", self_ms("serving"), "ms"},
      {"sparql.self_ms", self_ms("sparql"), "ms"},
      {"rdf.self_ms", self_ms("rdf"), "ms"},
      {"core.self_ms", self_ms("core"), "ms"},
      {"gml.self_ms", self_ms("gml"), "ms"},
      {"tensor.self_ms", self_ms("tensor"), "ms"},
      {"trace.train_stage_gap", worst_gap, "share"},
  });
  for (const std::string& n : checker.notes())
    std::printf("  note: %s\n", n.c_str());
  *correct = wrong == 0;
  std::printf("# %zu spans -> %s\n", rec.spans().size(), spans_path.c_str());
  if (!rec.Write(spans_path, stamp))
    return Status::Internal("cannot write " + spans_path);
  return Status::OK();
}

}  // namespace kgnet::perfbench
