#include <algorithm>
// kgnet_shell: an interactive SPARQL / SPARQL-ML shell over a KGNet
// instance — the closest thing to the paper's "data scientist at a SPARQL
// endpoint" workflow.
//
// Usage:
//   kgnet_shell                 # starts with the DBLP-mini demo KG
//   kgnet_shell --yago          # starts with the YAGO4-mini demo KG
//   kgnet_shell --load FILE.nt  # loads an N-Triples file
//
// Commands (everything else is executed as a query):
//   .help                this text
//   .stats               KG statistics (Table I style)
//   .models              trained models registered in KGMeta
//   .explain QUERY       show the optimizer's rewrite without executing
//   .plan QUERY          show the streaming executor's physical plan
//   .quit                exit
//
// Multi-line queries: end the query with a line containing only ";".
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

#include "common/env.h"
#include "core/kgnet.h"
#include "rdf/graph_stats.h"
#include "rdf/ntriples.h"
#include "serving/client.h"
#include "serving/server.h"
#include "workload/dblp_gen.h"
#include "workload/yago_gen.h"

namespace {

void PrintHelp() {
  std::printf(
      "Commands:\n"
      "  .help            this text\n"
      "  .stats           KG statistics\n"
      "  .models          trained models in KGMeta\n"
      "  .explain QUERY   show the SPARQL-ML rewrite without executing\n"
      "  .plan QUERY      show the streaming executor's physical plan\n"
      "  .connect PORT    route queries to a kgnet_serve on 127.0.0.1\n"
      "  .health          remote server health (breaker/queue/epoch)\n"
      "  .disconnect      back to the in-process KG\n"
      "  .quit            exit\n"
      "Anything else is executed as SPARQL / SPARQL-ML. End multi-line\n"
      "queries with a line containing only ';'.\n\n"
      "Try:\n"
      "  PREFIX dblp: <https://dblp.org/rdf/>\n"
      "  PREFIX kgnet: <https://www.kgnet.com/>\n"
      "  INSERT INTO <kgnet> { ?s ?p ?o } WHERE { SELECT * FROM\n"
      "  kgnet.TrainGML({Name: 'venues', GML-Task: {TaskType:\n"
      "  kgnet:NodeClassifier, TargetNode: dblp:Publication, NodeLabel:\n"
      "  dblp:publishedIn}, Hyperparameters: {Epochs: 60}})}\n"
      "  ;\n");
}

void PrintStats(const kgnet::rdf::TripleStore& store) {
  kgnet::rdf::GraphStats stats = kgnet::rdf::ComputeGraphStats(store);
  std::printf("%s", kgnet::rdf::FormatStatsTable("(loaded)", stats).c_str());
  // Versioned-storage introspection: generation runs, delta layer, and
  // compaction/GC counters (see docs/STORAGE.md).
  const kgnet::rdf::TripleStore::Stats st = store.GetStats();
  std::printf("\nstorage (epoch %llu, generation sealed at %llu)\n",
              static_cast<unsigned long long>(st.epoch),
              static_cast<unsigned long long>(st.generation_epoch));
  for (int i = 0; i < kgnet::rdf::kNumIndexOrders; ++i) {
    const auto order = static_cast<kgnet::rdf::IndexOrder>(i);
    if (!store.has_index(order)) continue;
    std::printf("  run %-3s  %10zu bytes\n", kgnet::rdf::IndexOrderName(order),
                st.run_bytes[static_cast<size_t>(i)]);
  }
  std::printf("  runs total       %10zu bytes (%zu triples)\n",
              st.total_run_bytes, st.generation_triples);
  std::printf("  delta            %10zu ops (%zu inserts, %zu tombstones)\n",
              st.delta_ops, st.delta_inserts, st.delta_tombstones);
  std::printf("  generations live %10lld   compactions %llu\n",
              static_cast<long long>(st.live_generations),
              static_cast<unsigned long long>(st.compactions));
}

void PrintModels(kgnet::core::KgNet& kg) {
  auto uris = kg.service().kgmeta().ListModelUris();
  if (uris.empty()) {
    std::printf("no trained models; use a TrainGML INSERT first\n");
    return;
  }
  for (const std::string& uri : uris) {
    auto info = kg.service().kgmeta().Get(uri);
    if (!info.ok()) continue;
    std::printf("%s\n  task=%s method=%s metric=%.3f sampler=%s "
                "inference=%.1fus cardinality=%zu\n",
                uri.c_str(), kgnet::gml::TaskTypeName(info->task),
                info->method.c_str(), info->accuracy,
                info->sampler_label.c_str(), info->inference_us,
                info->cardinality);
  }
}

void RunQuery(kgnet::core::KgNet& kg, const std::string& text) {
  kgnet::core::ExecutionStats stats;
  auto result = kg.Execute(text, &stats);
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    return;
  }
  if (!result->columns.empty()) {
    std::printf("%s", result->ToTable().c_str());
    std::printf("(%zu rows", result->NumRows());
    if (stats.http_calls > 0)
      std::printf(", %llu inference calls, plan=%s",
                  static_cast<unsigned long long>(stats.http_calls),
                  stats.plan == kgnet::core::RewritePlan::kDictionary
                      ? "dictionary"
                      : "per-instance");
    std::printf(")\n");
  } else if (result->num_inserted > 0 || result->num_deleted > 0) {
    std::printf("ok: +%zu / -%zu triples\n", result->num_inserted,
                result->num_deleted);
  } else {
    std::printf("%s\n", result->ask_result ? "yes" : "ok");
  }
}

void RunRemoteQuery(kgnet::serving::KgClient& client,
                    const std::string& text) {
  auto resp = client.Query(text);
  if (!resp.ok()) {
    std::printf("error: %s\n", resp.status().ToString().c_str());
    return;
  }
  const kgnet::sparql::QueryResult& result = resp->result;
  if (!result.columns.empty()) {
    std::printf("%s", result.ToTable().c_str());
    std::printf("(%zu rows", result.NumRows());
    if (resp->has_snapshot)
      std::printf(", snapshot epoch %llu",
                  static_cast<unsigned long long>(resp->epoch));
    std::printf(")\n");
  } else if (result.num_inserted > 0 || result.num_deleted > 0) {
    std::printf("ok: +%zu / -%zu triples\n", result.num_inserted,
                result.num_deleted);
  } else {
    std::printf("%s\n", result.ask_result ? "yes" : "ok");
  }
}

void RunPlan(kgnet::core::KgNet& kg, const std::string& text) {
  auto plan = kg.service().engine().ExplainString(text);
  if (!plan.ok()) {
    std::printf("error: %s\n", plan.status().ToString().c_str());
    return;
  }
  std::printf("%s", plan->c_str());
}

void RunExplain(kgnet::core::KgNet& kg, const std::string& text) {
  auto ex = kg.service().Explain(text);
  if (!ex.ok()) {
    std::printf("error: %s\n", ex.status().ToString().c_str());
    return;
  }
  if (!ex->is_sparql_ml) {
    std::printf("plain SPARQL (no user-defined predicates)\n");
  } else {
    for (const auto& uri : ex->model_uris)
      std::printf("model: %s\n", uri.c_str());
    std::printf("plan: %s\n",
                ex->plan == kgnet::core::RewritePlan::kDictionary
                    ? "dictionary (Fig. 12)"
                    : "per-instance (Fig. 11)");
  }
  std::printf("rewritten query:\n%s\n", ex->rewritten_sparql.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  kgnet::core::KgNet kg;

  bool loaded = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--yago") == 0) {
      kgnet::workload::YagoOptions opts;
      if (!kgnet::workload::GenerateYago(opts, &kg.store()).ok()) return 1;
      loaded = true;
    } else if (std::strcmp(argv[i], "--load") == 0 && i + 1 < argc) {
      std::ifstream in(argv[++i], std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "cannot open %s\n", argv[i]);
        return 1;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      auto n = kg.LoadNTriples(buf.str());
      if (!n.ok()) {
        std::fprintf(stderr, "%s\n", n.status().ToString().c_str());
        return 1;
      }
      std::printf("loaded %zu triples from %s\n", *n, argv[i]);
      loaded = true;
    }
  }
  if (!loaded) {
    kgnet::workload::DblpOptions opts;
    opts.num_papers = 500;
    opts.num_authors = 250;
    opts.num_venues = 5;
    opts.num_affiliations = 15;
    if (!kgnet::workload::GenerateDblp(opts, &kg.store()).ok()) return 1;
    std::printf("demo DBLP-mini KG loaded (%zu triples); .help for help\n",
                kg.store().size());
  }

  kgnet::serving::KgClient remote;

  std::string buffer;
  std::string line;
  std::printf("kgnet> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    if (buffer.empty() && !line.empty() && line[0] == '.') {
      // Dot-command.
      if (line == ".quit" || line == ".exit") break;
      if (line == ".help") {
        PrintHelp();
      } else if (line == ".stats") {
        PrintStats(kg.store());
      } else if (line == ".models") {
        PrintModels(kg);
      } else if (line.rfind(".connect", 0) == 0) {
        const auto port = kgnet::common::ParseInt(
            std::string_view(line).substr(8), 1, kgnet::serving::kMaxPort);
        if (!port) {
          std::printf("usage: .connect PORT (a kgnet_serve port, 1..%d)\n",
                      kgnet::serving::kMaxPort);
        } else {
          remote.Close();
          auto st = remote.Connect("127.0.0.1", static_cast<int>(*port));
          if (st.ok())
            std::printf("connected to 127.0.0.1:%d; queries now run "
                        "remotely (.disconnect to return)\n",
                        static_cast<int>(*port));
          else
            std::printf("error: %s\n", st.ToString().c_str());
        }
      } else if (line == ".disconnect") {
        if (remote.connected()) {
          remote.Close();
          std::printf("disconnected; queries run in-process again\n");
        } else {
          std::printf("not connected\n");
        }
      } else if (line == ".health") {
        if (!remote.connected()) {
          std::printf("not connected (.connect PORT first)\n");
        } else {
          auto h = remote.Health();
          if (!h.ok()) {
            std::printf("error: %s\n", h.status().ToString().c_str());
          } else {
            std::printf(
                "breaker=%s retry_after_ms=%lld queue=%zu/%zu epoch=%llu "
                "draining=%s served=%llu\n",
                h->breaker.c_str(), static_cast<long long>(h->retry_after_ms),
                h->queue_depth, h->queue_capacity,
                static_cast<unsigned long long>(h->epoch),
                h->draining ? "true" : "false",
                static_cast<unsigned long long>(h->requests_served));
          }
        }
      } else if (line.rfind(".explain", 0) == 0) {
        std::string q = line.size() > 8 ? line.substr(9) : "";
        if (q.empty()) {
          std::printf("usage: .explain QUERY (single line)\n");
        } else {
          RunExplain(kg, q);
        }
      } else if (line.rfind(".plan", 0) == 0) {
        std::string q = line.size() > 5 ? line.substr(6) : "";
        if (q.empty()) {
          std::printf("usage: .plan QUERY (single line)\n");
        } else {
          RunPlan(kg, q);
        }
      } else {
        std::printf("unknown command; .help for help\n");
      }
      std::printf("kgnet> ");
      std::fflush(stdout);
      continue;
    }
    if (line == ";") {
      if (!buffer.empty()) {
        if (remote.connected())
          RunRemoteQuery(remote, buffer);
        else
          RunQuery(kg, buffer);
      }
      buffer.clear();
      std::printf("kgnet> ");
      std::fflush(stdout);
      continue;
    }
    buffer += line;
    buffer += '\n';
    // Queries auto-execute once their braces balance; PREFIX-only
    // fragments wait for more input (or an explicit ';').
    if (buffer.find('{') != std::string::npos &&
        std::count(buffer.begin(), buffer.end(), '{') ==
            std::count(buffer.begin(), buffer.end(), '}')) {
      if (remote.connected())
        RunRemoteQuery(remote, buffer);
      else
        RunQuery(kg, buffer);
      buffer.clear();
      std::printf("kgnet> ");
      std::fflush(stdout);
    }
  }
  return 0;
}
