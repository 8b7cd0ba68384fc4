// kgnet_serve: the KGNet network server (docs/SERVING.md).
//
// Serves one KgNet instance over TCP on 127.0.0.1, speaking the framed-
// JSON protocol of src/serving/protocol.h. Connect with the client
// library, or interactively with `kgnet_shell` and `.connect PORT`.
//
// Usage:
//   kgnet_serve                       # DBLP-mini demo KG, ephemeral port
//   kgnet_serve --port 7687           # fixed port
//   kgnet_serve --workers 8 --queue-depth 128
//   kgnet_serve --yago                # YAGO4-mini demo KG
//   kgnet_serve --load FILE.nt        # serve an N-Triples file
//   kgnet_serve --smoke               # start, self-query, exit (CI)
//
// Environment: KGNET_SERVE_PORT, KGNET_SERVE_WORKERS,
// KGNET_SERVE_QUEUE_DEPTH, KGNET_DRAIN_TIMEOUT_MS. Command-line flags
// override the environment. Both take the same ranges (docs/SERVING.md
// "Settings"); a bad variable warns and keeps the default, a bad flag
// value exits 2.
//
// The server runs until stdin reaches EOF (or `quit` on a line), so it
// composes with shells and test drivers without signal games. SIGTERM
// and SIGINT trigger a graceful drain instead (docs/RESILIENCE.md):
// stop accepting, finish in-flight requests within --drain-timeout-ms,
// hard-cancel the rest.
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/env.h"
#include "core/kgnet.h"
#include "serving/client.h"
#include "serving/server.h"
#include "workload/dblp_gen.h"
#include "workload/yago_gen.h"

namespace {

/// Last termination signal received; polled by the stdin loop. Handlers
/// are installed without SA_RESTART so a blocked read returns EINTR and
/// the loop notices promptly.
std::atomic<int> g_signal{0};

void OnTerminate(int sig) { g_signal.store(sig, std::memory_order_relaxed); }

int Smoke(kgnet::serving::KgServer& server) {
  kgnet::serving::KgClient client;
  if (!client.Connect("127.0.0.1", server.port()).ok()) {
    std::fprintf(stderr, "smoke: connect failed\n");
    return 1;
  }
  if (!client.Ping().ok()) {
    std::fprintf(stderr, "smoke: ping failed\n");
    return 1;
  }
  auto count = client.Query(
      "SELECT ?s ?o WHERE { ?s "
      "<https://dblp.org/rdf/publishedIn> ?o . } LIMIT 5");
  if (!count.ok()) {
    std::fprintf(stderr, "smoke: query failed: %s\n",
                 count.status().ToString().c_str());
    return 1;
  }
  // A malformed request must produce an error response, not a crash.
  auto bad = client.Call("{\"op\":\"no_such_op\"}");
  if (!bad.ok()) {
    std::fprintf(stderr, "smoke: malformed-op round-trip failed\n");
    return 1;
  }
  auto after = client.Ping();  // connection survived the error
  if (!after.ok()) {
    std::fprintf(stderr, "smoke: connection died after error response\n");
    return 1;
  }
  std::printf(
      "smoke ok: ping, %zu-row query (snapshot epoch %llu), error "
      "response, ping\n",
      count->result.NumRows(), static_cast<unsigned long long>(count->epoch));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  kgnet::serving::ServerOptions options =
      kgnet::serving::ApplyServerEnv(kgnet::serving::ServerOptions{});

  bool smoke = false;
  bool yago = false;
  const char* load_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    const kgnet::serving::ServerSetting* setting = nullptr;
    for (const auto& s : kgnet::serving::kServerSettings)
      if (std::strcmp(argv[i], s.flag) == 0) setting = &s;
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--yago") == 0) {
      yago = true;
    } else if (setting != nullptr) {
      const char* text = i + 1 < argc ? argv[++i] : "";
      const auto value = kgnet::common::ParseInt(
          text, 1, static_cast<uint64_t>(setting->max));
      if (!value) {
        std::fprintf(stderr, "invalid %s \"%s\" (want an integer in 1..%d)\n",
                     setting->flag, text, setting->max);
        return 2;
      }
      options.*setting->field = static_cast<int>(*value);
    } else if (std::strcmp(argv[i], "--load") == 0 && i + 1 < argc) {
      load_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  kgnet::core::KgNet kg;
  if (load_path != nullptr) {
    std::ifstream in(load_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", load_path);
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    auto n = kg.LoadNTriples(buf.str());
    if (!n.ok()) {
      std::fprintf(stderr, "%s\n", n.status().ToString().c_str());
      return 1;
    }
    std::printf("loaded %zu triples from %s\n", *n, load_path);
  } else if (yago) {
    kgnet::workload::YagoOptions opts;
    if (!kgnet::workload::GenerateYago(opts, &kg.store()).ok()) return 1;
  } else {
    kgnet::workload::DblpOptions opts;
    opts.num_papers = 500;
    opts.num_authors = 250;
    opts.num_venues = 5;
    opts.num_affiliations = 15;
    if (!kgnet::workload::GenerateDblp(opts, &kg.store()).ok()) return 1;
  }

  kgnet::serving::KgServer server(&kg.service(), options);
  const kgnet::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("kgnet_serve listening on 127.0.0.1:%d (%d workers, queue %d, "
              "%zu triples)\n",
              server.port(), server.options().num_workers,
              server.options().queue_depth, kg.store().size());
  std::fflush(stdout);

  if (smoke) {
    const int rc = Smoke(server);
    server.Stop();
    return rc;
  }

  // Graceful shutdown on SIGTERM / SIGINT: no SA_RESTART, so the stdin
  // read below is interrupted and the drain starts within one loop turn.
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = &OnTerminate;
  sa.sa_flags = 0;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  // Command loop: complete lines from stdin ("quit"/"exit" stop the
  // server), polled so a termination signal is noticed even while no
  // input arrives.
  std::string pending;
  bool quit = false;
  while (!quit && g_signal.load(std::memory_order_relaxed) == 0) {
    struct pollfd pfd;
    pfd.fd = STDIN_FILENO;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int pr = poll(&pfd, 1, 200);
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pr == 0) continue;
    char buf[256];
    const ssize_t n = read(STDIN_FILENO, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;  // stdin EOF
    pending.append(buf, static_cast<size_t>(n));
    size_t pos;
    while ((pos = pending.find('\n')) != std::string::npos) {
      const std::string line = pending.substr(0, pos);
      pending.erase(0, pos + 1);
      if (line == "quit" || line == "exit") {
        quit = true;
        break;
      }
    }
  }

  const int sig = g_signal.load(std::memory_order_relaxed);
  if (sig != 0) {
    std::printf("signal %d: draining (timeout %dms)\n", sig,
                server.options().drain_timeout_ms);
    std::fflush(stdout);
    server.Drain();
  } else {
    server.Stop();
  }
  const kgnet::serving::KgServer::Stats st = server.stats();
  std::printf("served %llu requests on %llu connections (%llu errors, "
              "%llu overload rejects, %llu drain rejects, %llu cancelled)\n",
              static_cast<unsigned long long>(st.requests_served),
              static_cast<unsigned long long>(st.connections_accepted),
              static_cast<unsigned long long>(st.error_responses),
              static_cast<unsigned long long>(st.overload_rejects),
              static_cast<unsigned long long>(st.drain_rejects),
              static_cast<unsigned long long>(st.cancelled));
  return 0;
}
