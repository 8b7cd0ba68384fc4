// kgnet_serve: the network front end of the platform (docs/SERVING.md).
//
// A KgServer exposes one SparqlMlService over TCP (loopback by default)
// speaking the framed-JSON protocol of serving/protocol.h. Threading
// model:
//
//   - one acceptor thread accepts connections and pushes them onto a
//     bounded queue (admission control: a full queue is answered with an
//     immediate ResourceExhausted response and a close);
//   - a fixed pool of session workers each pop a connection and serve
//     its requests one at a time until the peer closes or idles out. A
//     connection that waited in the queue longer than the request
//     deadline is answered with an overload response instead of served.
//
// Request execution:
//
//   - plain SPARQL reads (SELECT/ASK with no ML constructs) run
//     CONCURRENTLY: each request opens one MVCC snapshot and executes on
//     the shared QueryEngine; the response reports the snapshot's
//     epoch/delta, and snapshot isolation guarantees it never observes a
//     torn write (tests/test_serving_stress.cc).
//   - updates, TrainGML and SPARQL-ML queries route to the serialized
//     service path (SparqlMlService keeps per-query mutable state and
//     the TripleStore has a single-writer contract), guarded by one
//     server mutex.
//   - infer_* requests run concurrently through the InferBatcher /
//     EmbedRowCache (serving/infer_batcher.h): one batched model call
//     per window, bitwise-identical answers.
#ifndef KGNET_SERVING_SERVER_H_
#define KGNET_SERVING_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <list>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/thread_annotations.h"
#include "core/sparqlml.h"
#include "serving/circuit_breaker.h"
#include "serving/infer_batcher.h"
#include "serving/protocol.h"

namespace kgnet::serving {

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (read it back with
  /// port() after Start).
  int port = 0;
  /// Session workers = max concurrently served connections.
  int num_workers = 4;
  /// Accepted connections waiting for a worker beyond this are rejected
  /// immediately with ResourceExhausted.
  int queue_depth = 64;
  /// Hard cap on request frame bodies.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// A connection with no complete request for this long is dropped, so
  /// idle or half-closed peers cannot pin a session worker forever.
  int idle_timeout_ms = 30000;
  /// Max time a connection may wait in the accept queue before it is
  /// answered with an overload response instead of being served.
  int request_deadline_ms = 2000;
  /// Inference batching window (see BatcherOptions).
  BatcherOptions batcher;
  /// Capacity (rows) of the hot embedding-row LRU; 0 disables it.
  size_t embed_cache_rows = 256;
  /// Circuit breaker around the inference / SPARQL-ML path
  /// (serving/circuit_breaker.h, docs/RESILIENCE.md).
  BreakerOptions breaker;
  /// How long Drain() waits for in-flight requests before hard-cancelling
  /// them through their CancelSources.
  int drain_timeout_ms = 5000;
  /// Entries in the at-most-once response cache keyed by request "rid"
  /// (deduplicates retried mutating requests); 0 disables deduplication.
  size_t rid_cache_entries = 256;
};

/// Largest TCP port; also the bound of the shell's `.connect PORT`.
inline constexpr int kMaxPort = 65535;

/// A ServerOptions field an operator sets from outside the process, as
/// an environment variable or as a kgnet_serve flag, with one accepted
/// range [1, max] for both (docs/SERVING.md "Settings").
struct ServerSetting {
  const char* env;
  const char* flag;
  int max;
  int ServerOptions::*field;
};

inline constexpr ServerSetting kServerSettings[] = {
    {"KGNET_SERVE_PORT", "--port", kMaxPort, &ServerOptions::port},
    {"KGNET_SERVE_WORKERS", "--workers", 1024, &ServerOptions::num_workers},
    {"KGNET_SERVE_QUEUE_DEPTH", "--queue-depth", 1000000,
     &ServerOptions::queue_depth},
    {"KGNET_DRAIN_TIMEOUT_MS", "--drain-timeout-ms", 600000,
     &ServerOptions::drain_timeout_ms},
};

/// Applies every kServerSettings variable on top of `base` through
/// common::EnvInt: an invalid value prints one stderr line and keeps the
/// base value.
ServerOptions ApplyServerEnv(ServerOptions base);

/// Whether a mutating request's outcome may enter the rid dedup cache.
/// Only definitive outcomes qualify: success, or a deterministic request
/// error (parse failure, invalid argument) that every retry would
/// reproduce. Transient classes — Unavailable, ResourceExhausted,
/// Cancelled, DeadlineExceeded — mean the update did not definitively
/// execute; caching one would replay the error to every retry carrying
/// the same rid, so the request could never succeed.
bool CacheableRidOutcome(const Status& status);

/// The TCP server. Start() spawns the acceptor and workers; Stop() (or
/// destruction) shuts them down and closes every connection.
class KgServer {
 public:
  /// `service` must outlive the server.
  KgServer(core::SparqlMlService* service, ServerOptions options);
  ~KgServer();
  KgServer(const KgServer&) = delete;
  KgServer& operator=(const KgServer&) = delete;

  Status Start();
  void Stop();

  /// Graceful shutdown (docs/RESILIENCE.md): flips the server into
  /// draining mode (new connections and newly read requests are answered
  /// with Unavailable("server draining")), waits up to
  /// options.drain_timeout_ms for in-flight requests to finish, then
  /// hard-cancels the stragglers through their CancelSources and calls
  /// Stop(). Idempotent; kgnet_serve wires SIGTERM to it.
  void Drain();
  bool draining() const { return draining_.load(std::memory_order_relaxed); }

  /// The bound port (resolved when options.port was 0). Valid after a
  /// successful Start().
  int port() const { return port_; }

  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t requests_served = 0;
    uint64_t error_responses = 0;
    uint64_t overload_rejects = 0;
    uint64_t malformed_frames = 0;
    /// Deadline outcomes by where the budget ran out (docs/RESILIENCE.md):
    /// deadline_ms=0 (never had budget), expired while queued / between
    /// requests, expired mid-execution (cancel token tripped).
    uint64_t deadline_immediate = 0;
    uint64_t deadline_queue_expired = 0;
    uint64_t deadline_exec_expired = 0;
    /// Queries stopped by a non-deadline cancellation (client vanished,
    /// drain hard-cancel).
    uint64_t cancelled = 0;
    /// Requests fast-failed by the open inference circuit breaker.
    uint64_t breaker_fast_fails = 0;
    /// Retried mutating requests answered from the rid cache instead of
    /// being applied a second time.
    uint64_t rid_replays = 0;
    /// Faults fired by the deterministic injector at server-side sites.
    uint64_t injected_faults = 0;
    /// Connections / requests turned away because the server is draining.
    uint64_t drain_rejects = 0;
  };
  Stats stats() const;

  InferBatcher& batcher() { return batcher_; }
  EmbedRowCache& embed_cache() { return embed_cache_; }
  CircuitBreaker& breaker() { return breaker_; }
  const ServerOptions& options() const { return options_; }

  /// True when a query must run on the serialized SPARQL-ML service
  /// path: updates (single-writer contract), text mentioning TrainGML, and
  /// queries whose parse has a variable in predicate position (potential
  /// SPARQL-ML) or a function call (every call is a UDF, and UDFs touch
  /// per-service dictionary state). Everything else is a plain read and
  /// executes concurrently against its own snapshot. Exposed so the
  /// differential test harness routes exactly like the server.
  static bool RoutesToService(const sparql::Query& query,
                              std::string_view text);

 private:
  struct PendingConn {
    int fd = -1;
    std::chrono::steady_clock::time_point enqueued;
  };
  friend class ScopedActiveSource;

  void AcceptLoop();
  void WorkerLoop();
  void ServeConnection(int fd, std::chrono::steady_clock::time_point enqueued);
  /// Executes one request body and returns the response body. `anchor`
  /// is when the request arrived (enqueue time for a connection's first
  /// request, frame-read time after that); deadline_ms budgets are
  /// measured from it, so queue wait counts against the deadline.
  std::string HandleBody(int fd, const std::string& body,
                         std::chrono::steady_clock::time_point anchor);
  std::string HandleQuery(int fd, const Request& req,
                          std::chrono::steady_clock::time_point anchor);
  std::string HandleInfer(const Request& req);
  std::string HandleHealth(const Request& req);
  void BumpError() {
    common::MutexLock lock(&stats_mu_);
    ++stats_.error_responses;
  }
  void BumpStat(uint64_t Stats::* field) {
    common::MutexLock lock(&stats_mu_);
    ++(stats_.*field);
  }
  /// rid cache: returns the cached response for `rid` (refreshing its LRU
  /// position) or empty; Store inserts/overwrites and evicts LRU entries
  /// beyond options.rid_cache_entries.
  std::string LookupRidResponse(const std::string& rid);
  void StoreRidResponse(const std::string& rid, const std::string& response);

  core::SparqlMlService* service_;
  const ServerOptions options_;
  InferBatcher batcher_;
  EmbedRowCache embed_cache_;
  CircuitBreaker breaker_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<bool> draining_{false};
  // Written by Start(), joined by Stop(); workers never touch the
  // vectors themselves.
  std::thread acceptor_;
  std::vector<std::thread> workers_;

  common::Mutex queue_mu_;
  common::CondVar queue_cv_;
  std::deque<PendingConn> queue_ KGNET_GUARDED_BY(queue_mu_);

  /// Serializes the SPARQL-ML / update path (see RoutesToService).
  common::Mutex ml_mu_;

  /// In-flight request accounting for Drain(): every request being
  /// handled bumps inflight_, and each query — plain reads and
  /// serialized service-path requests alike — registers its CancelSource
  /// here so a timed-out drain can hard-cancel it. A source is only
  /// unregistered under active_mu_, so Drain() never touches a destroyed
  /// source.
  common::Mutex active_mu_;
  common::CondVar active_cv_;
  int inflight_ KGNET_GUARDED_BY(active_mu_) = 0;
  std::vector<common::CancelSource*> active_sources_
      KGNET_GUARDED_BY(active_mu_);

  /// At-most-once response cache: rid -> (LRU position, response bytes).
  common::Mutex rid_mu_;
  std::list<std::string> rid_lru_ KGNET_GUARDED_BY(rid_mu_);
  std::unordered_map<std::string,
                     std::pair<std::list<std::string>::iterator, std::string>>
      rid_cache_ KGNET_GUARDED_BY(rid_mu_);

  mutable common::Mutex stats_mu_;
  Stats stats_ KGNET_GUARDED_BY(stats_mu_);
};

}  // namespace kgnet::serving

#endif  // KGNET_SERVING_SERVER_H_
