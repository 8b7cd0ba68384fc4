// Blocking client for the KGNet serving protocol (docs/SERVING.md).
// Used by the shell's .connect mode, bench_serving, and the loopback
// differential tests. One KgClient wraps one TCP connection; it is NOT
// thread-safe (requests on a connection are strictly sequential — open
// one client per concurrent caller).
#ifndef KGNET_SERVING_CLIENT_H_
#define KGNET_SERVING_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "serving/protocol.h"

namespace kgnet::serving {

/// Client-side retry policy (docs/RESILIENCE.md). Disabled by default
/// (max_attempts = 1); set_retry_options() arms it.
struct RetryOptions {
  /// Total tries including the first; 1 = no retries.
  int max_attempts = 1;
  /// Backoff before attempt n (1-based retry index) starts at
  /// initial_backoff_ms and doubles, capped at max_backoff_ms, with
  /// seeded jitter on top (RetryBackoffMs is the pure schedule).
  int initial_backoff_ms = 10;
  int max_backoff_ms = 500;
  /// Budget across all attempts, sleeps included; exceeded -> give up
  /// with the last attempt's status.
  int total_deadline_ms = 10000;
  /// Seeds the backoff jitter, so a chaos run's retry schedule replays
  /// exactly. Auto-generated request ids mix in a per-client nonce on
  /// top of this seed (see KgClient::rid_nonce()) — two clients sharing
  /// a jitter_seed still never collide on rids.
  uint64_t jitter_seed = 1;
};

/// The per-class retry policy: only transport faults (Unavailable —
/// connect refused, frame truncation, peer reset) and server pushback
/// (ResourceExhausted — admission queue full, overload) are safe and
/// useful to retry. Parse errors, invalid arguments, and genuine
/// execution failures are deterministic: retrying replays the failure.
bool RetryableStatus(const Status& status);

/// Backoff before retry `attempt` (1 = first retry): exponential from
/// initial_backoff_ms, capped, plus deterministic jitter in [0, base/2]
/// derived from (jitter_seed, attempt). Pure function, exposed so tests
/// can pin the schedule.
int RetryBackoffMs(const RetryOptions& options, int attempt);

class KgClient {
 public:
  KgClient();
  ~KgClient() { Close(); }
  KgClient(const KgClient&) = delete;
  KgClient& operator=(const KgClient&) = delete;

  /// Connects to a serving endpoint ("127.0.0.1", port).
  Status Connect(const std::string& host, int port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Runs a SPARQL / SPARQL-ML query; the Result carries the decoded
  /// response, or the server-sent error Status verbatim. When a request
  /// deadline is set it rides along on the wire; when retries are armed
  /// the request carries an auto-generated "rid" so a retried update is
  /// applied at most once (the request bytes — id and rid included —
  /// are identical across attempts).
  Result<QueryResponse> Query(const std::string& text);

  /// Inference ops (served by the batched path).
  Result<std::string> NodeClass(const std::string& model,
                                const std::string& node);
  Result<std::vector<std::string>> TopKLinks(const std::string& model,
                                             const std::string& node,
                                             size_t k);
  Result<std::vector<std::string>> SimilarEntities(const std::string& model,
                                                   const std::string& node,
                                                   size_t k);
  Status Ping();

  /// Server degradation state (`.health` verb): breaker, queue, epoch.
  Result<HealthInfo> Health();

  /// One framed round-trip: sends `body`, returns the raw response body.
  /// The building block of the typed calls; the differential harness
  /// uses it to compare response bytes directly. Never retries.
  Result<std::string> Call(const std::string& body);

  /// Call() under the retry policy: on a retryable failure (see
  /// RetryableStatus) the connection is torn down, the backoff slept,
  /// and the exact same bytes re-sent over a fresh connection — up to
  /// max_attempts tries within total_deadline_ms. All typed calls route
  /// through here (with the default options it is exactly one Call()).
  Result<std::string> CallRetrying(const std::string& body);

  /// Writes raw bytes with no framing (hardening tests: truncated
  /// frames, garbage prefixes, half-closed sockets).
  Status SendRaw(const void* data, size_t size);
  /// Reads one framed response (hardening tests).
  Result<std::string> ReadResponse();

  /// Per-request timeout waiting for the response; default 30s.
  void set_timeout_ms(int ms) { timeout_ms_ = ms; }

  /// Arms the retry policy for subsequent typed calls.
  void set_retry_options(const RetryOptions& options) { retry_ = options; }
  const RetryOptions& retry_options() const { return retry_; }

  /// Attaches "deadline_ms" to subsequent queries (-1 detaches).
  void set_request_deadline_ms(int64_t ms) { request_deadline_ms_ = ms; }

  /// Per-client component of auto-generated rids, unique across client
  /// instances and processes (pid + wall time + a process-global
  /// counter, mixed). The server's rid dedup cache is keyed by rid
  /// alone, so rids from *different* clients must never collide — two
  /// processes running the identical program would otherwise generate
  /// identical rid sequences and silently swallow each other's updates.
  /// Overridable for harnesses that need fully reproducible wire bytes.
  uint64_t rid_nonce() const { return rid_nonce_; }
  void set_rid_nonce(uint64_t nonce) { rid_nonce_ = nonce; }

 private:
  int fd_ = -1;
  int timeout_ms_ = 30000;
  double next_id_ = 1;
  uint64_t rid_nonce_ = 0;
  RetryOptions retry_;
  int64_t request_deadline_ms_ = -1;
  // Reconnect target for retries, recorded by Connect().
  std::string host_;
  int port_ = -1;
};

}  // namespace kgnet::serving

#endif  // KGNET_SERVING_CLIENT_H_
