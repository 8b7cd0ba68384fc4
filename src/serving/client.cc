#include "serving/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

namespace kgnet::serving {

namespace {

/// splitmix64, the project-standard mixer (KL002): the backoff jitter
/// must be a deterministic function of the configured seed.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// A nonce unique across client instances and processes: pid and wall
/// time separate processes (including identically-seeded ones started
/// at once — pids differ), the counter separates clients within one.
uint64_t NextClientNonce() {
  static std::atomic<uint64_t> counter{0};
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  const uint64_t t = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count());
  return SplitMix64(SplitMix64(static_cast<uint64_t>(getpid())) ^
                    SplitMix64(t) ^
                    counter.fetch_add(1, std::memory_order_relaxed));
}

}  // namespace

KgClient::KgClient() : rid_nonce_(NextClientNonce()) {}

bool RetryableStatus(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kResourceExhausted;
}

int RetryBackoffMs(const RetryOptions& options, int attempt) {
  int64_t base = options.initial_backoff_ms;
  for (int i = 1; i < attempt && base < options.max_backoff_ms; ++i)
    base *= 2;
  if (base > options.max_backoff_ms) base = options.max_backoff_ms;
  if (base < 0) base = 0;
  const uint64_t h =
      SplitMix64(options.jitter_seed ^ static_cast<uint64_t>(attempt));
  const int64_t jitter = base > 0 ? static_cast<int64_t>(h % (base / 2 + 1)) : 0;
  return static_cast<int>(base + jitter);
}

Status KgClient::Connect(const std::string& host, int port) {
  if (fd_ >= 0) return Status::FailedPrecondition("already connected");
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0)
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  // A signal can interrupt connect() mid-handshake; the connection keeps
  // establishing in the background, so retry with EALREADY/EISCONN until
  // it resolves (EINTR satellite, docs/RESILIENCE.md).
  for (;;) {
    if (connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) == 0)
      break;
    if (errno == EINTR || errno == EALREADY) continue;
    if (errno == EISCONN) break;
    // Connect failures (refused, unreachable, timeout) are the
    // retryable transport class.
    const Status st =
        Status::Unavailable(std::string("connect: ") + std::strerror(errno));
    close(fd);
    return st;
  }
  fd_ = fd;
  host_ = host;
  port_ = port;
  return Status::OK();
}

void KgClient::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

Status KgClient::SendRaw(const void* data, size_t size) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  const char* p = static_cast<const char*>(data);
  size_t done = 0;
  while (done < size) {
    const ssize_t w = send(fd_, p + done, size - done, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return Status::Unavailable(std::string("send: ") + std::strerror(errno));
    }
    done += static_cast<size_t>(w);
  }
  return Status::OK();
}

Result<std::string> KgClient::ReadResponse() {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  std::string body;
  Status st =
      ReadFrame(fd_, kDefaultMaxFrameBytes, timeout_ms_, nullptr, &body);
  // ReadFrame's NotFound means "clean EOF before a frame" — fine for a
  // server between requests, but a client awaiting its response lost the
  // connection: a transport fault, hence retryable.
  if (st.code() == StatusCode::kNotFound)
    return Status::Unavailable("connection closed before response");
  KGNET_RETURN_IF_ERROR(st);
  return body;
}

Result<std::string> KgClient::Call(const std::string& body) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  KGNET_RETURN_IF_ERROR(WriteFrame(fd_, body));
  return ReadResponse();
}

Result<std::string> KgClient::CallRetrying(const std::string& body) {
  const auto start = std::chrono::steady_clock::now();
  Result<std::string> last = Status::FailedPrecondition("not connected");
  for (int attempt = 1; attempt <= retry_.max_attempts; ++attempt) {
    if (attempt > 1) {
      Close();
      std::this_thread::sleep_for(
          std::chrono::milliseconds(RetryBackoffMs(retry_, attempt - 1)));
    }
    if (fd_ < 0) {
      if (host_.empty()) return Status::FailedPrecondition("not connected");
      Status st = Connect(host_, port_);
      if (!st.ok()) {
        last = std::move(st);
        continue;
      }
    }
    last = Call(body);
    if (last.ok() || !RetryableStatus(last.status())) return last;
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    if (elapsed >= retry_.total_deadline_ms) break;
  }
  return last;
}

Result<QueryResponse> KgClient::Query(const std::string& text) {
  const double id = next_id_++;
  // With retries armed, a stable per-request id rides along so the
  // server can deduplicate a replayed mutating request (the response it
  // cached for the first application is returned instead). Derived from
  // (rid_nonce, jitter_seed, id): identical on every attempt of this
  // request, but distinct across clients — the server cache is keyed by
  // rid alone, so a collision with another client's rid would answer
  // this request with that client's cached response and silently drop
  // the update.
  std::string rid;
  if (retry_.max_attempts > 1) {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(SplitMix64(
                      rid_nonce_ ^
                      SplitMix64(retry_.jitter_seed ^
                                 static_cast<uint64_t>(id)))));
    rid = buf;
  }
  KGNET_ASSIGN_OR_RETURN(
      std::string body,
      CallRetrying(BuildQueryRequest(id, text, request_deadline_ms_, rid)));
  return ParseQueryResponse(body);
}

Result<std::string> KgClient::NodeClass(const std::string& model,
                                        const std::string& node) {
  KGNET_ASSIGN_OR_RETURN(
      std::string body,
      CallRetrying(BuildInferRequest(next_id_++, "infer_class", model, node,
                                     0)));
  return ParseValueResponse(body);
}

Result<std::vector<std::string>> KgClient::TopKLinks(const std::string& model,
                                                     const std::string& node,
                                                     size_t k) {
  KGNET_ASSIGN_OR_RETURN(
      std::string body,
      CallRetrying(BuildInferRequest(next_id_++, "infer_links", model, node,
                                     k)));
  return ParseValuesResponse(body);
}

Result<std::vector<std::string>> KgClient::SimilarEntities(
    const std::string& model, const std::string& node, size_t k) {
  KGNET_ASSIGN_OR_RETURN(
      std::string body,
      CallRetrying(BuildInferRequest(next_id_++, "infer_similar", model, node,
                                     k)));
  return ParseValuesResponse(body);
}

Status KgClient::Ping() {
  auto body = CallRetrying(BuildPingRequest(next_id_++));
  if (!body.ok()) return body.status();
  return ParsePongResponse(*body);
}

Result<HealthInfo> KgClient::Health() {
  KGNET_ASSIGN_OR_RETURN(std::string body,
                         CallRetrying(BuildHealthRequest(next_id_++)));
  return ParseHealthResponse(body);
}

}  // namespace kgnet::serving
