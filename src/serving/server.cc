#include "serving/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "common/env.h"
#include "common/fault_injection.h"
#include "sparql/parser.h"

namespace kgnet::serving {

namespace {

constexpr int kPollSliceMs = 50;

using SteadyClock = std::chrono::steady_clock;

/// Fires the deterministic fault injector at a server-side site and
/// keeps the per-server count (the injector itself is process-global).
bool InjectFault(common::FaultSite site) {
  return common::FaultInjector::Instance().ShouldFail(site);
}

/// True when the peer behind `fd` is gone: a clean EOF or a hard reset
/// visible to a non-blocking MSG_PEEK. Pending request bytes (r > 0) and
/// transient conditions (EAGAIN, EINTR) mean "still there".
///
/// EOF is *deliberately* read as abandonment: in this request/response
/// protocol a FIN from a fully-closed and a half-closed (SHUT_WR) peer
/// is indistinguishable, the bundled KgClient never half-closes, and
/// tolerating EOF would let every orderly-closed client keep burning a
/// worker until its query finishes. The trade-off — a third-party client
/// that half-closes after sending its request gets its query cancelled —
/// is documented in docs/RESILIENCE.md ("client abandonment").
bool PeerGone(int fd) {
  char byte;
  const ssize_t r = recv(fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
  if (r == 0) return true;  // orderly shutdown from the client
  if (r < 0 &&
      (errno == ECONNRESET || errno == EPIPE || errno == ENOTCONN ||
       errno == EBADF))
    return true;
  return false;
}

/// Any function call in `e`?
bool HasCall(const sparql::ExprPtr& e) {
  return e != nullptr &&
         (e->op == sparql::ExprOp::kCall ||
          std::any_of(e->args.begin(), e->args.end(), HasCall));
}

/// Any variable in predicate position or function call, anywhere in the
/// pattern tree or in `select` (a sub-select's projections included)?
bool NeedsService(const sparql::GraphPattern& pattern,
                  const std::vector<sparql::SelectItem>& select) {
  for (const sparql::SelectItem& item : select)
    if (HasCall(item.expr)) return true;
  for (const sparql::PatternTriple& t : pattern.triples)
    if (t.p.is_var) return true;
  for (const sparql::ExprPtr& filter : pattern.filters)
    if (HasCall(filter)) return true;
  for (const auto& chain : pattern.unions)
    for (const sparql::GraphPattern& alt : chain)
      if (NeedsService(alt, {})) return true;
  for (const sparql::GraphPattern& opt : pattern.optionals)
    if (NeedsService(opt, {})) return true;
  for (const auto& sub : pattern.subselects)
    if (sub != nullptr && NeedsService(sub->where, sub->select)) return true;
  return false;
}

}  // namespace

/// Registers one in-flight request (and, when a query — plain read or
/// serialized service-path — carries a CancelSource, that source) with
/// the server for the scope of its handling, so Drain() can wait for it
/// and hard-cancel it on timeout.
class ScopedActiveSource {
 public:
  ScopedActiveSource(KgServer* server, common::CancelSource* source)
      : server_(server), source_(source) {
    common::MutexLock lock(&server_->active_mu_);
    ++server_->inflight_;
    if (source_ != nullptr) server_->active_sources_.push_back(source_);
  }
  ~ScopedActiveSource() {
    common::MutexLock lock(&server_->active_mu_);
    --server_->inflight_;
    if (source_ != nullptr) {
      auto& v = server_->active_sources_;
      for (size_t i = 0; i < v.size(); ++i) {
        if (v[i] == source_) {
          v[i] = v.back();
          v.pop_back();
          break;
        }
      }
    }
    if (server_->inflight_ == 0) server_->active_cv_.NotifyAll();
  }
  ScopedActiveSource(const ScopedActiveSource&) = delete;
  ScopedActiveSource& operator=(const ScopedActiveSource&) = delete;

 private:
  KgServer* server_;
  common::CancelSource* source_;
};

bool CacheableRidOutcome(const Status& status) {
  switch (status.code()) {
    case StatusCode::kUnavailable:
    case StatusCode::kResourceExhausted:
    case StatusCode::kCancelled:
    case StatusCode::kDeadlineExceeded:
      return false;
    default:
      return true;
  }
}

ServerOptions ApplyServerEnv(ServerOptions base) {
  for (const ServerSetting& s : kServerSettings)
    base.*s.field = static_cast<int>(
        common::EnvInt(s.env, 1, static_cast<uint64_t>(s.max),
                       static_cast<uint64_t>(base.*s.field)));
  return base;
}

bool KgServer::RoutesToService(const sparql::Query& query,
                               std::string_view text) {
  if (query.kind != sparql::QueryKind::kSelect &&
      query.kind != sparql::QueryKind::kAsk)
    return true;  // updates: single-writer contract
  if (text.find("TrainGML") != std::string_view::npos) return true;
  return NeedsService(query.where, query.select);
}

KgServer::KgServer(core::SparqlMlService* service, ServerOptions options)
    : service_(service),
      options_(options),
      batcher_(&service->inference_manager(), options.batcher),
      embed_cache_(options.embed_cache_rows),
      breaker_(options.breaker) {}

KgServer::~KgServer() { Stop(); }

Status KgServer::Start() {
  if (listen_fd_ >= 0) return Status::FailedPrecondition("already started");
  if (options_.num_workers < 1 || options_.queue_depth < 1)
    return Status::InvalidArgument(
        "num_workers and queue_depth must be positive");
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0)
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status st =
        Status::Internal(std::string("bind: ") + std::strerror(errno));
    close(fd);
    return st;
  }
  if (listen(fd, 128) < 0) {
    const Status st =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    close(fd);
    return st;
  }
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) < 0) {
    const Status st =
        Status::Internal(std::string("getsockname: ") + std::strerror(errno));
    close(fd);
    return st;
  }
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  stop_.store(false, std::memory_order_relaxed);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i)
    workers_.emplace_back([this] { WorkerLoop(); });
  return Status::OK();
}

void KgServer::Drain() {
  if (listen_fd_ < 0) return;
  draining_.store(true, std::memory_order_relaxed);
  const auto deadline =
      SteadyClock::now() + std::chrono::milliseconds(options_.drain_timeout_ms);
  {
    common::MutexLock lock(&active_mu_);
    while (inflight_ > 0) {
      const auto now = SteadyClock::now();
      if (now >= deadline) break;
      active_cv_.WaitFor(
          active_mu_,
          std::chrono::duration_cast<std::chrono::microseconds>(deadline - now));
    }
    if (inflight_ > 0) {
      // Stragglers past the drain deadline: hard-cancel through their
      // registered sources. Their workers observe the token at the next
      // poll, answer Cancelled, and exit via the stop flag below.
      for (common::CancelSource* source : active_sources_)
        source->Cancel(common::CancelReason::kDrain);
    }
  }
  Stop();
}

void KgServer::Stop() {
  if (listen_fd_ < 0) return;
  {
    // The store must happen under queue_mu_: a worker that just evaluated
    // its wait predicate but has not yet blocked would otherwise miss both
    // the flag and the wakeup and sleep forever (join() then deadlocks).
    common::MutexLock lock(&queue_mu_);
    stop_.store(true, std::memory_order_relaxed);
  }
  queue_cv_.NotifyAll();
  if (acceptor_.joinable()) acceptor_.join();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
  {
    common::MutexLock lock(&queue_mu_);
    for (const PendingConn& c : queue_) close(c.fd);
    queue_.clear();
  }
  close(listen_fd_);
  listen_fd_ = -1;
}

void KgServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    struct pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int pr = poll(&pfd, 1, kPollSliceMs);
    if (pr <= 0) continue;  // timeout slice or EINTR: re-check stop flag
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    {
      common::MutexLock lock(&stats_mu_);
      ++stats_.connections_accepted;
    }
    if (draining_.load(std::memory_order_relaxed)) {
      WriteFrame(fd, BuildErrorResponse(
                         0, Status::Unavailable("server draining")));
      close(fd);
      BumpStat(&Stats::drain_rejects);
      continue;
    }
    if (InjectFault(common::FaultSite::kAdmissionQueue)) {
      BumpStat(&Stats::injected_faults);
      WriteFrame(fd, BuildErrorResponse(
                         0, Status::ResourceExhausted(
                                "injected fault: admission queue")));
      close(fd);
      continue;
    }
    bool admitted = false;
    {
      common::MutexLock lock(&queue_mu_);
      if (queue_.size() < static_cast<size_t>(options_.queue_depth)) {
        queue_.push_back({fd, std::chrono::steady_clock::now()});
        admitted = true;
      }
    }
    if (admitted) {
      queue_cv_.NotifyOne();
      continue;
    }
    // Admission control: a full queue answers immediately instead of
    // stalling the client until some worker frees up. Count before the
    // reply write so a client that sees the reject never reads a stale
    // counter.
    BumpStat(&Stats::overload_rejects);
    WriteFrame(fd, BuildErrorResponse(
                       0, Status::ResourceExhausted(
                              "server overloaded: request queue full")));
    close(fd);
  }
}

void KgServer::WorkerLoop() {
  for (;;) {
    PendingConn conn;
    {
      common::MutexLock lock(&queue_mu_);
      while (queue_.empty() && !stop_.load(std::memory_order_relaxed))
        queue_cv_.Wait(queue_mu_);
      if (queue_.empty()) return;  // stopping
      conn = queue_.front();
      queue_.pop_front();
    }
    if (draining_.load(std::memory_order_relaxed)) {
      WriteFrame(conn.fd, BuildErrorResponse(
                              0, Status::Unavailable("server draining")));
      close(conn.fd);
      BumpStat(&Stats::drain_rejects);
      continue;
    }
    if (InjectFault(common::FaultSite::kTaskDispatch)) {
      BumpStat(&Stats::injected_faults);
      WriteFrame(conn.fd, BuildErrorResponse(
                              0, Status::ResourceExhausted(
                                     "injected fault: task dispatch")));
      close(conn.fd);
      continue;
    }
    const auto waited = std::chrono::steady_clock::now() - conn.enqueued;
    if (options_.request_deadline_ms > 0 &&
        waited >= std::chrono::milliseconds(options_.request_deadline_ms)) {
      // The client already waited past its deadline; answering now with
      // real work would only add tail latency for everyone behind it.
      // Count before the reply write (see the acceptor-side reject).
      BumpStat(&Stats::overload_rejects);
      WriteFrame(conn.fd,
                 BuildErrorResponse(
                     0, Status::ResourceExhausted(
                            "server overloaded: queue wait exceeded deadline")));
      close(conn.fd);
      continue;
    }
    ServeConnection(conn.fd, conn.enqueued);
  }
}

void KgServer::ServeConnection(int fd,
                               std::chrono::steady_clock::time_point enqueued) {
  bool first_request = true;
  for (;;) {
    if (InjectFault(common::FaultSite::kSocketRead)) {
      // A read-side transport fault: the connection dies without a
      // byte of explanation, exactly like a mid-request peer reset.
      BumpStat(&Stats::injected_faults);
      break;
    }
    std::string body;
    const Status rs = ReadFrame(fd, options_.max_frame_bytes,
                                options_.idle_timeout_ms, &stop_, &body);
    if (!rs.ok()) {
      if (rs.code() == StatusCode::kInvalidArgument) {
        // Over-cap length prefix: tell the client why, then drop the
        // connection (the stream cannot be re-synchronized).
        WriteFrame(fd, BuildErrorResponse(0, rs));
        common::MutexLock lock(&stats_mu_);
        ++stats_.malformed_frames;
        ++stats_.error_responses;
      }
      break;  // clean close, idle timeout, stop, or socket error
    }
    if (draining_.load(std::memory_order_relaxed)) {
      WriteFrame(fd, BuildErrorResponse(
                         0, Status::Unavailable("server draining")));
      BumpStat(&Stats::drain_rejects);
      break;
    }
    // Deadline budgets start when the request arrived: a connection's
    // first request was already waiting while queued, later ones arrive
    // with the frame just read.
    const auto anchor =
        first_request ? enqueued : std::chrono::steady_clock::now();
    first_request = false;
    std::string resp;
    {
      // Every in-flight request is visible to Drain(), whatever its op.
      ScopedActiveSource active(this, nullptr);
      resp = HandleBody(fd, body, anchor);
    }
    {
      // Count before the write: once a client has read its response, the
      // counter must already include it (tests sample stats right after
      // their last reply arrives).
      common::MutexLock lock(&stats_mu_);
      ++stats_.requests_served;
    }
    if (InjectFault(common::FaultSite::kSocketWrite)) {
      // Write-side transport fault: the request executed but the
      // response evaporates — the ambiguity the "rid" dedup cache
      // exists to make retry-safe.
      BumpStat(&Stats::injected_faults);
      break;
    }
    if (!WriteFrame(fd, resp).ok()) break;
    if (draining_.load(std::memory_order_relaxed)) break;
  }
  close(fd);
}

std::string KgServer::HandleBody(
    int fd, const std::string& body,
    std::chrono::steady_clock::time_point anchor) {
  if (InjectFault(common::FaultSite::kFrameParse)) {
    BumpStat(&Stats::injected_faults);
    BumpError();
    return BuildErrorResponse(
        0, Status::InvalidArgument("injected fault: frame parse"));
  }
  auto req = ParseRequest(body);
  if (!req.ok()) {
    BumpError();
    return BuildErrorResponse(0, req.status());
  }
  switch (req->op) {
    case Request::Op::kPing:
      return BuildPongResponse(req->id);
    case Request::Op::kHealth:
      return HandleHealth(*req);
    case Request::Op::kQuery:
      return HandleQuery(fd, *req, anchor);
    case Request::Op::kInferClass:
    case Request::Op::kInferLinks:
    case Request::Op::kInferSimilar:
      return HandleInfer(*req);
  }
  BumpError();
  return BuildErrorResponse(req->id, Status::Internal("unhandled op"));
}

std::string KgServer::HandleQuery(
    int fd, const Request& req,
    std::chrono::steady_clock::time_point anchor) {
  auto parsed = sparql::ParseQuery(req.query);
  if (!parsed.ok()) {
    BumpError();
    return BuildErrorResponse(req.id, parsed.status());
  }
  // Deadline triage before any execution: a zero budget never had a
  // chance, and a budget that queue wait already consumed fails here
  // instead of burning a snapshot (satellite 3, docs/RESILIENCE.md).
  const bool has_deadline = req.deadline_ms >= 0;
  const auto deadline_at = anchor + std::chrono::milliseconds(
                                        has_deadline ? req.deadline_ms : 0);
  if (has_deadline) {
    if (req.deadline_ms == 0) {
      BumpStat(&Stats::deadline_immediate);
      BumpError();
      return BuildErrorResponse(
          req.id,
          Status::DeadlineExceeded("deadline_ms=0: request has no budget"));
    }
    if (std::chrono::steady_clock::now() >= deadline_at) {
      BumpStat(&Stats::deadline_queue_expired);
      BumpError();
      return BuildErrorResponse(
          req.id, Status::DeadlineExceeded(
                      "deadline expired before execution started"));
    }
  }
  if (RoutesToService(*parsed, req.query)) {
    const bool mutating = parsed->kind != sparql::QueryKind::kSelect &&
                          parsed->kind != sparql::QueryKind::kAsk;
    if (mutating && !req.rid.empty() && options_.rid_cache_entries > 0) {
      // At-most-once: a retried mutating request is answered with the
      // response cached when it was first applied.
      std::string cached = LookupRidResponse(req.rid);
      if (!cached.empty()) {
        BumpStat(&Stats::rid_replays);
        return cached;
      }
    }
    if (!mutating) {
      // SPARQL-ML reads sit behind the inference circuit breaker: with
      // the model runtime wedged they fail fast with a retry-after hint
      // instead of queueing on ml_mu_ (plain reads never come here).
      Status admit = breaker_.Admit();
      if (!admit.ok()) {
        BumpStat(&Stats::breaker_fast_fails);
        BumpError();
        return BuildErrorResponse(req.id, admit);
      }
    }
    // The serialized path carries a CancelSource of its own: the deadline
    // trips it mid-execution (the engine polls per pulled row, trainers
    // per epoch), and a timed-out Drain() hard-cancels it — so SIGTERM
    // shutdown stays bounded even under a long training run. No abandon
    // probe here: an update whose client vanished still runs to its
    // atomic completion rather than being torn mid-request.
    common::CancelSource source;
    if (has_deadline) source.set_deadline(deadline_at);
    Result<sparql::QueryResult> result = Status::Internal("pending");
    {
      ScopedActiveSource active(this, &source);
      common::MutexLock lock(&ml_mu_);
      // The budget (or the whole server) may have run out while this
      // request waited for the serialized path; the model was never
      // called, so release the admission without a verdict.
      const Status waited = source.token().Check();
      if (!waited.ok()) {
        if (!mutating) breaker_.Abort();
        BumpStat(waited.code() == StatusCode::kDeadlineExceeded
                     ? &Stats::deadline_exec_expired
                     : &Stats::cancelled);
        BumpError();
        return BuildErrorResponse(req.id, waited);
      }
      result = service_->Execute(req.query, nullptr, source.token());
    }
    const StatusCode rc = result.status().code();
    const bool cancelled_class =
        rc == StatusCode::kCancelled || rc == StatusCode::kDeadlineExceeded;
    if (!mutating) {
      // A cancelled or deadline-expired run is no verdict on the model
      // runtime: release the admission instead of recording it.
      if (cancelled_class)
        breaker_.Abort();
      else
        breaker_.Record(result.status());
    }
    // Training and model deletes change what the inference ops may
    // serve; drop cached rows rather than risk a stale model's.
    if (mutating) embed_cache_.Clear();
    std::string resp;
    if (!result.ok()) {
      if (rc == StatusCode::kDeadlineExceeded)
        BumpStat(&Stats::deadline_exec_expired);
      else if (rc == StatusCode::kCancelled)
        BumpStat(&Stats::cancelled);
      BumpError();
      resp = BuildErrorResponse(req.id, result.status());
    } else {
      resp = BuildQueryResponse(req.id, *result, nullptr);
    }
    // Only definitive outcomes enter the dedup cache: a transient error
    // must stay retryable under the same rid (see CacheableRidOutcome).
    if (mutating && !req.rid.empty() && options_.rid_cache_entries > 0 &&
        CacheableRidOutcome(result.status()))
      StoreRidResponse(req.rid, resp);
    return resp;
  }
  // Concurrent plain-read path: one MVCC snapshot per request, one
  // CancelSource wired for the deadline, the peer vanishing, and a
  // drain hard-cancel.
  common::CancelSource source;
  if (has_deadline) source.set_deadline(deadline_at);
  source.set_abandon_probe([fd] { return PeerGone(fd); });
  sparql::ExecInfo info;
  const rdf::Snapshot snapshot = service_->engine().store()->OpenSnapshot();
  Result<sparql::QueryResult> result = Status::Internal("pending");
  {
    ScopedActiveSource active(this, &source);
    result =
        service_->engine().Execute(*parsed, snapshot, &info, source.token());
  }
  if (!result.ok()) {
    if (result.status().code() == StatusCode::kDeadlineExceeded)
      BumpStat(&Stats::deadline_exec_expired);
    else if (result.status().code() == StatusCode::kCancelled)
      BumpStat(&Stats::cancelled);
    BumpError();
    return BuildErrorResponse(req.id, result.status());
  }
  return BuildQueryResponse(req.id, *result, &info);
}

std::string KgServer::HandleHealth(const Request& req) {
  HealthInfo h;
  h.breaker = BreakerStateName(breaker_.state());
  h.retry_after_ms = breaker_.retry_after_ms();
  {
    common::MutexLock lock(&queue_mu_);
    h.queue_depth = queue_.size();
  }
  h.queue_capacity = static_cast<size_t>(options_.queue_depth);
  h.epoch = service_->engine().store()->OpenSnapshot().epoch();
  h.draining = draining_.load(std::memory_order_relaxed);
  {
    // Served count as of before this health request (it is counted
    // after HandleBody returns).
    common::MutexLock lock(&stats_mu_);
    h.requests_served = stats_.requests_served;
  }
  return BuildHealthResponse(req.id, h);
}

std::string KgServer::LookupRidResponse(const std::string& rid) {
  common::MutexLock lock(&rid_mu_);
  auto it = rid_cache_.find(rid);
  if (it == rid_cache_.end()) return std::string();
  rid_lru_.splice(rid_lru_.begin(), rid_lru_, it->second.first);
  return it->second.second;
}

void KgServer::StoreRidResponse(const std::string& rid,
                                const std::string& response) {
  common::MutexLock lock(&rid_mu_);
  auto it = rid_cache_.find(rid);
  if (it != rid_cache_.end()) {
    rid_lru_.splice(rid_lru_.begin(), rid_lru_, it->second.first);
    it->second.second = response;
    return;
  }
  rid_lru_.push_front(rid);
  rid_cache_.emplace(rid, std::make_pair(rid_lru_.begin(), response));
  while (rid_cache_.size() > options_.rid_cache_entries) {
    rid_cache_.erase(rid_lru_.back());
    rid_lru_.pop_back();
  }
}

std::string KgServer::HandleInfer(const Request& req) {
  // Every inference op passes the circuit breaker: Admit() -> model
  // call -> Record(outcome). Wedged-model failures (Internal /
  // Unavailable) accumulate and open it; client mistakes (NotFound,
  // InvalidArgument) do not.
  {
    Status admit = breaker_.Admit();
    if (!admit.ok()) {
      BumpStat(&Stats::breaker_fast_fails);
      BumpError();
      return BuildErrorResponse(req.id, admit);
    }
  }
  if (InjectFault(common::FaultSite::kModelCall)) {
    const Status st = Status::Internal("injected fault: model call");
    breaker_.Record(st);
    BumpStat(&Stats::injected_faults);
    BumpError();
    return BuildErrorResponse(req.id, st);
  }
  core::InferenceManager& im = service_->inference_manager();
  if (req.op == Request::Op::kInferClass) {
    auto r = batcher_.NodeClass(req.model, req.node);
    breaker_.Record(r.status());
    if (!r.ok()) {
      BumpError();
      return BuildErrorResponse(req.id, r.status());
    }
    return BuildValueResponse(req.id, *r);
  }
  if (req.op == Request::Op::kInferLinks) {
    auto r = batcher_.TopKLinks(req.model, req.node, req.k);
    breaker_.Record(r.status());
    if (!r.ok()) {
      BumpError();
      return BuildErrorResponse(req.id, r.status());
    }
    return BuildValuesResponse(req.id, *r);
  }
  // infer_similar: serve the query row from the LRU when possible. A
  // miss (or a model without a row for this node) falls back to the
  // uncached call, which re-derives the row — and re-produces the exact
  // error — itself, so the cache never changes a response.
  Result<std::vector<std::string>> r = Status::Internal("pending");
  std::optional<std::vector<float>> row =
      options_.embed_cache_rows > 0 ? embed_cache_.Get(req.model, req.node)
                                    : std::nullopt;
  if (!row.has_value() && options_.embed_cache_rows > 0) {
    auto fetched = im.GetEmbeddingRow(req.model, req.node);
    if (fetched.ok()) {
      embed_cache_.Put(req.model, req.node, *fetched);
      row = std::move(*fetched);
    }
  }
  if (row.has_value())
    r = im.GetSimilarByRow(req.model, req.node, *row, req.k);
  else
    r = im.GetSimilarEntities(req.model, req.node, req.k);
  breaker_.Record(r.status());
  if (!r.ok()) {
    BumpError();
    return BuildErrorResponse(req.id, r.status());
  }
  return BuildValuesResponse(req.id, *r);
}

KgServer::Stats KgServer::stats() const {
  common::MutexLock lock(&stats_mu_);
  return stats_;
}

}  // namespace kgnet::serving
