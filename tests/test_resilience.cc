// Resilience tests (docs/RESILIENCE.md), in six parts:
//
//  1. CancelToken / CancelSource units: latch-once semantics, the
//     deadline trip (including an already-expired deadline tripping the
//     very first poll), the abandon probe, poll accounting.
//  2. FaultInjector: the pure decision function, determinism, counter
//     bookkeeping, the scoped guard, and env-style arming.
//  3. Retry policy: the per-class retryable predicate and the pinned
//     deterministic backoff schedule.
//  4. CircuitBreaker unit: closed -> open -> half-open -> closed/reopen,
//     single-probe admission, Abort() releasing a probe slot.
//  5. Server end-to-end: deadline edge cases (0, queue-expired,
//     exec-expired) with per-request stats, worker reclaim after a
//     deadline, client-abandonment cancellation, drain, the `.health`
//     verb, rid deduplication under injected response loss, and the
//     breaker opening/recovering against an injected wedged model.
//  6. Transport hardening satellites: EINTR storms mid round-trip and
//     SIGPIPE-free writes to half-closed sockets.
#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/fault_injection.h"
#include "core/kgnet.h"
#include "serving/circuit_breaker.h"
#include "sparql/parser.h"
#include "tests/serving_test_util.h"

namespace kgnet::serving {
namespace {

using common::CancelReason;
using common::CancelSource;
using common::CancelToken;
using common::FaultInjector;
using common::FaultSite;
using common::ScopedFaultInjection;
using core::KgNet;
using testing::LocalExpectedResponse;
using testing::ScopedServer;

// ------------------------------------------------------- cancellation --

TEST(CancelTest, DefaultTokenIsInert) {
  CancelToken token;
  EXPECT_FALSE(token.valid());
  EXPECT_FALSE(token.cancelled());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(token.Check().ok());
  EXPECT_EQ(token.checks(), 0u);
}

TEST(CancelTest, ExplicitCancelLatches) {
  CancelSource source;
  CancelToken token = source.token();
  EXPECT_TRUE(token.valid());
  EXPECT_TRUE(token.Check().ok());
  source.Cancel();
  const Status st = token.Check();
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_TRUE(source.cancel_requested());
  // The first reason wins: a later drain cancel does not change it.
  source.Cancel(CancelReason::kDrain);
  EXPECT_EQ(token.Check(), st);
}

TEST(CancelTest, AlreadyExpiredDeadlineTripsFirstPoll) {
  CancelSource source;
  source.set_deadline(std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(1));
  CancelToken token = source.token();
  // The deadline is only evaluated every kDeadlineStride polls, but
  // poll 0 lands on the stride, so an already-dead request never runs.
  const Status st = token.Check();
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
}

TEST(CancelTest, FutureDeadlineTripsAfterPassing) {
  CancelSource source;
  source.set_deadline(std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(50));
  CancelToken token = source.token();
  EXPECT_TRUE(token.Check().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  Status st = Status::OK();
  // At most one deadline stride of OK polls before the trip.
  for (int i = 0; i < 100 && st.ok(); ++i) st = token.Check();
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
}

TEST(CancelTest, AbandonProbeTripsOnProbeStride) {
  CancelSource source;
  int probes = 0;
  source.set_abandon_probe([&probes] {
    ++probes;
    return true;
  });
  CancelToken token = source.token();
  Status st = Status::OK();
  int polls = 0;
  while (st.ok() && polls < 5000) {
    st = token.Check();
    ++polls;
  }
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_EQ(probes, 1);       // evaluated once per probe stride
  EXPECT_LE(polls, 1024);     // tripped within the first stride
  EXPECT_EQ(token.checks(), static_cast<uint64_t>(polls));
}

TEST(CancelTest, ExecutorReportsCancelChecks) {
  KgNet kg;
  for (int i = 0; i < 20; ++i)
    kg.store().InsertIris("n" + std::to_string(i), "p1",
                          "n" + std::to_string((i + 1) % 20));
  auto parsed = sparql::ParseQuery("SELECT * WHERE { ?a <p1> ?b . }");
  ASSERT_TRUE(parsed.ok());
  CancelSource source;
  sparql::ExecInfo info;
  const rdf::Snapshot snapshot = kg.store().OpenSnapshot();
  auto result =
      kg.service().engine().Execute(*parsed, snapshot, &info, source.token());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->NumRows(), 20u);
  EXPECT_GT(info.cancel_checks, 0u);
}

TEST(CancelTest, CheckNowEvaluatesDeadlineOffStride) {
  // Trainers poll once per epoch; the 64-poll deadline stride would let
  // a deadline slide for dozens of epochs, so they use CheckNow, which
  // consults the clock on every call.
  CancelSource source;
  source.set_deadline(std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(30));
  CancelToken token = source.token();
  EXPECT_TRUE(token.Check().ok());  // poll 0 lands on the stride, pre-deadline
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  // Polls 1..62 sit between stride landings: the expired deadline is
  // invisible to Check() until poll 64.
  for (int i = 1; i < 63; ++i) EXPECT_TRUE(token.Check().ok()) << i;
  // CheckNow sees it immediately, and the reason latches for later polls.
  EXPECT_EQ(token.CheckNow().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(token.Check().code(), StatusCode::kDeadlineExceeded);
}

// ---------------------------------------------------- fault injection --

TEST(FaultInjectionTest, DecisionIsPureAndRateBounded) {
  for (uint64_t n = 0; n < 50; ++n) {
    const bool a = FaultInjector::Decision(42, FaultSite::kSocketRead, n, 0.3);
    const bool b = FaultInjector::Decision(42, FaultSite::kSocketRead, n, 0.3);
    EXPECT_EQ(a, b);
    EXPECT_FALSE(FaultInjector::Decision(42, FaultSite::kSocketRead, n, 0.0));
    EXPECT_TRUE(FaultInjector::Decision(42, FaultSite::kSocketRead, n, 1.0));
  }
  // Distinct sites get distinct decision streams from the same seed.
  int diffs = 0;
  for (uint64_t n = 0; n < 200; ++n)
    if (FaultInjector::Decision(9, FaultSite::kSocketRead, n, 0.5) !=
        FaultInjector::Decision(9, FaultSite::kModelCall, n, 0.5))
      ++diffs;
  EXPECT_GT(diffs, 0);
}

TEST(FaultInjectionTest, EmpiricalRateNearConfigured) {
  int fired = 0;
  const int kTrials = 10000;
  for (uint64_t n = 0; n < kTrials; ++n)
    if (FaultInjector::Decision(7, FaultSite::kFrameParse, n, 0.1)) ++fired;
  EXPECT_GT(fired, kTrials / 20);      // > 5%
  EXPECT_LT(fired, kTrials * 3 / 20);  // < 15%
}

TEST(FaultInjectionTest, DisabledInjectorNeverFires) {
  ScopedFaultInjection guard;  // disarm for the scope
  FaultInjector& fi = FaultInjector::Instance();
  EXPECT_FALSE(fi.enabled());
  for (int i = 0; i < 100; ++i)
    EXPECT_FALSE(fi.ShouldFail(FaultSite::kSocketRead));
  EXPECT_EQ(fi.invocations(FaultSite::kSocketRead), 0u);
  EXPECT_EQ(fi.total_fired(), 0u);
}

TEST(FaultInjectionTest, ShouldFailMatchesDecisionSchedule) {
  ScopedFaultInjection guard(1234, 0.25);
  FaultInjector& fi = FaultInjector::Instance();
  for (uint64_t n = 0; n < 100; ++n) {
    const bool expected =
        FaultInjector::Decision(1234, FaultSite::kModelCall, n, 0.25);
    EXPECT_EQ(fi.ShouldFail(FaultSite::kModelCall), expected) << n;
  }
  EXPECT_EQ(fi.invocations(FaultSite::kModelCall), 100u);
}

TEST(FaultInjectionTest, SiteRestrictionKeepsOtherSitesCounting) {
  ScopedFaultInjection guard;
  FaultInjector& fi = FaultInjector::Instance();
  fi.ConfigureSite(5, 1.0, FaultSite::kModelCall);
  EXPECT_TRUE(fi.ShouldFail(FaultSite::kModelCall));
  EXPECT_FALSE(fi.ShouldFail(FaultSite::kSocketRead));
  // The restricted site still counts, preserving the schedule.
  EXPECT_EQ(fi.invocations(FaultSite::kSocketRead), 1u);
  EXPECT_EQ(fi.fired(FaultSite::kSocketRead), 0u);
}

TEST(FaultInjectionTest, ScopedGuardRestoresPreviousConfig) {
  ScopedFaultInjection outer(77, 0.5);
  {
    ScopedFaultInjection inner;  // disarm
    EXPECT_FALSE(FaultInjector::Instance().enabled());
  }
  FaultInjector& fi = FaultInjector::Instance();
  EXPECT_TRUE(fi.enabled());
  EXPECT_EQ(fi.seed(), 77u);
  EXPECT_DOUBLE_EQ(fi.rate(), 0.5);
}

TEST(FaultInjectionTest, SiteNamesAreStable) {
  EXPECT_STREQ(FaultSiteName(FaultSite::kSocketRead), "socket_read");
  EXPECT_STREQ(FaultSiteName(FaultSite::kModelCall), "model_call");
}

// ------------------------------------------------------- retry policy --

TEST(RetryTest, RetryableStatusClasses) {
  EXPECT_TRUE(RetryableStatus(Status::Unavailable("reset")));
  EXPECT_TRUE(RetryableStatus(Status::ResourceExhausted("overload")));
  EXPECT_FALSE(RetryableStatus(Status::OK()));
  EXPECT_FALSE(RetryableStatus(Status::InvalidArgument("bad")));
  EXPECT_FALSE(RetryableStatus(Status::NotFound("gone")));
  EXPECT_FALSE(RetryableStatus(Status::ParseError("syntax")));
  EXPECT_FALSE(RetryableStatus(Status::Internal("bug")));
  EXPECT_FALSE(RetryableStatus(Status::DeadlineExceeded("late")));
  EXPECT_FALSE(RetryableStatus(Status::Cancelled("stopped")));
}

TEST(RetryTest, BackoffScheduleDeterministicAndBounded) {
  RetryOptions options;
  options.initial_backoff_ms = 10;
  options.max_backoff_ms = 80;
  options.jitter_seed = 3;
  int64_t prev_base = 0;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    const int a = RetryBackoffMs(options, attempt);
    const int b = RetryBackoffMs(options, attempt);
    EXPECT_EQ(a, b) << "schedule must be a pure function";
    // Base doubles 10, 20, 40, 80, 80, ... and jitter adds <= base/2.
    int64_t base = 10;
    for (int i = 1; i < attempt && base < 80; ++i) base *= 2;
    if (base > 80) base = 80;
    EXPECT_GE(a, base);
    EXPECT_LE(a, base + base / 2);
    EXPECT_GE(base, prev_base);
    prev_base = base;
  }
  // Different seeds give different jitter somewhere in the schedule.
  RetryOptions other = options;
  other.jitter_seed = 4;
  bool any_diff = false;
  for (int attempt = 1; attempt <= 8; ++attempt)
    if (RetryBackoffMs(options, attempt) != RetryBackoffMs(other, attempt))
      any_diff = true;
  EXPECT_TRUE(any_diff);
}

// --------------------------------------------------- breaker unit tests --

TEST(CircuitBreakerTest, OpensAfterConsecutiveInfraFailures) {
  BreakerOptions options;
  options.failure_threshold = 3;
  options.cooldown_ms = 50;
  CircuitBreaker breaker(options);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(breaker.Admit().ok());
    breaker.Record(Status::Internal("model wedged"));
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  // A success resets the run: two more failures do not open it...
  ASSERT_TRUE(breaker.Admit().ok());
  breaker.Record(Status::OK());
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(breaker.Admit().ok());
    breaker.Record(Status::Unavailable("down"));
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  // ...but the third consecutive one does.
  ASSERT_TRUE(breaker.Admit().ok());
  breaker.Record(Status::Internal("still wedged"));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.opens(), 1u);
  EXPECT_GT(breaker.retry_after_ms(), 0);
  const Status rejected = breaker.Admit();
  EXPECT_EQ(rejected.code(), StatusCode::kUnavailable);
  EXPECT_NE(rejected.message().find("retry after"), std::string::npos);
  EXPECT_EQ(breaker.fast_fails(), 1u);
}

TEST(CircuitBreakerTest, ClientErrorsDoNotTrip) {
  BreakerOptions options;
  options.failure_threshold = 2;
  CircuitBreaker breaker(options);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(breaker.Admit().ok());
    breaker.Record(Status::NotFound("no such model"));
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, HalfOpenSingleProbeThenCloseOrReopen) {
  BreakerOptions options;
  options.failure_threshold = 1;
  options.cooldown_ms = 30;
  CircuitBreaker breaker(options);
  ASSERT_TRUE(breaker.Admit().ok());
  breaker.Record(Status::Internal("boom"));
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  // Past the cooldown: exactly one probe admitted, others fast-fail.
  ASSERT_TRUE(breaker.Admit().ok());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  const Status second = breaker.Admit();
  EXPECT_EQ(second.code(), StatusCode::kUnavailable);
  // Probe failure reopens and restarts the cooldown.
  breaker.Record(Status::Internal("still boom"));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.opens(), 2u);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  ASSERT_TRUE(breaker.Admit().ok());
  breaker.Record(Status::OK());  // probe success closes
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.Admit().ok());
}

TEST(CircuitBreakerTest, AbortReleasesProbeSlotWithoutVerdict) {
  BreakerOptions options;
  options.failure_threshold = 1;
  options.cooldown_ms = 20;
  CircuitBreaker breaker(options);
  ASSERT_TRUE(breaker.Admit().ok());
  breaker.Record(Status::Internal("boom"));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(breaker.Admit().ok());  // claims the probe slot
  breaker.Abort();                    // never reached the model
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  ASSERT_TRUE(breaker.Admit().ok());  // slot free for the next request
  breaker.Record(Status::OK());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

// ------------------------------------------------- server: deadlines --

/// A deterministic dense graph (out-degree `degree` per node) whose
/// 4-hop chain query streams nodes*degree^4 rows — enough to outlive
/// any test deadline by a wide margin.
void LoadDenseGraph(KgNet* kg, int nodes, int degree) {
  for (int s = 0; s < nodes; ++s)
    for (int k = 0; k < degree; ++k)
      kg->store().InsertIris("n" + std::to_string(s), "p",
                             "n" + std::to_string((s * 31 + k * 17 + 7) %
                                                  nodes));
}

const char kChainQuery[] =
    "SELECT * WHERE { ?a <p> ?b . ?b <p> ?c . ?c <p> ?d . ?d <p> ?e . }";

/// The same 4-hop chain with variable predicates: RoutesToService is
/// true for it (potential SPARQL-ML), so it runs on the serialized
/// service path with the same row volume as kChainQuery.
const char kServiceChainQuery[] =
    "SELECT * WHERE { ?a ?p ?b . ?b ?q ?c . ?c ?r ?d . ?d ?s ?e . }";

TEST(DeadlineTest, ZeroDeadlineFailsImmediately) {
  KgNet kg;
  kg.store().InsertIris("n1", "p1", "n2");
  ScopedServer scope(&kg.service());
  ASSERT_TRUE(scope.start_status().ok());
  KgClient client;
  ASSERT_TRUE(scope.Connect(&client).ok());
  auto raw = client.Call(
      BuildQueryRequest(1, "SELECT * WHERE { ?a <p1> ?b . }", 0));
  ASSERT_TRUE(raw.ok()) << raw.status();
  auto parsed = ParseQueryResponse(*raw);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(scope.server().stats().deadline_immediate, 1u);
}

TEST(DeadlineTest, QueueWaitCountsAgainstTheDeadline) {
  KgNet kg;
  kg.store().InsertIris("n1", "p1", "n2");
  ScopedServer scope(&kg.service());
  ASSERT_TRUE(scope.start_status().ok());
  KgClient client;
  ASSERT_TRUE(scope.Connect(&client).ok());
  // The connection sat idle past the request's whole budget before the
  // first frame arrived; the budget anchors at enqueue time.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  auto raw = client.Call(
      BuildQueryRequest(2, "SELECT * WHERE { ?a <p1> ?b . }", 100));
  ASSERT_TRUE(raw.ok()) << raw.status();
  auto parsed = ParseQueryResponse(*raw);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(scope.server().stats().deadline_queue_expired, 1u);
}

TEST(DeadlineTest, ExpiredQueryFreesWorkerForImmediateReuse) {
  KgNet kg;
  LoadDenseGraph(&kg, 200, 15);
  ServerOptions options;
  options.num_workers = 2;
  ScopedServer scope(&kg.service(), options);
  ASSERT_TRUE(scope.start_status().ok());

  KgClient slow;
  ASSERT_TRUE(scope.Connect(&slow).ok());
  slow.set_request_deadline_ms(250);
  const auto begin = std::chrono::steady_clock::now();
  auto r = slow.Query(kChainQuery);
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - begin)
          .count();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  // Cooperative cancellation must unwind the scan promptly (the strict
  // <2x-deadline bound is pinned by bench_serving; sanitizer builds get
  // headroom here).
  EXPECT_LT(elapsed_ms, 2500);
  EXPECT_GE(scope.server().stats().deadline_exec_expired, 1u);

  // Full capacity again: with the slow connection gone, hold
  // num_workers connections open simultaneously and serve a query on
  // each — only possible if the cancelled query's worker was released.
  slow.Close();
  std::vector<std::unique_ptr<KgClient>> clients;
  for (int i = 0; i < options.num_workers; ++i) {
    clients.push_back(std::make_unique<KgClient>());
    ASSERT_TRUE(scope.Connect(clients.back().get()).ok());
  }
  for (std::unique_ptr<KgClient>& c : clients) {
    auto quick = c->Query("SELECT * WHERE { <n1> <p> ?b . } LIMIT 1");
    EXPECT_TRUE(quick.ok()) << quick.status();
  }
}

TEST(DeadlineTest, AbandonedClientQueryIsCancelled) {
  KgNet kg;
  LoadDenseGraph(&kg, 200, 15);
  ServerOptions options;
  options.num_workers = 1;
  ScopedServer scope(&kg.service(), options);
  ASSERT_TRUE(scope.start_status().ok());

  {
    KgClient ghost;
    ASSERT_TRUE(scope.Connect(&ghost).ok());
    // Send the long query and vanish without reading the response.
    const std::string frame = EncodeFrame(BuildQueryRequest(3, kChainQuery));
    ASSERT_TRUE(ghost.SendRaw(frame.data(), frame.size()).ok());
  }  // ghost closes here

  // The abandon probe reclaims the only worker; a live client's query
  // must get through long before the chain query could finish.
  KgClient live;
  ASSERT_TRUE(scope.Connect(&live).ok());
  live.set_timeout_ms(20000);
  auto r = live.Query("SELECT * WHERE { <n1> <p> ?b . } LIMIT 1");
  EXPECT_TRUE(r.ok()) << r.status();
  EXPECT_GE(scope.server().stats().cancelled, 1u);
}

TEST(DeadlineTest, SerializedServicePathHonorsDeadline) {
  // Deadline coverage for the serialized (ml_mu_) path: a
  // variable-predicate chain query routes to the service, where the
  // token now rides through SparqlMlService::Execute into the engine.
  KgNet kg;
  LoadDenseGraph(&kg, 200, 15);
  ScopedServer scope(&kg.service());
  ASSERT_TRUE(scope.start_status().ok());
  KgClient client;
  ASSERT_TRUE(scope.Connect(&client).ok());
  client.set_timeout_ms(20000);
  auto raw = client.Call(BuildQueryRequest(4, kServiceChainQuery, 150));
  ASSERT_TRUE(raw.ok()) << raw.status();
  auto parsed = ParseQueryResponse(*raw);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(scope.server().stats().deadline_exec_expired, 1u);
}

// ------------------------------------------------------ server: drain --

TEST(DrainTest, DrainCancelsInFlightAndRejectsNewWork) {
  KgNet kg;
  LoadDenseGraph(&kg, 200, 15);
  ServerOptions options;
  options.num_workers = 2;
  options.drain_timeout_ms = 200;
  ScopedServer scope(&kg.service(), options);
  ASSERT_TRUE(scope.start_status().ok());

  std::atomic<bool> got_response{false};
  Status slow_status = Status::OK();
  std::thread slow_thread([&scope, &slow_status, &got_response] {
    KgClient slow;
    if (!scope.Connect(&slow).ok()) return;
    slow.set_timeout_ms(20000);
    auto r = slow.Query(kChainQuery);
    slow_status = r.status();
    got_response.store(true);
  });
  // Let the slow query reach execution, then drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const auto begin = std::chrono::steady_clock::now();
  scope.server().Drain();
  const auto drain_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::steady_clock::now() - begin)
                            .count();
  slow_thread.join();
  EXPECT_TRUE(scope.server().draining());
  ASSERT_TRUE(got_response.load());
  EXPECT_EQ(slow_status.code(), StatusCode::kCancelled) << slow_status;
  EXPECT_GE(scope.server().stats().cancelled, 1u);
  // Bounded shutdown: drain timeout plus cancellation latency, not the
  // full runtime of the chain query.
  EXPECT_LT(drain_ms, 5000);
  // The server is stopped; new connections are refused outright.
  KgClient after;
  EXPECT_FALSE(scope.Connect(&after).ok());
}

TEST(DrainTest, DrainCancelsSerializedServicePathRequests) {
  // Regression: the serialized path used to register a null
  // CancelSource, so a drain's hard-cancel never reached it and Stop()
  // blocked in the worker join until the query ran dry. Service-path
  // requests now register like plain reads.
  KgNet kg;
  LoadDenseGraph(&kg, 200, 15);
  ServerOptions options;
  options.num_workers = 1;
  options.drain_timeout_ms = 200;
  ScopedServer scope(&kg.service(), options);
  ASSERT_TRUE(scope.start_status().ok());

  std::atomic<bool> got_response{false};
  Status slow_status = Status::OK();
  std::thread slow_thread([&scope, &slow_status, &got_response] {
    KgClient slow;
    if (!scope.Connect(&slow).ok()) return;
    slow.set_timeout_ms(20000);
    auto r = slow.Query(kServiceChainQuery);
    slow_status = r.status();
    got_response.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const auto begin = std::chrono::steady_clock::now();
  scope.server().Drain();
  const auto drain_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::steady_clock::now() - begin)
                            .count();
  slow_thread.join();
  ASSERT_TRUE(got_response.load());
  EXPECT_EQ(slow_status.code(), StatusCode::kCancelled) << slow_status;
  EXPECT_GE(scope.server().stats().cancelled, 1u);
  EXPECT_LT(drain_ms, 5000);
}

TEST(DrainTest, RapidStartStopNeverStrandsAWorker) {
  // Regression: Stop() used to flip the stop flag *outside* queue_mu_, so
  // a worker that had just evaluated its wait predicate — but not yet
  // blocked — missed both the flag and the broadcast and slept forever,
  // deadlocking the join. Start/Stop back-to-back lands workers in exactly
  // that window; without the fix this loop eventually hangs (and the ctest
  // timeout flags it).
  KgNet kg;
  kg.store().InsertIris("n1", "p1", "n2");
  ServerOptions options;
  options.num_workers = 4;
  options.queue_depth = 2;
  for (int i = 0; i < 200; ++i) {
    KgServer server(&kg.service(), options);
    ASSERT_TRUE(server.Start().ok()) << "iteration " << i;
    server.Stop();
  }
}

// ----------------------------------------------------- server: health --

TEST(HealthTest, ReportsBreakerQueueEpochAndServed) {
  KgNet kg;
  kg.store().InsertIris("n1", "p1", "n2");
  ServerOptions options;
  options.queue_depth = 16;
  ScopedServer scope(&kg.service(), options);
  ASSERT_TRUE(scope.start_status().ok());
  KgClient client;
  ASSERT_TRUE(scope.Connect(&client).ok());
  ASSERT_TRUE(client.Ping().ok());
  auto h = client.Health();
  ASSERT_TRUE(h.ok()) << h.status();
  EXPECT_EQ(h->breaker, "closed");
  EXPECT_EQ(h->retry_after_ms, 0);
  EXPECT_EQ(h->queue_capacity, 16u);
  EXPECT_FALSE(h->draining);
  EXPECT_GE(h->requests_served, 1u);  // the ping
  EXPECT_EQ(h->epoch, kg.store().OpenSnapshot().epoch());
}

// -------------------------------------------- server: rid deduplication --

TEST(RidDedupTest, ReplayedUpdateAppliesOnceAndReturnsCachedBytes) {
  KgNet kg;
  ScopedServer scope(&kg.service());
  ASSERT_TRUE(scope.start_status().ok());
  KgClient client;
  ASSERT_TRUE(scope.Connect(&client).ok());

  const std::string body = BuildQueryRequest(
      7, "INSERT DATA { <n9> <p1> <n1> . }", -1, "rid-test-1");
  auto first = client.Call(body);
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = client.Call(body);  // byte-identical retry
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(*first, *second);  // cached response, byte-for-byte
  EXPECT_EQ(scope.server().stats().rid_replays, 1u);
  // Applied exactly once.
  KgClient reader;
  ASSERT_TRUE(scope.Connect(&reader).ok());
  auto rows = reader.Query("SELECT * WHERE { <n9> <p1> ?o . }");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->result.NumRows(), 1u);
}

TEST(RidDedupTest, RetryUnderInjectedResponseLossAppliesOnce) {
  // Pick a seed whose socket-write schedule drops the first response and
  // lets the retry through — the decision function makes this a
  // deterministic, replayable scenario rather than a race.
  uint64_t seed = 0;
  for (uint64_t s = 1; s < 10000; ++s) {
    if (FaultInjector::Decision(s, FaultSite::kSocketWrite, 0, 0.5) &&
        !FaultInjector::Decision(s, FaultSite::kSocketWrite, 1, 0.5) &&
        !FaultInjector::Decision(s, FaultSite::kSocketWrite, 2, 0.5)) {
      seed = s;
      break;
    }
  }
  ASSERT_NE(seed, 0u);

  KgNet kg;
  ScopedServer scope(&kg.service());
  ASSERT_TRUE(scope.start_status().ok());
  KgClient client;
  ASSERT_TRUE(scope.Connect(&client).ok());
  RetryOptions retry;
  retry.max_attempts = 5;
  retry.initial_backoff_ms = 1;
  retry.max_backoff_ms = 10;
  client.set_retry_options(retry);

  ScopedFaultInjection guard;
  FaultInjector::Instance().ConfigureSite(seed, 0.5, FaultSite::kSocketWrite);
  auto r = client.Query("INSERT DATA { <n8> <p2> <n1> . }");
  ASSERT_TRUE(r.ok()) << r.status();
  FaultInjector::Instance().Disable();

  EXPECT_GE(scope.server().stats().rid_replays, 1u);
  KgClient reader;
  ASSERT_TRUE(scope.Connect(&reader).ok());
  auto rows = reader.Query("SELECT * WHERE { <n8> <p2> ?o . }");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->result.NumRows(), 1u);
}

TEST(RidDedupTest, DistinctClientsWithDefaultOptionsNeverCollide) {
  // Regression: auto-generated rids used to be a pure function of
  // (jitter_seed, request id), so two clients running the default
  // options emitted identical rid sequences and the second client's
  // *different* update was answered from the first one's cache entry —
  // a silently lost write. Rids now mix a per-client nonce.
  KgNet kg;
  ScopedServer scope(&kg.service());
  ASSERT_TRUE(scope.start_status().ok());

  RetryOptions retry;  // defaults, identical for both clients
  retry.max_attempts = 3;
  KgClient a;
  KgClient b;
  a.set_retry_options(retry);
  b.set_retry_options(retry);
  EXPECT_NE(a.rid_nonce(), b.rid_nonce());
  ASSERT_TRUE(scope.Connect(&a).ok());
  ASSERT_TRUE(scope.Connect(&b).ok());

  // Same request id (1) on both connections, different payloads.
  auto ra = a.Query("INSERT DATA { <ca> <p1> <n1> . }");
  ASSERT_TRUE(ra.ok()) << ra.status();
  auto rb = b.Query("INSERT DATA { <cb> <p1> <n1> . }");
  ASSERT_TRUE(rb.ok()) << rb.status();

  EXPECT_EQ(scope.server().stats().rid_replays, 0u);
  KgClient reader;
  ASSERT_TRUE(scope.Connect(&reader).ok());
  for (const char* q : {"SELECT * WHERE { <ca> <p1> ?o . }",
                        "SELECT * WHERE { <cb> <p1> ?o . }"}) {
    auto rows = reader.Query(q);
    ASSERT_TRUE(rows.ok()) << rows.status();
    EXPECT_EQ(rows->result.NumRows(), 1u) << q;
  }
}

TEST(RidDedupTest, OnlyDefinitiveOutcomesAreCacheable) {
  // Success and deterministic request errors replay; transient classes
  // must re-execute or the retry carrying the same rid can never
  // succeed.
  EXPECT_TRUE(CacheableRidOutcome(Status::OK()));
  EXPECT_TRUE(CacheableRidOutcome(Status::InvalidArgument("bad")));
  EXPECT_TRUE(CacheableRidOutcome(Status::ParseError("bad")));
  EXPECT_TRUE(CacheableRidOutcome(Status::NotFound("missing")));
  EXPECT_FALSE(CacheableRidOutcome(Status::Unavailable("later")));
  EXPECT_FALSE(CacheableRidOutcome(Status::ResourceExhausted("full")));
  EXPECT_FALSE(CacheableRidOutcome(Status::Cancelled("gone")));
  EXPECT_FALSE(CacheableRidOutcome(Status::DeadlineExceeded("late")));
}

TEST(RidDedupTest, TransientErrorIsNotCachedSoTheRetryCanSucceed) {
  // An update that dies on its deadline must not poison its rid: the
  // follow-up attempt with the same rid has to execute, not replay the
  // cached error forever.
  KgNet kg;
  LoadDenseGraph(&kg, 200, 15);
  ScopedServer scope(&kg.service());
  ASSERT_TRUE(scope.start_status().ok());
  KgClient client;
  ASSERT_TRUE(scope.Connect(&client).ok());
  client.set_timeout_ms(20000);

  // A mutating INSERT..WHERE whose chain scan cannot finish in 100ms.
  auto first = client.Call(BuildQueryRequest(
      11,
      "INSERT { ?a <marker> <done> } WHERE "
      "{ ?a <p> ?b . ?b <p> ?c . ?c <p> ?d . ?d <p> ?e . }",
      100, "rid-transient-1"));
  ASSERT_TRUE(first.ok()) << first.status();
  auto parsed = ParseQueryResponse(*first);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kDeadlineExceeded);

  // Same rid, fresh budget, cheap payload: must execute and succeed.
  auto second = client.Call(BuildQueryRequest(
      12, "INSERT DATA { <t1> <marker> <done> . }", -1, "rid-transient-1"));
  ASSERT_TRUE(second.ok()) << second.status();
  auto ok = ParseQueryResponse(*second);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(scope.server().stats().rid_replays, 0u);
  KgClient reader;
  ASSERT_TRUE(scope.Connect(&reader).ok());
  auto rows = reader.Query("SELECT * WHERE { <t1> <marker> ?o . }");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->result.NumRows(), 1u);
}

// ---------------------------------------------- server: breaker e2e --

TEST(BreakerE2ETest, OpensUnderInjectedModelFaultsAndRecovers) {
  KgNet kg;
  kg.store().InsertIris("n1", "p1", "n2");
  ServerOptions options;
  options.breaker.failure_threshold = 3;
  options.breaker.cooldown_ms = 100;
  ScopedServer scope(&kg.service(), options);
  ASSERT_TRUE(scope.start_status().ok());
  KgClient client;
  ASSERT_TRUE(scope.Connect(&client).ok());

  const std::string q = "SELECT * WHERE { ?a <p1> ?b . }";
  const std::string expected = LocalExpectedResponse(&kg.service(), 42, q);
  {
    ScopedFaultInjection guard;
    FaultInjector::Instance().ConfigureSite(7, 1.0, FaultSite::kModelCall);
    for (int i = 0; i < 3; ++i) {
      auto r = client.NodeClass("m", "n1");
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kInternal) << r.status();
    }
    ASSERT_EQ(scope.server().breaker().state(), CircuitBreaker::State::kOpen);
    // Fast fail: the model site is not even reached.
    const uint64_t calls_before =
        FaultInjector::Instance().invocations(FaultSite::kModelCall);
    auto rejected = client.NodeClass("m", "n1");
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
    EXPECT_NE(rejected.status().message().find("breaker open"),
              std::string::npos);
    EXPECT_EQ(FaultInjector::Instance().invocations(FaultSite::kModelCall),
              calls_before);
    // Plain reads keep serving byte-identical responses throughout.
    auto raw = client.Call(BuildQueryRequest(42, q));
    ASSERT_TRUE(raw.ok()) << raw.status();
    EXPECT_EQ(*raw, expected);
    // `.health` reports the degradation.
    auto h = client.Health();
    ASSERT_TRUE(h.ok()) << h.status();
    EXPECT_EQ(h->breaker, "open");
    EXPECT_GT(h->retry_after_ms, 0);
  }  // injected faults rescinded: the model path works again

  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  // The half-open probe goes through; NotFound (no model "m") is the
  // request's fault, not the runtime's, so the breaker closes.
  auto probe = client.NodeClass("m", "n1");
  ASSERT_FALSE(probe.ok());
  EXPECT_EQ(probe.status().code(), StatusCode::kNotFound) << probe.status();
  EXPECT_EQ(scope.server().breaker().state(), CircuitBreaker::State::kClosed);
  EXPECT_GE(scope.server().stats().breaker_fast_fails, 1u);
}

// ----------------------------------------- transport hardening (EINTR) --

std::atomic<int> g_usr1_seen{0};
void OnUsr1(int) { g_usr1_seen.fetch_add(1, std::memory_order_relaxed); }

TEST(TransportTest, SignalStormMidRoundTripDoesNotCorruptFrames) {
  struct sigaction sa;
  struct sigaction old_sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = &OnUsr1;
  sa.sa_flags = 0;  // no SA_RESTART: reads really see EINTR
  sigemptyset(&sa.sa_mask);
  ASSERT_EQ(sigaction(SIGUSR1, &sa, &old_sa), 0);
  g_usr1_seen.store(0);

  KgNet kg;
  for (int i = 0; i < 50; ++i)
    kg.store().InsertIris("n" + std::to_string(i), "p1",
                          "n" + std::to_string((i + 1) % 50));
  ScopedServer scope(&kg.service());
  ASSERT_TRUE(scope.start_status().ok());
  KgClient client;
  ASSERT_TRUE(scope.Connect(&client).ok());
  const std::string q = "SELECT * WHERE { ?a <p1> ?b . }";
  const std::string expected = LocalExpectedResponse(&kg.service(), 11, q);

  std::atomic<bool> done{false};
  const pthread_t target = pthread_self();
  std::thread pummel([&done, target] {
    while (!done.load(std::memory_order_relaxed)) {
      pthread_kill(target, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // At least 30 round trips, and on until a few signals have landed
  // during them: on a loaded host 30 can finish before the pummel
  // thread's first pthread_kill. The deadline only bounds a storm that
  // never lands, which the EXPECT_GT below then reports.
  constexpr int kMinSignals = 10;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (int i = 0;
       i < 30 || (g_usr1_seen.load() < kMinSignals &&
                  std::chrono::steady_clock::now() < deadline);
       ++i) {
    auto raw = client.Call(BuildQueryRequest(11, q));
    ASSERT_TRUE(raw.ok()) << raw.status() << " (iteration " << i << ")";
    ASSERT_EQ(*raw, expected) << "iteration " << i;
  }
  done.store(true);
  pummel.join();
  EXPECT_GT(g_usr1_seen.load(), 0) << "the storm never landed a signal";
  sigaction(SIGUSR1, &old_sa, nullptr);
}

// --------------------------------------- transport hardening (SIGPIPE) --

TEST(TransportTest, WriteToHalfClosedPeerIsUnavailableNotSigpipe) {
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  close(sv[1]);  // peer is gone
  // Without MSG_NOSIGNAL this would raise SIGPIPE and kill the process;
  // with it, the write fails over to the retryable transport class.
  const Status st = WriteFrame(sv[0], std::string(1 << 16, 'x'));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st;
  close(sv[0]);
}

TEST(TransportTest, ServerSurvivesClientsThatVanishBeforeTheReply) {
  KgNet kg;
  kg.store().InsertIris("n1", "p1", "n2");
  ScopedServer scope(&kg.service());
  ASSERT_TRUE(scope.start_status().ok());
  for (int i = 0; i < 5; ++i) {
    KgClient ghost;
    ASSERT_TRUE(scope.Connect(&ghost).ok());
    const std::string frame =
        EncodeFrame(BuildQueryRequest(1, "SELECT * WHERE { ?a <p1> ?b . }"));
    ASSERT_TRUE(ghost.SendRaw(frame.data(), frame.size()).ok());
    ghost.Close();  // half-close before the server can reply
  }
  // The server took every EPIPE on the chin and keeps serving.
  KgClient live;
  ASSERT_TRUE(scope.Connect(&live).ok());
  EXPECT_TRUE(live.Ping().ok());
  auto r = live.Query("SELECT * WHERE { ?a <p1> ?b . }");
  EXPECT_TRUE(r.ok()) << r.status();
}

// -------------------------------------------------- wire-format compat --

TEST(WireCompatTest, ResilienceFieldsOmittedWhenUnset) {
  const std::string legacy = BuildQueryRequest(1, "SELECT * WHERE { }");
  EXPECT_EQ(legacy.find("deadline_ms"), std::string::npos);
  EXPECT_EQ(legacy.find("rid"), std::string::npos);
  const std::string armed =
      BuildQueryRequest(1, "SELECT * WHERE { }", 100, "r1");
  EXPECT_NE(armed.find("\"deadline_ms\":100"), std::string::npos);
  EXPECT_NE(armed.find("\"rid\":\"r1\""), std::string::npos);
  auto parsed = ParseRequest(armed);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->deadline_ms, 100);
  EXPECT_EQ(parsed->rid, "r1");
  auto unset = ParseRequest(legacy);
  ASSERT_TRUE(unset.ok());
  EXPECT_EQ(unset->deadline_ms, -1);
  EXPECT_TRUE(unset->rid.empty());
}

TEST(WireCompatTest, DeadlineFieldStrictlyValidated) {
  auto bad_type = ParseRequest(
      "{\"op\":\"ping\",\"id\":1,\"deadline_ms\":\"soon\"}");
  EXPECT_FALSE(bad_type.ok());
  EXPECT_EQ(bad_type.status().code(), StatusCode::kInvalidArgument);
  auto negative =
      ParseRequest("{\"op\":\"ping\",\"id\":1,\"deadline_ms\":-5}");
  EXPECT_FALSE(negative.ok());
  auto huge = ParseRequest(
      "{\"op\":\"ping\",\"id\":1,\"deadline_ms\":99999999999}");
  EXPECT_FALSE(huge.ok());
  auto bad_rid = ParseRequest("{\"op\":\"ping\",\"id\":1,\"rid\":7}");
  EXPECT_FALSE(bad_rid.ok());
}

}  // namespace
}  // namespace kgnet::serving
