// Deterministic fault injection (docs/RESILIENCE.md).
//
// The serving layer asks the process-wide FaultInjector at a handful of
// named sites — socket read/write, frame parse, admission queue, task
// dispatch, model call — whether this invocation should fail. Whether a
// given invocation fails is a pure function of (seed, site, invocation
// count), so any chaos-test failure replays exactly under the same seed:
// same decision schedule, same injected faults, same final state.
//
// The injector is compiled in always and inert by default: a disabled
// ShouldFail() is one relaxed atomic load. It arms itself from the
// environment on first use (KGNET_FAULT_SEED + KGNET_FAULT_RATE, both
// required and valid under common/env.h, otherwise inert with one stderr
// line), or explicitly via Configure()/Disable() from tests.
#ifndef KGNET_COMMON_FAULT_INJECTION_H_
#define KGNET_COMMON_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace kgnet::common {

/// Named injection sites. Each site keeps its own invocation counter so
/// the fault schedule at one site is independent of traffic at others.
enum class FaultSite : int {
  kSocketRead = 0,   // server-side frame read: drop the connection
  kSocketWrite,      // server-side reply write: drop the connection
  kFrameParse,       // request parse: treat the frame as malformed
  kAdmissionQueue,   // accept path: reject as if the queue were full
  kTaskDispatch,     // worker dequeue: fail the request before handling
  kModelCall,        // inference call: fail as if the model errored
};
inline constexpr int kNumFaultSites = 6;

/// Stable site name for logs, stats, and the fault-site catalog.
const char* FaultSiteName(FaultSite site);

class FaultInjector {
 public:
  /// The process-wide injector. First call arms it from the environment.
  static FaultInjector& Instance();

  /// The pure decision function: does invocation `n` at `site` fail under
  /// (seed, rate)? Exposed so tests and replay tooling can recompute the
  /// schedule without an armed injector.
  static bool Decision(uint64_t seed, FaultSite site, uint64_t n,
                       double rate);

  /// Counts the invocation and returns true when it should fail. When
  /// disarmed, counts nothing and returns false.
  bool ShouldFail(FaultSite site);

  /// Test hooks. Configure() arms with an explicit (seed, rate) and
  /// resets all counters; ConfigureSite() additionally restricts firing
  /// to one site (other sites still count invocations, preserving the
  /// schedule, but never fail — lets a test fault the model call without
  /// chaosing its own sockets); Disable() disarms and resets. Call them
  /// between test phases: a ShouldFail() racing a reconfiguration is
  /// race-free (every field is atomic) but may decide under a mix of the
  /// old and new settings.
  void Configure(uint64_t seed, double rate);
  void ConfigureSite(uint64_t seed, double rate, FaultSite only_site);
  void Disable();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  uint64_t seed() const { return seed_.load(std::memory_order_relaxed); }
  double rate() const { return rate_.load(std::memory_order_relaxed); }
  /// Site restriction in effect (-1 = all sites).
  int only_site() const { return only_site_.load(std::memory_order_relaxed); }

  /// Invocations / injected faults at `site` since the last (re)arm.
  uint64_t invocations(FaultSite site) const;
  uint64_t fired(FaultSite site) const;
  /// Injected faults across all sites since the last (re)arm.
  uint64_t total_fired() const;

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

 private:
  FaultInjector();
  /// Disarms, resets the counters, stores the settings and re-arms when
  /// `rate` > 0 (only_site -1 = all sites).
  void Arm(uint64_t seed, double rate, int only_site);
  void ResetCounters();

  /// Armed flag. Stored with release after the settings below, loaded
  /// with acquire, so a ShouldFail() that sees it set sees them too.
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> seed_{0};
  std::atomic<double> rate_{0.0};
  /// -1 = all sites; otherwise only this site fires (test hook).
  std::atomic<int> only_site_{-1};
  std::atomic<uint64_t> count_[kNumFaultSites];
  std::atomic<uint64_t> fired_[kNumFaultSites];
};

/// Disarms the process injector for a scope and restores the previous
/// configuration on exit. Chaos tests arm inside the guard so suites
/// sharing the process binary never see stray faults.
class ScopedFaultInjection {
 public:
  ScopedFaultInjection();
  ScopedFaultInjection(uint64_t seed, double rate);
  ~ScopedFaultInjection();

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;

 private:
  bool prev_enabled_;
  uint64_t prev_seed_;
  double prev_rate_;
  int prev_only_site_;
};

}  // namespace kgnet::common

#endif  // KGNET_COMMON_FAULT_INJECTION_H_
