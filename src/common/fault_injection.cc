#include "common/fault_injection.h"

#include <cstdio>
#include <optional>

#include "common/env.h"

namespace kgnet::common {

namespace {

/// splitmix64 (Steele et al.); the project-standard bit mixer (KL002:
/// no library RNGs). Also used by tensor::Rng and the retry jitter.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const char* FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kSocketRead:
      return "socket_read";
    case FaultSite::kSocketWrite:
      return "socket_write";
    case FaultSite::kFrameParse:
      return "frame_parse";
    case FaultSite::kAdmissionQueue:
      return "admission_queue";
    case FaultSite::kTaskDispatch:
      return "task_dispatch";
    case FaultSite::kModelCall:
      return "model_call";
  }
  return "unknown";
}

FaultInjector::FaultInjector() {
  ResetCounters();
  const char* seed_text = EnvText("KGNET_FAULT_SEED");
  const char* rate_text = EnvText("KGNET_FAULT_RATE");
  if (seed_text == nullptr && rate_text == nullptr) return;
  const std::optional<uint64_t> seed =
      seed_text == nullptr ? std::nullopt
                           : ParseInt(seed_text, 0, UINT64_MAX);
  const std::optional<double> rate =
      rate_text == nullptr ? std::nullopt : ParseRate(rate_text);
  // Arming requires both knobs valid; a half-set or malformed pair stays
  // inert so a typo can never chaos a production process.
  if (!seed || !rate) {
    std::fprintf(stderr,
                 "kgnet: ignoring fault injection env (need KGNET_FAULT_SEED="
                 "<u64> and KGNET_FAULT_RATE=<0..1>, got seed=%s rate=%s)\n",
                 seed_text == nullptr ? "<unset>" : seed_text,
                 rate_text == nullptr ? "<unset>" : rate_text);
    return;
  }
  if (*rate <= 0.0) return;
  Arm(*seed, *rate, -1);
}

FaultInjector& FaultInjector::Instance() {
  static FaultInjector instance;
  return instance;
}

bool FaultInjector::Decision(uint64_t seed, FaultSite site, uint64_t n,
                             double rate) {
  // Per-site stream: fold the site into the seed, then mix the
  // invocation index. Mapping the top 53 bits into [0,1) mirrors
  // tensor::Rng::Uniform.
  const uint64_t stream =
      SplitMix64(seed ^ (static_cast<uint64_t>(site) + 1));
  const uint64_t h = SplitMix64(stream ^ n);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < rate;
}

bool FaultInjector::ShouldFail(FaultSite site) {
  if (!enabled_.load(std::memory_order_acquire)) return false;
  const int idx = static_cast<int>(site);
  const uint64_t n = count_[idx].fetch_add(1, std::memory_order_relaxed);
  const int only = only_site_.load(std::memory_order_relaxed);
  if (only >= 0 && idx != only) return false;
  if (!Decision(seed_.load(std::memory_order_relaxed), site, n,
                rate_.load(std::memory_order_relaxed)))
    return false;
  fired_[idx].fetch_add(1, std::memory_order_relaxed);
  return true;
}

void FaultInjector::Configure(uint64_t seed, double rate) {
  Arm(seed, rate, -1);
}

void FaultInjector::ConfigureSite(uint64_t seed, double rate,
                                  FaultSite only_site) {
  Arm(seed, rate, static_cast<int>(only_site));
}

void FaultInjector::Disable() {
  enabled_.store(false, std::memory_order_relaxed);
  ResetCounters();
  only_site_.store(-1, std::memory_order_relaxed);
}

void FaultInjector::Arm(uint64_t seed, double rate, int only_site) {
  enabled_.store(false, std::memory_order_relaxed);
  ResetCounters();
  seed_.store(seed, std::memory_order_relaxed);
  rate_.store(rate, std::memory_order_relaxed);
  only_site_.store(only_site, std::memory_order_relaxed);
  if (rate > 0.0) enabled_.store(true, std::memory_order_release);
}

void FaultInjector::ResetCounters() {
  for (int i = 0; i < kNumFaultSites; ++i) {
    count_[i].store(0, std::memory_order_relaxed);
    fired_[i].store(0, std::memory_order_relaxed);
  }
}

uint64_t FaultInjector::invocations(FaultSite site) const {
  return count_[static_cast<int>(site)].load(std::memory_order_relaxed);
}

uint64_t FaultInjector::fired(FaultSite site) const {
  return fired_[static_cast<int>(site)].load(std::memory_order_relaxed);
}

uint64_t FaultInjector::total_fired() const {
  uint64_t total = 0;
  for (int i = 0; i < kNumFaultSites; ++i) {
    total += fired_[i].load(std::memory_order_relaxed);
  }
  return total;
}

ScopedFaultInjection::ScopedFaultInjection() {
  FaultInjector& fi = FaultInjector::Instance();
  prev_enabled_ = fi.enabled();
  prev_seed_ = fi.seed();
  prev_rate_ = fi.rate();
  prev_only_site_ = fi.only_site();
  fi.Disable();
}

ScopedFaultInjection::ScopedFaultInjection(uint64_t seed, double rate)
    : ScopedFaultInjection() {
  FaultInjector::Instance().Configure(seed, rate);
}

ScopedFaultInjection::~ScopedFaultInjection() {
  FaultInjector& fi = FaultInjector::Instance();
  if (!prev_enabled_) {
    fi.Disable();
  } else if (prev_only_site_ >= 0) {
    fi.ConfigureSite(prev_seed_, prev_rate_,
                     static_cast<FaultSite>(prev_only_site_));
  } else {
    fi.Configure(prev_seed_, prev_rate_);
  }
}

}  // namespace kgnet::common
