// The settings parser (common/env.h): one table holds every input of
// every integer setting read from outside the process, with its verdict
// under that setting's range. Each variable's rows are checked by a test
// in the suite of the component that reads it.
#include "common/env.h"

#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/thread_pool.h"
#include "serving/server.h"

namespace kgnet::common {
namespace {

struct Range {
  uint64_t lo;
  uint64_t hi;
};

/// The range the tree reads each variable with.
Range RangeOf(std::string_view var) {
  if (var == "KGNET_NUM_THREADS") return {1, ThreadPool::kMaxThreads};
  if (var == "KGNET_DELTA_COMPACT_THRESHOLD") return {1, SIZE_MAX};
  if (var == "KGNET_FAULT_SEED") return {0, UINT64_MAX};
  for (const serving::ServerSetting& s : serving::kServerSettings)
    if (var == s.env) return {1, static_cast<uint64_t>(s.max)};
  ADD_FAILURE() << "no range for " << var;
  return {1, 0};
}

/// Sets one variable for the scope of a check.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    setenv(name, value, 1);
  }
  ~ScopedEnv() { unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

struct Case {
  const char* var;
  const char* text;
  std::optional<uint64_t> want;  // nullopt: rejected
};

constexpr std::nullopt_t kBad = std::nullopt;

const Case kCases[] = {
    // KGNET_NUM_THREADS, 1..1024.
    {"KGNET_NUM_THREADS", "1", 1},
    {"KGNET_NUM_THREADS", "8", 8},
    {"KGNET_NUM_THREADS", "128", 128},
    {"KGNET_NUM_THREADS", " 4 ", 4},
    {"KGNET_NUM_THREADS", "\t2", 2},
    {"KGNET_NUM_THREADS", "007", 7},
    {"KGNET_NUM_THREADS", "1024", 1024},
    {"KGNET_NUM_THREADS", "1025", kBad},
    {"KGNET_NUM_THREADS", "", kBad},
    {"KGNET_NUM_THREADS", " ", kBad},
    {"KGNET_NUM_THREADS", "0", kBad},
    {"KGNET_NUM_THREADS", "-4", kBad},
    {"KGNET_NUM_THREADS", "+4", kBad},
    {"KGNET_NUM_THREADS", "abc", kBad},
    {"KGNET_NUM_THREADS", "8abc", kBad},
    {"KGNET_NUM_THREADS", "4.5", kBad},
    {"KGNET_NUM_THREADS", "4 2", kBad},
    {"KGNET_NUM_THREADS", "0x8", kBad},
    {"KGNET_NUM_THREADS", "99999999999999999999", kBad},
    {"KGNET_NUM_THREADS", "2147483648", kBad},
    // INT_MAX was a valid thread count before the 1024 cap.
    {"KGNET_NUM_THREADS", "2147483647", kBad},

    // KGNET_DELTA_COMPACT_THRESHOLD, 1..SIZE_MAX.
    {"KGNET_DELTA_COMPACT_THRESHOLD", "1", 1},
    {"KGNET_DELTA_COMPACT_THRESHOLD", "4096", 4096},
    {"KGNET_DELTA_COMPACT_THRESHOLD", "  42  ", 42},
    {"KGNET_DELTA_COMPACT_THRESHOLD", "\t7\t", 7},
    {"KGNET_DELTA_COMPACT_THRESHOLD", "001", 1},
    {"KGNET_DELTA_COMPACT_THRESHOLD", "", kBad},
    {"KGNET_DELTA_COMPACT_THRESHOLD", "   ", kBad},
    {"KGNET_DELTA_COMPACT_THRESHOLD", "0", kBad},
    {"KGNET_DELTA_COMPACT_THRESHOLD", "-2", kBad},
    {"KGNET_DELTA_COMPACT_THRESHOLD", "+4", kBad},
    {"KGNET_DELTA_COMPACT_THRESHOLD", "abc", kBad},
    {"KGNET_DELTA_COMPACT_THRESHOLD", "12x", kBad},
    {"KGNET_DELTA_COMPACT_THRESHOLD", "4 2", kBad},
    {"KGNET_DELTA_COMPACT_THRESHOLD", "3.5", kBad},
    {"KGNET_DELTA_COMPACT_THRESHOLD", "0x10", kBad},
    {"KGNET_DELTA_COMPACT_THRESHOLD", "1e3", kBad},
    {"KGNET_DELTA_COMPACT_THRESHOLD", "99999999999999999999999", kBad},

    // KGNET_SERVE_PORT, 1..65535.
    {"KGNET_SERVE_PORT", "7687", 7687},
    {"KGNET_SERVE_PORT", " 42 ", 42},
    {"KGNET_SERVE_PORT", "65535", 65535},
    {"KGNET_SERVE_PORT", "", kBad},
    {"KGNET_SERVE_PORT", "abc", kBad},
    {"KGNET_SERVE_PORT", "-1", kBad},
    {"KGNET_SERVE_PORT", "+4", kBad},
    {"KGNET_SERVE_PORT", "4.5", kBad},
    {"KGNET_SERVE_PORT", "8abc", kBad},
    {"KGNET_SERVE_PORT", "0", kBad},
    {"KGNET_SERVE_PORT", "65536", kBad},
    {"KGNET_SERVE_PORT", "70000", kBad},
    {"KGNET_SERVE_PORT", "99999999999999999999", kBad},

    // KGNET_SERVE_WORKERS, 1..1024.
    {"KGNET_SERVE_WORKERS", "16", 16},
    {"KGNET_SERVE_WORKERS", "1024", 1024},
    {"KGNET_SERVE_WORKERS", "sixteen", kBad},
    {"KGNET_SERVE_WORKERS", "16 threads", kBad},
    {"KGNET_SERVE_WORKERS", "1025", kBad},
    {"KGNET_SERVE_WORKERS", "0", kBad},
    {"KGNET_SERVE_WORKERS", "2x", kBad},
    // The inputs of the removed client retry knob (1..100) keep their
    // verdicts under this range.
    {"KGNET_SERVE_WORKERS", "7", 7},
    {"KGNET_SERVE_WORKERS", "3x", kBad},

    // KGNET_SERVE_QUEUE_DEPTH, 1..1000000.
    {"KGNET_SERVE_QUEUE_DEPTH", "64", 64},
    {"KGNET_SERVE_QUEUE_DEPTH", "1000000", 1000000},
    {"KGNET_SERVE_QUEUE_DEPTH", "1000001", kBad},
    {"KGNET_SERVE_QUEUE_DEPTH", "-64", kBad},
    {"KGNET_SERVE_QUEUE_DEPTH", "1e9", kBad},

    // KGNET_DRAIN_TIMEOUT_MS, 1..600000.
    {"KGNET_DRAIN_TIMEOUT_MS", "5000", 5000},
    {"KGNET_DRAIN_TIMEOUT_MS", "600000", 600000},
    {"KGNET_DRAIN_TIMEOUT_MS", "600001", kBad},
    {"KGNET_DRAIN_TIMEOUT_MS", "0", kBad},

    // KGNET_FAULT_SEED, any u64.
    {"KGNET_FAULT_SEED", "0", 0},
    {"KGNET_FAULT_SEED", "101", 101},
    {"KGNET_FAULT_SEED", " 42\t", 42},
    {"KGNET_FAULT_SEED", "18446744073709551615", UINT64_MAX},
    {"KGNET_FAULT_SEED", "18446744073709551616", kBad},
    {"KGNET_FAULT_SEED", "-1", kBad},
    {"KGNET_FAULT_SEED", "0x10", kBad},
    {"KGNET_FAULT_SEED", "", kBad},
};

/// Every variable the table has rows for.
constexpr const char* kVariables[] = {
    "KGNET_NUM_THREADS",      "KGNET_DELTA_COMPACT_THRESHOLD",
    "KGNET_SERVE_PORT",       "KGNET_SERVE_WORKERS",
    "KGNET_SERVE_QUEUE_DEPTH", "KGNET_DRAIN_TIMEOUT_MS",
    "KGNET_FAULT_SEED",
};

enum class Rows { kAccepted, kRejected, kAll };

/// Checks the rows of `var` that `which` selects: ParseInt gives the
/// row's verdict, EnvInt gives the value or one warning line and the
/// fallback, and a serving variable reaches ServerOptions the same way.
void CheckRows(std::string_view var, Rows which) {
  constexpr uint64_t kFallback = 4242;
  const Range range = RangeOf(var);
  int checked = 0;
  for (const Case& c : kCases) {
    if (std::string_view(c.var) != var) continue;
    if (which == Rows::kAccepted && !c.want.has_value()) continue;
    if (which == Rows::kRejected && c.want.has_value()) continue;
    ++checked;
    SCOPED_TRACE(std::string(c.var) + "=\"" + c.text + "\"");
    EXPECT_EQ(ParseInt(c.text, range.lo, range.hi), c.want);

    ScopedEnv env(c.var, c.text);
    testing::internal::CaptureStderr();
    const uint64_t read = EnvInt(c.var, range.lo, range.hi, kFallback);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(read, c.want.value_or(kFallback));
    EXPECT_EQ(err.empty(), c.want.has_value()) << err;

    for (const serving::ServerSetting& s : serving::kServerSettings) {
      if (var != s.env) continue;
      serving::ServerOptions base;
      base.*s.field = static_cast<int>(kFallback);
      testing::internal::CaptureStderr();
      const serving::ServerOptions applied = serving::ApplyServerEnv(base);
      (void)testing::internal::GetCapturedStderr();
      EXPECT_EQ(static_cast<uint64_t>(applied.*s.field),
                c.want.value_or(kFallback));
    }
  }
  EXPECT_GT(checked, 0) << "no rows for " << var;
}

TEST(EnvTest, EveryRowIsCheckedUnderItsVariable) {
  for (const Case& c : kCases) {
    bool known = false;
    for (const char* var : kVariables) known |= std::string_view(var) == c.var;
    EXPECT_TRUE(known) << "row for unchecked variable " << c.var;
  }
}

TEST(ThreadPoolTest, ParseThreadCountEnvAcceptsPositiveIntegers) {
  CheckRows("KGNET_NUM_THREADS", Rows::kAccepted);
}

TEST(ThreadPoolTest, ParseThreadCountEnvRejectsGarbage) {
  CheckRows("KGNET_NUM_THREADS", Rows::kRejected);
}

TEST(CompactThresholdEnvTest, AcceptsPlainPositiveIntegers) {
  CheckRows("KGNET_DELTA_COMPACT_THRESHOLD", Rows::kAccepted);
}

TEST(CompactThresholdEnvTest, RejectsEverythingElse) {
  CheckRows("KGNET_DELTA_COMPACT_THRESHOLD", Rows::kRejected);
}

TEST(ServingEnvTest, PortEnvStrictlyValidated) {
  CheckRows("KGNET_SERVE_PORT", Rows::kAll);
}

TEST(ServingEnvTest, WorkersEnvStrictlyValidated) {
  CheckRows("KGNET_SERVE_WORKERS", Rows::kAll);
}

TEST(ServingEnvTest, QueueDepthEnvStrictlyValidated) {
  CheckRows("KGNET_SERVE_QUEUE_DEPTH", Rows::kAll);
}

TEST(ServingEnvTest, DrainTimeoutEnvStrictlyValidated) {
  CheckRows("KGNET_DRAIN_TIMEOUT_MS", Rows::kAll);
}

TEST(EnvTest, FaultSeedEnvTakesAnyU64) {
  CheckRows("KGNET_FAULT_SEED", Rows::kAll);
}

TEST(EnvTest, UnsetGivesTheFallbackSilently) {
  unsetenv("KGNET_SERVE_WORKERS");
  testing::internal::CaptureStderr();
  EXPECT_EQ(EnvInt("KGNET_SERVE_WORKERS", 1, 1024, 4), 4u);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(EnvTest, InvalidValuePrintsOneLineNamingTheRangeAndTheFallback) {
  ScopedEnv env("KGNET_SERVE_WORKERS", "2x");
  testing::internal::CaptureStderr();
  EXPECT_EQ(EnvInt("KGNET_SERVE_WORKERS", 1, 1024, 4), 4u);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "kgnet: ignoring invalid KGNET_SERVE_WORKERS=\"2x\" (want an "
            "integer in [1, 1024]); using 4\n");
}

TEST(EnvTest, FaultRateKeepsItsDecimalGrammar) {
  EXPECT_EQ(ParseRate("0.1"), 0.1);
  EXPECT_EQ(ParseRate(".25"), 0.25);
  EXPECT_EQ(ParseRate("1"), 1.0);
  EXPECT_EQ(ParseRate("1.0"), 1.0);
  EXPECT_EQ(ParseRate("0"), 0.0);
  EXPECT_EQ(ParseRate("0.123456789"), 0.123456789);
  for (const char* bad : {"", ".", "1.5", "2", "-0.1", "+0.1", " 0.1",
                          "0.1 ", "0.1x", "1e-1", "abc", "0.1.2",
                          "0.1234567891"})
    EXPECT_EQ(ParseRate(bad), std::nullopt) << '"' << bad << '"';
}

}  // namespace
}  // namespace kgnet::common
