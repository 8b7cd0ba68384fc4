// Settings from outside the process: every KGNET_* variable, every
// integer flag and SPARQL LIMIT/OFFSET parse through ParseInt, so they
// accept the same text (docs/SERVING.md "Settings"). env.cc is the only
// file that reads the environment (lint rule KL006).
#ifndef KGNET_COMMON_ENV_H_
#define KGNET_COMMON_ENV_H_

#include <cstdint>
#include <optional>
#include <string_view>

namespace kgnet::common {

/// Parses optional blanks (space, tab), then ASCII digits, then optional
/// blanks, with a value in [lo, hi]. Anything else is nullopt: empty
/// text, a sign, hex, an exponent, a fraction, trailing junk, overflow,
/// or a value outside the range.
std::optional<uint64_t> ParseInt(std::string_view text, uint64_t lo,
                                  uint64_t hi);

/// Parses a KGNET_FAULT_RATE value: a decimal fraction in [0, 1] such as
/// "0.1", "1" or ".25", with no blanks. The only setting that is not an
/// integer.
std::optional<double> ParseRate(std::string_view text);

/// The raw value of environment variable `name`, or nullptr when unset.
/// For settings with their own pairing rule (the fault injector); plain
/// integer settings use EnvInt.
const char* EnvText(const char* name);

/// Reads the integer setting `name`. Unset gives `fallback`. A value
/// ParseInt accepts in [lo, hi] is returned. Anything else prints one
/// stderr line, `kgnet: ignoring invalid NAME="..." (want an integer in
/// [lo, hi]); using <fallback>`, and gives `fallback`.
uint64_t EnvInt(const char* name, uint64_t lo, uint64_t hi,
                uint64_t fallback);

}  // namespace kgnet::common

#endif  // KGNET_COMMON_ENV_H_
