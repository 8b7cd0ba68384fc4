#include "common/env.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace kgnet::common {

std::optional<uint64_t> ParseInt(std::string_view text, uint64_t lo,
                                 uint64_t hi) {
  const auto blank = [](char c) { return c == ' ' || c == '\t'; };
  while (!text.empty() && blank(text.front())) text.remove_prefix(1);
  while (!text.empty() && blank(text.back())) text.remove_suffix(1);
  // from_chars on an unsigned type takes digits only: no sign, no
  // prefix, no blanks, and reports overflow instead of wrapping.
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < lo || value > hi)
    return std::nullopt;
  return value;
}

std::optional<double> ParseRate(std::string_view text) {
  // [W][.F]: a whole part of 0 or 1 and at most nine fraction digits.
  if (text.find_first_not_of("0123456789.") != std::string_view::npos)
    return std::nullopt;
  const size_t dot = text.find('.');
  const std::string_view whole = text.substr(0, dot);
  const std::string_view frac =
      dot == std::string_view::npos ? "" : text.substr(dot + 1);
  if ((whole.empty() && frac.empty()) || frac.size() > 9) return std::nullopt;
  const auto w = whole.empty() ? 0 : ParseInt(whole, 0, 1);
  const auto f = frac.empty() ? 0 : ParseInt(frac, 0, UINT64_MAX);
  if (!w || !f) return std::nullopt;
  uint64_t scale = 1;
  for (size_t i = 0; i < frac.size(); ++i) scale *= 10;
  const double value = static_cast<double>(*w) +
                       static_cast<double>(*f) / static_cast<double>(scale);
  if (value > 1.0) return std::nullopt;
  return value;
}

const char* EnvText(const char* name) {
  // getenv races only with setenv, and nothing in src/ writes the
  // environment.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  return std::getenv(name);
}

uint64_t EnvInt(const char* name, uint64_t lo, uint64_t hi,
                uint64_t fallback) {
  const char* text = EnvText(name);
  if (text == nullptr) return fallback;
  if (const std::optional<uint64_t> value = ParseInt(text, lo, hi))
    return *value;
  std::fprintf(stderr,
               "kgnet: ignoring invalid %s=\"%s\" (want an integer in "
               "[%llu, %llu]); using %llu\n",
               name, text, static_cast<unsigned long long>(lo),
               static_cast<unsigned long long>(hi),
               static_cast<unsigned long long>(fallback));
  return fallback;
}

}  // namespace kgnet::common
