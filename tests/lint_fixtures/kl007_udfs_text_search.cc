// Fixture: violates KL007 (udfs-text-search): two routers that decide
// whether a query calls a UDF by searching its text for "sql:UDFS" — once
// with the literal, once through a constant holding it. A literal or IRI
// that only mentions the name would match too. Mentions in comments
// (text.find("sql:UDFS")) and in strings must not count, nor may a search
// for anything else.
#include <string_view>

constexpr char kUdfPrefix[] = "sql:UDFS.";
const char* kHint = "never text.find(\"sql:UDFS\") to route a query";

bool CallsUdf(std::string_view text) {
  return text.find("sql:UDFS") != std::string_view::npos;
}

bool CallsUdfByConstant(std::string_view text) {
  return text.find(kUdfPrefix) != std::string_view::npos;
}

bool MentionsTrainGml(std::string_view text) {
  return text.find("TrainGML") != std::string_view::npos;
}
