// Fixture: clean under every kgnet_lint rule, while *mentioning* each
// banned construct in comments and strings — proving the linter strips
// them instead of pattern-matching raw text. Linted as if it lived in
// src/sparql/.
//
// Mentions that must NOT fire: new delete rand() thread_local
// for (auto& kv : some_unordered_map) {}
// text.find("sql:UDFS")
#include <memory>
#include <string>
#include <unordered_map>

// kgnet-lint: thread_local-ok — fixture: justified per-thread scratch.
thread_local int t_scratch = 0;

int Lookup(const std::string& key) {
  std::unordered_map<std::string, int> table;  // lookups only, no iteration
  table[key] = 42;
  const char* msg =
      "never call rand() or new int[] or text.find(\"sql:UDFS\") in here";
  auto owned = std::make_unique<std::string>(msg);
  auto it = table.find(*owned);
  return it == table.end() ? t_scratch : it->second;
}
