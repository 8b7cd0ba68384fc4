// Fixture: violates KL001 (unordered-iteration). Linted as if it lived
// in src/gml/, where node and fold order feed training, so hash-order
// iteration is banned there too.
#include <cstdint>
#include <unordered_map>
#include <vector>

std::vector<std::vector<uint32_t>> GroupIntoFolds(
    const std::vector<uint32_t>& component) {
  std::unordered_map<uint32_t, std::vector<uint32_t>> groups;
  for (uint32_t i = 0; i < component.size(); ++i)
    groups[component[i]].push_back(i);
  std::vector<std::vector<uint32_t>> folds;
  // Violation: the fold order follows the hash table's bucket order.
  for (auto& [id, members] : groups) folds.push_back(members);
  return folds;
}
