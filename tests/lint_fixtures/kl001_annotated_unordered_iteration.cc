// Fixture: violates KL001 (unordered-iteration). Linted as if it lived
// in src/core/. The container is a member whose declaration carries a
// thread-safety annotation between its name and the semicolon.
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"

class Registry {
 public:
  std::vector<std::string> Names() const {
    common::MutexLock lock(&mu_);
    std::vector<std::string> out;
    // Violation: the saved name list follows the hash table's order.
    for (const auto& [name, entry] : entries_) out.push_back(name);
    return out;
  }

 private:
  mutable common::Mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<int>> entries_
      KGNET_GUARDED_BY(mu_);
};
