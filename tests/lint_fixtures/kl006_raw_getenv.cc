// Fixture: violates KL006 (raw-getenv): two settings read straight from
// the environment, each with its own ad-hoc parse, instead of through
// common::EnvInt. A mention inside a comment or a string ("getenv(")
// must not count.
#include <cstdlib>

const char* kHint = "call getenv(name) only in src/common/env.cc";

int ThreadsFromEnv() {
  const char* text = std::getenv("KGNET_NUM_THREADS");
  return text == nullptr ? 1 : static_cast<int>(std::strtol(text, nullptr, 10));
}

bool PortIsSet() { return getenv("KGNET_SERVE_PORT") != nullptr; }
