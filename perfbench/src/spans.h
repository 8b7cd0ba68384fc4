// In-memory span recorder for the traced run (Dapper-style): every span
// has a name, the layer it times, start/end, its parent span and the
// request id it belongs to. Spans are only kept in memory while the
// benchmark runs and written out as JSON lines at exit.
//
// A layer's self time is the duration of its spans minus the part of
// each interval covered by that span's children, summed per layer.
#ifndef KGNET_PERFBENCH_SPANS_H_
#define KGNET_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace kgnet::perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;   // "<layer>.<entry point>"
  std::string layer;  // serving / sparql / rdf / core / gml / tensor / loadgen
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // index of the parent span, -1 for a root
  int64_t rid = -1;     // request id (stream index), -1 for probes
};

/// Single-threaded recorder: Begin/End nest like a call stack.
class SpanRecorder {
 public:
  /// Opens a span under the innermost open span.
  size_t Begin(const std::string& layer, const std::string& name,
               int64_t rid) {
    Span s;
    s.name = layer + "." + name;
    s.layer = layer;
    s.rid = rid;
    s.parent = stack_.empty() ? -1 : static_cast<int64_t>(stack_.back());
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.size() - 1);
    spans_.back().start_ns = NowNs();
    return spans_.size() - 1;
  }

  /// Closes the innermost open span; returns its duration in ns.
  int64_t End() {
    const int64_t now = NowNs();
    Span& s = spans_[stack_.back()];
    stack_.pop_back();
    s.end_ns = now;
    return s.end_ns - s.start_ns;
  }

  /// Adds an already-timed span (client-side request spans).
  void Add(Span s) { spans_.push_back(std::move(s)); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer in ns: span duration minus the durations of
  /// its direct children (children of one span never overlap here: the
  /// recorder is single-threaded and nests like a call stack).
  std::map<std::string, int64_t> SelfTimeByLayer() const {
    std::vector<int64_t> child(spans_.size(), 0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child[s.parent] += s.end_ns - s.start_ns;
    std::map<std::string, int64_t> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const int64_t self = spans_[i].end_ns - spans_[i].start_ns - child[i];
      out[spans_[i].layer] += self > 0 ? self : 0;
    }
    return out;
  }

  /// Writes `header` then one JSON object per span.
  bool Write(const std::string& path, const std::string& header) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "%s\n", header.c_str());
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"layer\":\"%s\","
                   "\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%lld,"
                   "\"rid\":%lld}\n",
                   i, s.name.c_str(), s.layer.c_str(),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.rid));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<size_t> stack_;
};

}  // namespace kgnet::perfbench

#endif  // KGNET_PERFBENCH_SPANS_H_
