// Cooperative cancellation for long-running work (docs/RESILIENCE.md).
//
// A CancelSource owns the cancellation state of one unit of work (in the
// serving layer: one request). It hands out cheap-to-copy CancelTokens;
// the code doing the work polls its token at natural checkpoints — the
// executor does so once per pulled row — and unwinds with a Cancelled or
// DeadlineExceeded status when the token has tripped.
//
// Cost model: a poll is one relaxed atomic increment plus one relaxed
// load. The two *derived* trip conditions — a wall-clock deadline and an
// optional client-abandonment probe — are only evaluated every
// kDeadlineStride / kProbeStride polls, so neither a clock read nor a
// syscall lands on the per-row hot path.
//
// Threading contract:
//   - Cancel() may be called from any thread at any time (it only writes
//     an atomic); this is how KgServer::Drain() hard-cancels in-flight
//     queries from the drain thread.
//   - set_deadline() / set_abandon_probe() must be called before the
//     token is shared with the working thread (the server configures the
//     source, then executes on the same thread).
//   - Check() with an abandon probe installed must stay on one thread
//     (the probe itself is not synchronized). The streaming executor
//     runs each query on one thread and polls from its operators'
//     Next(), so this holds by construction.
#ifndef KGNET_COMMON_CANCEL_H_
#define KGNET_COMMON_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>

#include "common/status.h"

namespace kgnet::common {

/// Why a token tripped; determines the Status class and message the
/// polling code unwinds with.
enum class CancelReason {
  kNone = 0,
  kDeadline,   // DeadlineExceeded: the configured deadline passed
  kExplicit,   // Cancelled: someone called Cancel()
  kAbandoned,  // Cancelled: the abandon probe reported the client gone
  kDrain,      // Cancelled: the server is draining and hard-cancelled
};

namespace detail {

struct CancelState {
  /// CancelReason, latched by the first writer (compare-exchange).
  std::atomic<int> reason{0};
  /// Total Check() calls across every token of the source; surfaced as
  /// ExecInfo::cancel_checks.
  std::atomic<uint64_t> polls{0};
  // Configured before the token escapes the owning thread (see the
  // threading contract above), immutable afterwards.
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};
  std::function<bool()> abandon_probe;
};

}  // namespace detail

/// A cheap, copyable poll handle. The default-constructed token is inert
/// and never trips — code paths without a caller-supplied deadline pay
/// one pointer test per poll and nothing else.
class CancelToken {
 public:
  CancelToken() = default;

  /// False for the inert default token.
  bool valid() const { return state_ != nullptr; }

  /// One cancellation poll. OK while the work may continue; once a trip
  /// condition holds, every subsequent Check() returns the same
  /// Cancelled / DeadlineExceeded status (the reason latches).
  Status Check() const;

  /// A poll that evaluates the deadline on every call instead of on the
  /// stride. For checkpoints that are rare and expensive relative to a
  /// clock read — trainers call this once per epoch, where the stride
  /// would let a deadline slide for dozens of epochs. Does not run the
  /// abandon probe (see the threading contract above).
  Status CheckNow() const;

  /// True once the token has tripped (no poll side effects).
  bool cancelled() const {
    return state_ != nullptr &&
           state_->reason.load(std::memory_order_relaxed) !=
               static_cast<int>(CancelReason::kNone);
  }

  /// Polls performed so far across all copies of this token.
  uint64_t checks() const {
    return state_ == nullptr ? 0
                             : state_->polls.load(std::memory_order_relaxed);
  }

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<detail::CancelState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::CancelState> state_;
};

/// Owns the cancellation state of one unit of work.
class CancelSource {
 public:
  CancelSource() : state_(std::make_shared<detail::CancelState>()) {}
  CancelSource(const CancelSource&) = delete;
  CancelSource& operator=(const CancelSource&) = delete;

  CancelToken token() const { return CancelToken(state_); }

  /// Trips the token. The first reason to arrive wins; later calls (and
  /// later-derived deadline/probe trips) are ignored.
  void Cancel(CancelReason reason = CancelReason::kExplicit);

  /// Arms the deadline trip. Call before sharing the token.
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    state_->deadline = deadline;
    state_->has_deadline = true;
  }

  /// Arms the abandonment trip: `probe` returns true when the party the
  /// work is for is gone (the server peeks the connection socket). Call
  /// before sharing the token; the probe runs on the polling thread.
  void set_abandon_probe(std::function<bool()> probe) {
    state_->abandon_probe = std::move(probe);
  }

  bool cancel_requested() const { return token().cancelled(); }

 private:
  std::shared_ptr<detail::CancelState> state_;
};

}  // namespace kgnet::common

#endif  // KGNET_COMMON_CANCEL_H_
