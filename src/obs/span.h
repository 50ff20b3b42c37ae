// Request-scoped tracing for the serve/DSE path.
//
// A RequestTrace is minted per served request (trace id + client) and
// travels by pointer through FairQueue -> dse::run -> the executor,
// accumulating one duration per lifecycle phase (ScopedSpan) and one
// outcome count per point (hit/alias/follower/miss/failed). Everything is
// observability-only: a null trace (the default everywhere) makes every
// call here a no-op, and times come from the injectable MonotonicClock
// seam, so traced and untraced runs produce bit-identical sweep results.
//
// Threading: a RequestTrace is owned by one request and is only ever
// touched by the thread currently advancing that request (the submitting
// session thread before/after the queue, the handler thread in between —
// the FairQueue hand-off orders those accesses). It needs no lock.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/clock.h"

namespace ara::obs {

/// Lifecycle phases of one served request, in observation order.
enum class Phase : std::size_t {
  kQueued = 0,       // admission queue wait (push -> handler pop)
  kCacheLookup = 1,  // classification pre-pass (cache probes + claims)
  kSimulate = 2,     // executor time for this request's own misses
  kCoalesceWait = 3, // waiting on another request's in-flight leader
  kSerialize = 4,    // response encoding
};

inline constexpr std::size_t kNumPhases = 5;

inline const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kQueued: return "queued";
    case Phase::kCacheLookup: return "cache_lookup";
    case Phase::kSimulate: return "simulate";
    case Phase::kCoalesceWait: return "coalesce_wait";
    case Phase::kSerialize: return "serialize";
  }
  return "unknown";
}

/// Per-request trace record: identity, per-phase durations, and per-point
/// outcome counts. Plain data — the request log serializes it, the window
/// aggregates it.
struct RequestTrace {
  std::uint64_t id = 0;      // minted at admission; unique per server
  std::string client;        // fairness bucket from the request
  std::string workload;      // benchmark name ("" for non-sweeps)
  std::uint64_t points = 0;  // design points in the request

  std::uint64_t start_ns = 0;  // clock reading at admission
  std::uint64_t total_ns = 0;  // admission -> response ready
  std::array<std::uint64_t, kNumPhases> phase_ns{};

  /// Point outcomes (sum == points for a successful sweep).
  std::uint64_t hits = 0;       // served from the result cache
  std::uint64_t aliases = 0;    // duplicate of a point in this request
  std::uint64_t followers = 0;  // waited on a concurrent request's leader
  std::uint64_t misses = 0;     // simulated fresh by this request
  std::uint64_t failed = 0;     // simulation attempted but errored

  /// Typed error code ("" on success; bad_request/overloaded/draining/
  /// failed mirror the protocol's error codes).
  std::string error;

  /// Time source for spans; null disables timing (counts still work).
  MonotonicClock* clock = nullptr;

  std::uint64_t phase(Phase p) const {
    return phase_ns[static_cast<std::size_t>(p)];
  }
  void add_phase(Phase p, std::uint64_t ns) {
    phase_ns[static_cast<std::size_t>(p)] += ns;
  }
  /// Sum of all recorded phase durations (always <= total_ns: phases are
  /// disjoint sub-intervals of the admission->response interval).
  std::uint64_t phase_total_ns() const {
    std::uint64_t sum = 0;
    for (const std::uint64_t v : phase_ns) sum += v;
    return sum;
  }
};

/// RAII phase timer: charges the elapsed clock time to one phase of one
/// trace. Null trace or null clock = no-op (zero perturbation on the
/// untraced path).
class ScopedSpan {
 public:
  ScopedSpan(RequestTrace* trace, Phase phase)
      : trace_(trace != nullptr && trace->clock != nullptr ? trace : nullptr),
        phase_(phase),
        t0_(trace_ != nullptr ? trace_->clock->now_ns() : 0) {}
  ~ScopedSpan() { stop(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Record now instead of at destruction; idempotent.
  void stop() {
    if (trace_ == nullptr) return;
    trace_->add_phase(phase_, trace_->clock->now_ns() - t0_);
    trace_ = nullptr;
  }

 private:
  RequestTrace* trace_;
  Phase phase_;
  std::uint64_t t0_;
};

}  // namespace ara::obs
