// Injectable monotonic time source for host-side observability.
//
// Simulated time always comes from sim::Simulator::now(); host wall-clock
// readings are telemetry only (span durations, requests/sec) and must
// never feed back into simulation results. To keep that auditable, every
// consumer takes a MonotonicClock* seam instead of calling std::chrono
// directly: the ONLY sanctioned wall-clock read in src/ is
// MonotonicClock::host()'s implementation in src/obs/clock.cc, which
// ara_analyze's no-wall-clock rule exempts by path (tools/analyze_core.cc).
// Tests inject FakeClock to make span/window math fully deterministic.
#pragma once

#include <atomic>
#include <cstdint>

namespace ara::obs {

/// Monotonic nanosecond clock. Implementations must be safe to call from
/// multiple threads concurrently.
class MonotonicClock {
 public:
  virtual ~MonotonicClock() = default;

  /// Nanoseconds since an arbitrary (per-clock) epoch; never decreases.
  virtual std::uint64_t now_ns() = 0;

  /// The process-wide host clock (std::chrono::steady_clock underneath).
  /// Its definition in clock.cc is the single sanctioned wall-clock site.
  static MonotonicClock& host();
};

/// Deterministic fake: time moves only when a test advances it, so span
/// durations and window bucket rollovers are exact, reproducible values.
class FakeClock final : public MonotonicClock {
 public:
  explicit FakeClock(std::uint64_t start_ns = 0) : now_(start_ns) {}

  std::uint64_t now_ns() override {
    return now_.load(std::memory_order_acquire);
  }
  void advance_ns(std::uint64_t by) {
    now_.fetch_add(by, std::memory_order_acq_rel);
  }
  void set_ns(std::uint64_t t) { now_.store(t, std::memory_order_release); }

 private:
  std::atomic<std::uint64_t> now_;
};

}  // namespace ara::obs
