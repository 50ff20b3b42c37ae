// The single sanctioned host wall-clock read in src/ (see clock.h).
// ara_analyze's no-wall-clock rule exempts exactly this file by path; any
// other steady_clock use in src/ is an analyzer finding.
#include "obs/clock.h"

#include <chrono>

namespace ara::obs {

namespace {

class HostClock final : public MonotonicClock {
 public:
  std::uint64_t now_ns() override {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
};

}  // namespace

MonotonicClock& MonotonicClock::host() {
  static HostClock clock;
  return clock;
}

}  // namespace ara::obs
