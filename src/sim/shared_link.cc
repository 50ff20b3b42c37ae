#include "sim/shared_link.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/config_error.h"
#include "sim/event_queue.h"

namespace ara::sim {

namespace {
/// retire() runs when an insert brings the interval count to
/// kRetireGrowth times the count the last retirement kept, and never below
/// kMinRetireCount: one binary search each time the list doubles.
constexpr std::size_t kMinRetireCount = 64;
constexpr std::size_t kRetireGrowth = 2;
}  // namespace

SharedLink::SharedLink(std::string name, double bytes_per_cycle,
                       Tick pipeline_latency, const Simulator* clock)
    : name_(std::move(name)),
      bytes_per_cycle_(bytes_per_cycle),
      latency_(pipeline_latency),
      clock_(clock),
      retire_at_(kMinRetireCount) {
  config_check(bytes_per_cycle > 0.0,
               "SharedLink '" + name_ + "' needs positive bandwidth");
}

Tick SharedLink::submit(Tick ready_at, Bytes bytes) {
  if (bytes == 0) return ready_at + latency_;
  if (clock_ != nullptr && ready_at < clock_->now()) {
    throw ScheduleError("SharedLink '" + name_ + "': reservation ready at " +
                        std::to_string(ready_at) + " is below the floor " +
                        std::to_string(clock_->now()));
  }
  auto occupancy = static_cast<Tick>(
      std::ceil(static_cast<double>(bytes) / bytes_per_cycle_));
  if (occupancy == 0) occupancy = 1;

  // Find the earliest gap of `occupancy` cycles at or after ready_at.
  Interval* const iv = busy_.data();
  const std::size_t n = busy_.size();
  std::size_t i = first_after(ready_at);
  Tick start = ready_at;
  if (i > 0 && iv[i - 1].end > start) {
    start = iv[i - 1].end;  // inside an interval
  }
  while (i < n && start + occupancy > iv[i].start) {
    start = iv[i].end;
    ++i;
  }
  const Tick end = start + occupancy;

  // Insert [start, end) before position i, merging with adjacent intervals.
  const bool joins_prev = i > 0 && iv[i - 1].end == start;
  const bool joins_next = i < n && iv[i].start == end;
  if (joins_prev && joins_next) {
    iv[i - 1].end = iv[i].end;
    busy_.erase(busy_.begin() + static_cast<std::ptrdiff_t>(i));
    finger_ = i - 1;
  } else if (joins_prev) {
    iv[i - 1].end = end;
    finger_ = i - 1;
  } else if (joins_next) {
    iv[i].start = start;
    finger_ = i;
  } else {
    busy_.insert(busy_.begin() + static_cast<std::ptrdiff_t>(i),
                 Interval{start, end});
    finger_ = i;
    if (busy_.size() >= retire_at_) retire();
  }

  busy_cycles_ += occupancy;
  total_bytes_ += bytes;
  ++transfers_;
  return end + latency_;
}

std::size_t SharedLink::first_after(Tick t) const {
  // Gallop outward from the finger until [lo, hi] brackets the answer:
  // every interval before lo starts at or before t, and hi is the end or
  // starts after t. Then binary-search that last stride.
  const Interval* const iv = busy_.data();
  const std::size_t n = busy_.size();
  std::size_t lo = 0;
  std::size_t hi = std::min(finger_, n);
  if (hi < n && iv[hi].start <= t) {
    for (std::size_t stride = 1;; stride *= 2) {
      lo = hi + 1;
      hi = std::min(lo + stride - 1, n);
      if (hi == n || iv[hi].start > t) break;
    }
  } else {
    for (std::size_t stride = 1; hi > 0; stride *= 2) {
      const std::size_t probe = hi - std::min(stride, hi);
      if (iv[probe].start <= t) {
        lo = probe + 1;
        break;
      }
      hi = probe;
    }
  }
  // Branch-free upper bound over [lo, hi): the answer stays in
  // [base, base + len] while len shrinks.
  const Interval* base = iv + lo;
  std::size_t len = hi - lo;
  while (len > 1) {
    const std::size_t half = len / 2;
    base += base[half].start <= t ? half : 0;
    len -= half;
  }
  base += len == 1 && base->start <= t ? 1 : 0;
  return static_cast<std::size_t>(base - iv);
}

void SharedLink::retire() {
  // Every later payload is ready at or after the floor, where an interval
  // ending by then neither delays it nor stands in its way. The ends are
  // sorted like the starts, so those intervals are a prefix.
  const Tick floor = clock_ == nullptr ? 0 : clock_->now();
  const auto live =
      std::partition_point(busy_.begin(), busy_.end(),
                           [&](const Interval& iv) { return iv.end <= floor; });
  const auto dropped = static_cast<std::size_t>(live - busy_.begin());
  busy_.erase(busy_.begin(), live);
  // The finger is the interval just inserted, which starts at or after the
  // floor and so was not dropped.
  finger_ -= dropped;
  retire_at_ = std::max(kMinRetireCount, kRetireGrowth * busy_.size());
}

}  // namespace ara::sim
