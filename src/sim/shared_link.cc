#include "sim/shared_link.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

#include "common/config_error.h"

namespace ara::sim {

namespace {
/// Reservations older than this relative to the highest start tick seen are
/// merged into one blocker interval; simulator chains never reach that far
/// back, so gap filling is unaffected in practice.
constexpr Tick kCompactHorizon = 1u << 21;  // ~2M cycles
constexpr std::size_t kCompactThreshold = 4096;
}  // namespace

SharedLink::SharedLink(std::string name, double bytes_per_cycle,
                       Tick pipeline_latency)
    : name_(std::move(name)),
      bytes_per_cycle_(bytes_per_cycle),
      latency_(pipeline_latency) {
  config_check(bytes_per_cycle > 0.0,
               "SharedLink '" + name_ + "' needs positive bandwidth");
}

Tick SharedLink::submit(Tick ready_at, Bytes bytes) {
  if (bytes == 0) return ready_at + latency_;
  auto occupancy = static_cast<Tick>(
      std::ceil(static_cast<double>(bytes) / bytes_per_cycle_));
  if (occupancy == 0) occupancy = 1;

  // Find the earliest gap of `occupancy` cycles at or after ready_at.
  Tick start = ready_at;
  auto it = first_after(ready_at);
  if (it != busy_.begin() && std::prev(it)->second > start) {
    start = std::prev(it)->second;  // inside an interval
  }
  while (it != busy_.end() && start + occupancy > it->first) {
    start = it->second;
    ++it;
  }
  const Tick end = start + occupancy;

  // Insert [start, end) before `it`, merging with adjacent intervals.
  const bool joins_prev = it != busy_.begin() && std::prev(it)->second == start;
  const bool joins_next = it != busy_.end() && it->first == end;
  if (joins_prev && joins_next) {
    std::prev(it)->second = it->second;
    busy_.erase(it);
  } else if (joins_prev) {
    std::prev(it)->second = end;
  } else if (joins_next) {
    it->first = start;
  } else {
    busy_.insert(it, {start, end});
  }

  busy_cycles_ += occupancy;
  total_bytes_ += bytes;
  ++transfers_;
  if (start > high_watermark_) high_watermark_ = start;
  if (busy_.size() > kCompactThreshold) compact();
  return end + latency_;
}

std::vector<SharedLink::Interval>::iterator SharedLink::first_after(Tick t) {
  // Payloads are mostly ready near the tail: gallop back from it, then
  // binary-search the last stride. Every interval in [hi, end) starts after t.
  auto hi = busy_.end();
  for (std::ptrdiff_t stride = 1; hi != busy_.begin(); stride *= 2) {
    const auto probe = hi - std::min(stride, hi - busy_.begin());
    if (probe->first <= t) {
      return std::upper_bound(
          probe, hi, t, [](Tick x, const Interval& iv) { return x < iv.first; });
    }
    hi = probe;
  }
  return hi;
}

void SharedLink::compact() {
  if (high_watermark_ < kCompactHorizon) return;
  const Tick cutoff = high_watermark_ - kCompactHorizon;
  // Replace everything ending at or before `cutoff` (a prefix: the ends are
  // sorted too) with one blocker interval.
  const auto old_end =
      std::partition_point(busy_.begin(), busy_.end(), [&](const Interval& iv) {
        return iv.second <= cutoff;
      });
  if (old_end == busy_.begin()) return;
  const Tick blocker_end =
      old_end == busy_.end() ? cutoff : std::min(cutoff, old_end->first);
  busy_.front().second = blocker_end;
  busy_.erase(std::next(busy_.begin()), old_end);
}

}  // namespace ara::sim
