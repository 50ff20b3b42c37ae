// SharedLink: the contention primitive used for every bandwidth-limited
// resource in the simulator (NoC links, ring segments, crossbar ports,
// SPM ports, memory-controller channels).
//
// A link has a bandwidth (bytes per cycle) and a pipeline latency. A
// payload occupies the link for ceil(bytes / bandwidth) cycles starting at
// the earliest gap at or after its ready time, and arrives at the far side
// pipeline_latency cycles after its last byte leaves.
//
// Reservations are interval-based with gap filling: because the simulator
// computes transfer paths as reservation chains (a payload reserves its
// whole route when issued, possibly far in the future), a naive
// single-watermark link would let a future response block an earlier
// request that shares one hop — serializing the entire system. Gap filling
// restores service-in-ready-order behaviour at each link.
//
// A link owned by a System has a floor: that System's Simulator::now(). A
// payload may not be ready below it (submit throws ScheduleError), so an
// interval ending at or before the floor can never affect a later submit.
// When the interval count reaches twice what the last retirement kept (and
// at least 64), submit drops those intervals; the count then follows the
// window of live reservations instead of the length of the run. A link
// without a simulator has floor 0 and never drops anything.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace ara::sim {

class Simulator;

class SharedLink {
 public:
  /// `bytes_per_cycle` must be > 0. `name` keys this link's stats. The
  /// link's floor is `clock->now()`, or 0 without a clock; `clock` must
  /// outlive the link.
  SharedLink(std::string name, double bytes_per_cycle, Tick pipeline_latency,
             const Simulator* clock = nullptr);

  /// Reserve the link for `bytes` starting no earlier than `ready_at`.
  /// Returns the tick at which the payload has fully arrived at the far side.
  /// Throws ScheduleError when `bytes` > 0 and `ready_at` is below the floor.
  Tick submit(Tick ready_at, Bytes bytes);

  Tick pipeline_latency() const { return latency_; }
  double bytes_per_cycle() const { return bytes_per_cycle_; }
  const std::string& name() const { return name_; }

  /// Total bytes accepted so far.
  Bytes total_bytes() const { return total_bytes_; }

  /// Cycles during which the link was transmitting.
  Tick busy_cycles() const { return busy_cycles_; }

  /// Fraction of `elapsed` cycles the link spent transmitting.
  double utilization(Tick elapsed) const {
    return elapsed == 0 ? 0.0
                        : static_cast<double>(busy_cycles_) /
                              static_cast<double>(elapsed);
  }

  /// Number of submit() calls (≈ packets/chunks).
  std::uint64_t transfers() const { return transfers_; }

  /// Number of reservation intervals held. Intervals ending at or before
  /// the floor are dropped in batches, so this is at most twice the peak
  /// number of live ones (or 64): the window of reservations ahead of the
  /// simulated now, not the length of the run.
  std::size_t reservation_intervals() const { return busy_.size(); }

 private:
  /// [start, end) of one busy interval. Trivially copyable, so an insert or
  /// erase shifts the suffix with one memmove.
  struct Interval {
    Tick start;
    Tick end;
  };

  /// Index of the first interval starting after `t` (busy_.size() if none).
  std::size_t first_after(Tick t) const;
  /// Drop every interval ending at or before the floor.
  void retire();

  std::string name_;
  double bytes_per_cycle_;
  Tick latency_;
  const Simulator* clock_;
  /// Non-overlapping busy intervals sorted by start tick.
  std::vector<Interval> busy_;
  /// Index of the interval the last submit() wrote. Most payloads land
  /// within one position of the previous one on the same link, so the
  /// search starts here.
  std::size_t finger_ = 0;
  /// Interval count at which the next insert calls retire().
  std::size_t retire_at_;
  Tick busy_cycles_ = 0;
  Bytes total_bytes_ = 0;
  std::uint64_t transfers_ = 0;
};

}  // namespace ara::sim
