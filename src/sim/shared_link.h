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
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace ara::sim {

class SharedLink {
 public:
  /// `bytes_per_cycle` must be > 0. `name` keys this link's stats.
  SharedLink(std::string name, double bytes_per_cycle, Tick pipeline_latency);

  /// Reserve the link for `bytes` starting no earlier than `ready_at`.
  /// Returns the tick at which the payload has fully arrived at the far side.
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

  /// Number of live reservation intervals. Compaction caps this only once
  /// the high watermark passes 2^21 cycles; below that the count grows with
  /// the run (thousands on a long design point's busiest mesh port).
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
  void compact();

  std::string name_;
  double bytes_per_cycle_;
  Tick latency_;
  /// Non-overlapping busy intervals sorted by start tick.
  std::vector<Interval> busy_;
  /// Index of the interval the last submit() wrote. Most payloads land
  /// within one position of the previous one on the same link, so the
  /// search starts here.
  std::size_t finger_ = 0;
  Tick busy_cycles_ = 0;
  Bytes total_bytes_ = 0;
  std::uint64_t transfers_ = 0;
  Tick high_watermark_ = 0;
};

}  // namespace ara::sim
