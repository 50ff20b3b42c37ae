// Off-chip memory controller model: a bandwidth-limited channel plus a
// fixed average access latency. The paper's evaluated system uses four
// controllers with an average 180-cycle latency at 10 GB/s each (Sec. 4).
#pragma once

#include <string>

#include "common/types.h"
#include "sim/shared_link.h"

namespace ara::mem {

struct MemoryControllerConfig {
  double bandwidth_bytes_per_cycle = 10.0;  // 10 GB/s at 1 GHz
  Tick avg_latency = 180;
};

class MemoryController {
 public:
  /// `clock`, when given, sets the channel's floor (see SharedLink).
  MemoryController(std::string name, const MemoryControllerConfig& config,
                   const sim::Simulator* clock = nullptr);

  /// Serve `bytes` of DRAM traffic; returns the completion tick.
  Tick access(Tick ready_at, Bytes bytes);

  Bytes total_bytes() const { return channel_.total_bytes(); }
  std::uint64_t accesses() const { return channel_.transfers(); }
  double utilization(Tick elapsed) const {
    return channel_.utilization(elapsed);
  }
  const std::string& name() const { return channel_.name(); }

 private:
  sim::SharedLink channel_;
};

}  // namespace ara::mem
