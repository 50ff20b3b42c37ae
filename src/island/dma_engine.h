// DmaEngine: per-island DMA controller coordinating traffic between shared
// memory (over the NoC) and the island's SPM groups (over the SPM<->DMA
// network). Models the engine's own processing throughput as a shared
// resource; large transfers are chunked so the memory path, the engine and
// the island network pipeline against each other.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.h"
#include "sim/shared_link.h"

namespace ara::island {

class DmaEngine {
 public:
  /// `clock`, when given, sets the engine's floor (see SharedLink).
  DmaEngine(std::string name, double bytes_per_cycle, Bytes chunk_bytes,
            const sim::Simulator* clock = nullptr);

  /// Occupy the engine for `bytes` starting at `ready_at`; returns done tick.
  Tick process(Tick ready_at, Bytes bytes) {
    return engine_.submit(ready_at, bytes);
  }

  Bytes chunk_bytes() const { return chunk_; }
  Bytes total_bytes() const { return engine_.total_bytes(); }
  std::uint64_t transfers() const { return engine_.transfers(); }
  double utilization(Tick elapsed) const {
    return engine_.utilization(elapsed);
  }

  double dynamic_energy_j() const;
  double area_mm2() const;
  double leakage_mw() const;

 private:
  sim::SharedLink engine_;
  Bytes chunk_;
};

}  // namespace ara::island
