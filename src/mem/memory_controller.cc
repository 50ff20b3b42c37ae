#include "mem/memory_controller.h"

#include <utility>

namespace ara::mem {

MemoryController::MemoryController(std::string name,
                                   const MemoryControllerConfig& config,
                                   const sim::Simulator* clock)
    : channel_(std::move(name), config.bandwidth_bytes_per_cycle,
               config.avg_latency, clock) {}

Tick MemoryController::access(Tick ready_at, Bytes bytes) {
  return channel_.submit(ready_at, bytes);
}

}  // namespace ara::mem
