// SystemReport: the post-run report of one design point — per-island
// ABB/DMA/network utilization, memory-system behaviour, runtime statistics,
// and the utilization of every shared resource class, most saturated
// first. Its last line names the binding resource: the paper's Sec. 5.5
// diagnosis ("one of the primary performance limitations ... is the
// interface between the ABB island and the NoC") for any run.
#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "core/run_result.h"
#include "core/system.h"
#include "obs/metrics_export.h"

namespace ara::dse {

/// Shared resource classes of the chip; the report lists classes whose
/// peaks tie in this order.
enum class Resource : std::uint8_t {
  kNocInterface = 0,  // island local port (the paper's usual suspect)
  kNocLinks,          // mesh links
  kIslandNetHub,      // proxy-crossbar DMA hub
  kIslandNetRing,     // ring segments
  kDmaEngine,
  kMemoryController,
  kL2Port,
  kAbbCompute,
};

const char* resource_name(Resource r);

class SystemReport {
 public:
  /// Snapshot the component stats of `system` after a run with `result`.
  SystemReport(core::System& system, const core::RunResult& result);

  /// One resource class's utilization across its instances.
  struct ResourceUse {
    Resource resource;
    double peak_utilization;
    double mean_utilization;
  };

  /// The classes the design has, most saturated (highest peak) first;
  /// ties keep Resource order.
  const std::vector<ResourceUse>& resources() const { return resources_; }
  /// The most saturated class.
  const ResourceUse& binding() const { return resources_.front(); }

  /// Full human-readable report, ending with the resource table and the
  /// binding resource.
  void print(std::ostream& os) const;

 private:
  struct IslandRow {
    IslandId id;
    double abb_util;
    double peak_abb_util;
    double dma_util;
    double ni_util;
    Bytes net_bytes;
    double tlb_hit;
  };

  core::RunResult result_;
  std::vector<IslandRow> islands_;
  std::vector<double> mc_util_;
  std::vector<ResourceUse> resources_;
  std::uint64_t gam_requests_ = 0;
  std::uint64_t gam_queued_ = 0;
  std::uint64_t interrupts_ = 0;
  obs::MetricsSnapshot metrics_;
};

}  // namespace ara::dse
