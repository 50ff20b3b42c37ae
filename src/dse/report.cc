#include "dse/report.h"

#include <algorithm>
#include <array>

#include "dse/table.h"
#include "island/spm_dma_net.h"
#include "noc/router.h"

namespace ara::dse {

namespace {

constexpr std::size_t kNumResources =
    static_cast<std::size_t>(Resource::kAbbCompute) + 1;

/// Peak and sum of one resource class's utilization over its instances.
struct ClassUse {
  double peak = 0, sum = 0;
  std::size_t n = 0;
  void add(double u) {
    peak = std::max(peak, u);
    sum += u;
    ++n;
  }
};

}  // namespace

const char* resource_name(Resource r) {
  switch (r) {
    case Resource::kNocInterface:
      return "island NoC interface";
    case Resource::kNocLinks:
      return "NoC mesh links";
    case Resource::kIslandNetHub:
      return "SPM<->DMA crossbar hub";
    case Resource::kIslandNetRing:
      return "SPM<->DMA ring links";
    case Resource::kDmaEngine:
      return "DMA engine";
    case Resource::kMemoryController:
      return "memory controller";
    case Resource::kL2Port:
      return "L2 bank port";
    case Resource::kAbbCompute:
      return "ABB compute";
  }
  return "?";
}

SystemReport::SystemReport(core::System& system,
                           const core::RunResult& result)
    : result_(result) {
  const Tick span = result.makespan;
  std::array<ClassUse, kNumResources> use;
  auto add = [&use](Resource r, double u) {
    use[static_cast<std::size_t>(r)].add(u);
  };

  for (IslandId i = 0; i < system.island_count(); ++i) {
    auto& isl = system.island(i);
    IslandRow row;
    row.id = i;
    row.abb_util = isl.avg_abb_utilization(span);
    row.peak_abb_util = isl.peak_abb_utilization(span);
    row.dma_util = isl.dma().utilization(span);
    row.ni_util = system.mesh()
                      .router(system.island_node(i))
                      .port(noc::Direction::kLocal)
                      .utilization(span);
    row.net_bytes = isl.net().total_bytes();
    row.tlb_hit = isl.tlb().hit_rate();
    islands_.push_back(row);
    add(Resource::kNocInterface, row.ni_util);
    add(Resource::kDmaEngine, row.dma_util);
    add(Resource::kAbbCompute, row.peak_abb_util);
    if (const auto* px =
            dynamic_cast<const island::ProxyXbarNet*>(&isl.net())) {
      add(Resource::kIslandNetHub, px->dma_hub_utilization(span));
    } else if (const auto* rn =
                   dynamic_cast<const island::RingNet*>(&isl.net())) {
      add(Resource::kIslandNetRing, rn->max_link_utilization(span));
    }
  }
  add(Resource::kNocLinks, result.noc_peak_link_utilization);

  auto& mem = system.memory();
  for (std::size_t m = 0; m < mem.controller_count(); ++m) {
    mc_util_.push_back(mem.controller(m).utilization(span));
    add(Resource::kMemoryController, mc_util_.back());
  }
  for (std::size_t b = 0; b < mem.l2_bank_count(); ++b) {
    add(Resource::kL2Port, mem.l2_bank(b).utilization(span));
  }

  for (std::size_t r = 0; r < kNumResources; ++r) {
    if (use[r].n == 0) continue;
    resources_.push_back({static_cast<Resource>(r), use[r].peak,
                          use[r].sum / static_cast<double>(use[r].n)});
  }
  std::stable_sort(resources_.begin(), resources_.end(),
                   [](const ResourceUse& a, const ResourceUse& b) {
                     return a.peak_utilization > b.peak_utilization;
                   });

  gam_requests_ = system.gam().requests();
  gam_queued_ = system.gam().queued_requests();
  interrupts_ = system.gam().interrupts_delivered();
  metrics_ = obs::MetricsSnapshot::capture(system.stats());
}

void SystemReport::print(std::ostream& os) const {
  os << "=== system report: " << result_.workload << " on ["
     << result_.config << "] ===\n";
  result_.print(os);

  os << "\nper-island utilization:\n";
  Table t({"island", "ABB avg", "ABB peak", "DMA", "NI (NoC port)",
           "net KB", "TLB hit"});
  for (const auto& r : islands_) {
    t.add_row({std::to_string(r.id), Table::pct(r.abb_util),
               Table::pct(r.peak_abb_util), Table::pct(r.dma_util),
               Table::pct(r.ni_util),
               Table::num(static_cast<double>(r.net_bytes) / 1024.0, 0),
               Table::pct(r.tlb_hit)});
  }
  t.print(os);

  os << "\nmemory system: L2 hit " << Table::pct(result_.l2_hit_rate)
     << ", MC util";
  for (double u : mc_util_) os << " " << Table::pct(u);
  os << "\nNoC peak link utilization: "
     << Table::pct(result_.noc_peak_link_utilization) << "\n";
  os << "GAM: " << gam_requests_ << " requests, " << gam_queued_
     << " queued, " << interrupts_ << " interrupts delivered\n";

  // Chip-level latency distributions from the stat registry (the per-id
  // histograms stay available through --metrics).
  Table lt({"latency (cycles)", "count", "mean", "p50", "p95", "p99", "max"});
  for (const auto& h : metrics_.histograms) {
    if (h.name.find('.') != h.name.rfind('.')) continue;  // skip per-id
    if (h.count == 0) continue;
    lt.add_row({h.name, std::to_string(h.count), Table::num(h.mean, 1),
                std::to_string(h.p50), std::to_string(h.p95),
                std::to_string(h.p99), std::to_string(h.max)});
  }
  os << "\n";
  lt.print(os);
  os << "stat registry: " << metrics_.counters.size() << " counters, "
     << metrics_.histograms.size() << " histograms (export with --metrics)\n";

  os << "\nresource utilization (most saturated first):\n";
  Table rt({"resource", "peak util", "mean util"});
  for (const auto& c : resources_) {
    rt.add_row({resource_name(c.resource), Table::pct(c.peak_utilization),
                Table::pct(c.mean_utilization)});
  }
  rt.print(os);
  os << "binding resource: " << resource_name(binding().resource) << " at "
     << Table::pct(binding().peak_utilization) << "\n";
}

}  // namespace ara::dse
