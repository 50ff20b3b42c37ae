// Sec. 5.2: the chaining-optimized crossbar does not scale. For large
// islands (40 ABBs) the SPM<->DMA network exceeds 99% of the island area
// while buying only modest performance: most ABB pairs are not
// communicating at any given time, so the all-to-all capacity is severely
// over-provisioned.
#include <iostream>

#include "bench_util.h"
#include "core/system.h"
#include "dse/sweep.h"
#include "dse/table.h"
#include "workloads/registry.h"

namespace {

void sec52() {
  using namespace ara;
  benchutil::print_header(
      "Sec. 5.2 (chaining-optimized crossbar topology)",
      ">99% of a 40-ABB island's area; only modest performance gain");

  // Area share of the SPM<->DMA network across island sizes and topologies.
  dse::Table t({"ABBs/island", "net topology", "net area mm2",
                "share of island area"});
  for (std::uint32_t islands : {24u, 12u, 6u, 3u}) {
    for (auto topo : {island::SpmDmaTopology::kProxyXbar,
                      island::SpmDmaTopology::kChainingXbar}) {
      core::ArchConfig cfg = core::ArchConfig::paper_baseline(islands);
      cfg.island.net.topology = topo;
      core::System system(cfg);
      const auto& isl = system.island(0);
      t.add_row({std::to_string(120 / islands),
                 island::topology_name(topo),
                 dse::Table::num(isl.net_area_mm2(), 1),
                 dse::Table::pct(isl.net_area_mm2() / isl.total_area_mm2())});
    }
  }
  t.print(std::cout);

  // Performance: chaining xbar vs proxy xbar vs 2-ring on the two most
  // chaining-heavy benchmarks at 3 islands (40 ABBs/island).
  std::cout << "\nperformance at 3 islands (normalized to proxy xbar):\n";
  const double scale = benchutil::bench_scale();
  dse::Table pt({"benchmark", "proxy-xbar", "chaining-xbar", "2-ring,32B"});
  for (const char* name : {"Segmentation", "EKF-SLAM"}) {
    auto wl = workloads::make_benchmark(name, scale);
    core::ArchConfig proxy = core::ArchConfig::paper_baseline(3);
    core::ArchConfig chainx = proxy;
    chainx.island.net.topology = island::SpmDmaTopology::kChainingXbar;
    const core::ArchConfig ring = core::ArchConfig::ring_design(3, 2, 32);
    const std::string label(name);
    const double base =
        benchutil::metered_point(label + ", proxy-xbar", proxy, wl)
            .performance();
    pt.add_row({name, "1.000",
                dse::Table::num(
                    benchutil::metered_point(label + ", chaining-xbar", chainx,
                                             wl)
                            .performance() /
                        base,
                    3),
                dse::Table::num(
                    benchutil::metered_point(label + ", 2-ring,32B", ring, wl)
                            .performance() /
                        base,
                    3)});
  }
  pt.print(std::cout);
  std::cout << "=> the chaining-optimized crossbar buys performance but at "
               "an untenable area cost for large islands\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = ara::benchutil::parse_cli(argc, argv);
  sec52();
  ara::benchutil::MetricsSink::instance().export_to(cli.metrics_file);
}
