// Sec. 5.7: area & compute density. The SPM<->DMA network accounts for
// 16-40% of island area for ring networks (depending on link width and
// ring count) and 44-50% for crossbar networks on large islands.
#include <iostream>

#include "bench_util.h"
#include "core/system.h"
#include "dse/table.h"
#include "island/island_config.h"

namespace {

void sec57() {
  using namespace ara;
  benchutil::print_header(
      "Sec. 5.7 (island area breakdown by SPM<->DMA network)",
      "ring: 16-40% of island area; crossbar: 44-50% for large islands");

  dse::Table t({"islands", "ABBs/isl", "network", "net mm2", "island mm2",
                "net share"});
  struct Net {
    const char* label;
    island::SpmDmaTopology topo;
    std::uint32_t rings;
    Bytes width;
  };
  const Net nets[] = {
      {"1-ring,16B", island::SpmDmaTopology::kRing, 1, 16},
      {"1-ring,32B", island::SpmDmaTopology::kRing, 1, 32},
      {"2-ring,32B", island::SpmDmaTopology::kRing, 2, 32},
      {"3-ring,32B", island::SpmDmaTopology::kRing, 3, 32},
      {"proxy-xbar", island::SpmDmaTopology::kProxyXbar, 1, 32},
  };
  for (std::uint32_t islands : {3u, 6u, 12u, 24u}) {
    for (const auto& net : nets) {
      core::ArchConfig cfg = core::ArchConfig::paper_baseline(islands);
      cfg.island.net.topology = net.topo;
      cfg.island.net.num_rings = net.rings;
      cfg.island.net.link_bytes = net.width;
      core::System system(cfg);
      const auto& isl = system.island(0);
      t.add_row({std::to_string(islands), std::to_string(120 / islands),
                 net.label, dse::Table::num(isl.net_area_mm2(), 2),
                 dse::Table::num(isl.total_area_mm2(), 2),
                 dse::Table::pct(isl.net_area_mm2() / isl.total_area_mm2())});
    }
  }
  t.print(std::cout);

  // Full-island component breakdown at the 3-island (40 ABB) point.
  std::cout << "\ncomponent breakdown, 40-ABB island with 2-ring,32B:\n";
  core::ArchConfig cfg = core::ArchConfig::ring_design(3, 2, 32);
  core::System system(cfg);
  const auto& isl = system.island(0);
  dse::Table c({"component", "mm2", "share"});
  const double total = isl.total_area_mm2();
  c.add_row({"ABB compute engines", dse::Table::num(isl.compute_area_mm2(), 2),
             dse::Table::pct(isl.compute_area_mm2() / total)});
  c.add_row({"SPM banks", dse::Table::num(isl.spm_area_mm2(), 2),
             dse::Table::pct(isl.spm_area_mm2() / total)});
  c.add_row({"ABB<->SPM crossbars",
             dse::Table::num(isl.abb_spm_xbar_area_mm2(), 2),
             dse::Table::pct(isl.abb_spm_xbar_area_mm2() / total)});
  c.add_row({"SPM<->DMA network", dse::Table::num(isl.net_area_mm2(), 2),
             dse::Table::pct(isl.net_area_mm2() / total)});
  c.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = ara::benchutil::parse_cli(argc, argv);
  sec57();
  ara::benchutil::MetricsSink::instance().export_to(cli.metrics_file);
}
