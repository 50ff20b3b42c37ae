// Sec. 4: the simulated system's parameters ("Table 2 of [8], with the
// exception that the system in this work is configured with 4 memory
// controllers (avg. 180-cycle latency @ 10 GB/s) and 120 ABBs (78
// polynomial, 18 divide, 9 sqrt, 6 power, 9 sum) with uniform distribution
// of ABBs among the islands"). This bench echoes the substrate parameters
// the simulator instantiates, with the paper-stated values called out.
#include <iostream>

#include "bench_util.h"
#include "abb/abb_types.h"
#include "core/arch_config.h"
#include "core/system.h"
#include "dse/table.h"

namespace {

void sec4() {
  using namespace ara;
  benchutil::print_header(
      "Sec. 4 (simulated system parameters)",
      "4 MCs @ 180 cycles / 10 GB/s; 120 ABBs = 78/18/9/6/9; uniform "
      "island distribution");

  const core::ArchConfig cfg = core::ArchConfig::best_config();
  dse::Table t({"parameter", "value", "paper-stated"});
  t.add_row({"memory controllers",
             std::to_string(cfg.mem.num_memory_controllers), "4"});
  t.add_row({"MC latency (avg cycles)",
             std::to_string(cfg.mem.mc.avg_latency), "180"});
  t.add_row({"MC bandwidth (B/cycle @1GHz)",
             dse::Table::num(cfg.mem.mc.bandwidth_bytes_per_cycle, 0),
             "10 GB/s"});
  t.add_row({"total ABBs", std::to_string(cfg.total_abbs), "120"});
  const auto mix = abb::paper_mix();
  t.add_row({"  polynomial", std::to_string(mix.count[0]), "78"});
  t.add_row({"  divide", std::to_string(mix.count[1]), "18"});
  t.add_row({"  sqrt", std::to_string(mix.count[2]), "9"});
  t.add_row({"  power", std::to_string(mix.count[3]), "6"});
  t.add_row({"  sum", std::to_string(mix.count[4]), "9"});
  t.add_row({"shared L2 banks", std::to_string(cfg.mem.num_l2_banks),
             "(Table 2 of [8])"});
  t.add_row({"L2 bank capacity (KiB)",
             std::to_string(cfg.mem.l2.capacity / 1024), "-"});
  t.add_row({"NoC", std::to_string(cfg.mesh.width) + "x" +
                        std::to_string(cfg.mesh.height) + " mesh, " +
                        dse::Table::num(cfg.mesh.link_bytes_per_cycle, 0) +
                        " B/cyc links", "(GEMS-based)"});
  t.add_row({"cores", std::to_string(cfg.num_cores), "-"});
  t.add_row({"DMA chunk (B)", std::to_string(cfg.island.dma_chunk_bytes),
             "-"});
  t.add_row({"island TLB", std::to_string(cfg.island.tlb.entries) +
                               " entries, " +
                               std::to_string(cfg.island.tlb.page_bytes /
                                              (1024 * 1024)) +
                               " MiB pages", "(small TLB, Sec. 2)"});
  t.print(std::cout);

  std::cout << "\nper-kind ABB parameters:\n";
  dse::Table a({"kind", "latency", "II", "in words", "min ports",
                "SPM KiB", "area mm2", "pJ/elem"});
  for (abb::AbbKind k : abb::asic_kinds()) {
    const auto& p = abb::params(k);
    a.add_row({p.name, std::to_string(p.pipeline_latency),
               std::to_string(p.initiation_interval),
               std::to_string(p.input_words),
               std::to_string(p.min_spm_ports),
               std::to_string(p.spm_bytes / 1024),
               dse::Table::num(p.area_mm2, 3),
               dse::Table::num(p.energy_pj_per_elem, 0)});
  }
  a.print(std::cout);

  // Island distribution check: uniform per Sec. 4.
  core::System sys(cfg);
  std::cout << "\nABBs per island: " << cfg.abbs_per_island()
            << " (uniform across " << cfg.num_islands << " islands)\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = ara::benchutil::parse_cli(argc, argv);
  sec4();
  ara::benchutil::MetricsSink::instance().export_to(cli.metrics_file);
}
