// Sec. 1: compute-unit energy, processor vs dedicated 45nm ASIC blocks.
// Paper: add 0.122 vs 0.002 nJ (61X), mul 0.120 vs 0.007 (17X),
//        SP FP 0.150 vs 0.008 (19X).
#include <iostream>

#include "bench_util.h"
#include "dse/table.h"
#include "power/compute_unit_energy.h"

namespace {

void intro_energy() {
  using namespace ara;
  benchutil::print_header(
      "Sec. 1 compute-unit energy comparison",
      "ASIC saves 61X (add), 17X (mul), 19X (SP FP)");

  dse::Table t({"operation", "processor nJ", "ASIC nJ", "ASIC clock",
                "saving factor"});
  for (const auto& e : power::compute_op_table()) {
    t.add_row({e.name, dse::Table::num(e.processor_nj, 3),
               dse::Table::num(e.asic_nj, 3),
               dse::Table::num(e.asic_clock_mhz / 1000.0, 1) + " GHz",
               dse::Table::num(e.processor_nj / e.asic_nj, 0) + "X"});
  }
  t.print(std::cout);

  std::cout << "\nInefficiency decomposition (paper's three sources):\n";
  dse::Table d({"operation", "excess functionality", "excess precision",
                "dynamic logic"});
  for (const auto& e : power::compute_op_table()) {
    const auto dec = power::saving_decomposition(e.op);
    d.add_row({e.name, dse::Table::num(dec.excess_functionality, 1) + "X",
               dse::Table::num(dec.excess_precision, 1) + "X",
               dse::Table::num(dec.dynamic_logic, 1) + "X"});
  }
  d.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = ara::benchutil::parse_cli(argc, argv);
  intro_energy();
  ara::benchutil::MetricsSink::instance().export_to(cli.metrics_file);
}
