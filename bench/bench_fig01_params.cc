// Figure 1: hardware parameters of the modelled general-purpose processor,
// plus the Sec. 1 footnote anchors (McPAT vs synthesized Int ALU power).
#include <iostream>

#include "bench_util.h"
#include "dse/table.h"
#include "power/compute_unit_energy.h"
#include "power/mcpat_like.h"

namespace {

void fig01() {
  using namespace ara;
  benchutil::print_header(
      "Figure 1 (hardware parameters for general-purpose processor)",
      "4-wide OoO, 3 int ALUs, 2 FP ALUs, 96 ROB, 64 RS, 32KB L1s, 6MB L2");

  const power::PipelineParams p;
  dse::Table t({"PARAMETER", "VALUE"});
  t.add_row({"Fetch/issue/retire width", std::to_string(p.fetch_width)});
  t.add_row({"# Integer ALUs", std::to_string(p.int_alus)});
  t.add_row({"# FP ALUs", std::to_string(p.fp_alus)});
  t.add_row({"# ROB entries", std::to_string(p.rob_entries)});
  t.add_row({"# Reservation station entries", std::to_string(p.rs_entries)});
  t.add_row({"L1 I-cache", std::to_string(p.l1i_kb) + " KB, " +
                               std::to_string(p.assoc) + "-way set assoc."});
  t.add_row({"L1 D-cache", std::to_string(p.l1d_kb) + " KB, " +
                               std::to_string(p.assoc) + "-way set assoc."});
  t.add_row({"L2 cache", std::to_string(p.l2_mb) + " MB, " +
                             std::to_string(p.assoc) + "-way set assoc."});
  t.add_row({"Clock", dse::Table::num(p.freq_ghz, 1) + " GHz"});
  t.print(std::cout);

  std::cout << "\nSec. 1 footnote anchors:\n"
            << "  McPAT Int ALU power @2GHz: " << power::kMcPatIntAluPowerMw
            << " mW (paper: 422.02 mW)\n"
            << "  45nm synthesized Int ALU:  " << power::kSynthIntAluPowerMw
            << " mW @ " << power::kSynthIntAluClockMhz
            << " MHz max (paper: 11.41 mW @ 500 MHz)\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = ara::benchutil::parse_cli(argc, argv);
  fig01();
  ara::benchutil::MetricsSink::instance().export_to(cli.metrics_file);
}
