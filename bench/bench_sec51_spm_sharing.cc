// Sec. 5.1: SPM sharing analysis. The paper dismisses neighbour SPM
// sharing: the ABB<->SPM crossbar grows 3X while SPM banks shrink to
// 0.66X; SPM is ~20% of the private crossbar's area (7% with sharing);
// and sharing constrains concurrent allocation (an active ABB blocks its
// neighbours), hurting effective parallelism.
#include <iostream>

#include "bench_util.h"
#include "core/system.h"
#include "dse/sweep.h"
#include "dse/table.h"
#include "power/area_model.h"
#include "workloads/registry.h"

namespace {

void sec51() {
  using namespace ara;
  benchutil::print_header(
      "Sec. 5.1 (SPM sharing is a poor trade)",
      "sharing: crossbar 3X, SPM banks 0.66X, SPM/xbar 20% -> 7%, "
      "neighbours blocked while an ABB is active");

  // Area analysis on the polynomial ABB (the dominant kind).
  const auto& poly = abb::params(abb::AbbKind::kPoly);
  const double spm_priv =
      power::spm_group_area_mm2(poly.spm_bytes, poly.min_spm_ports);
  const double xbar_priv =
      power::abb_spm_xbar_area_mm2(poly.min_spm_ports, poly.spm_bytes, false);
  const Bytes shared_spm = poly.spm_bytes * 2 / 3;
  const double spm_shared =
      power::spm_group_area_mm2(shared_spm, poly.min_spm_ports);
  // Crossbar sizing uses the baseline footprint: sharing changes the
  // connectivity (3X), not the bank macros behind it.
  const double xbar_shared =
      power::abb_spm_xbar_area_mm2(poly.min_spm_ports, poly.spm_bytes, true);

  dse::Table t({"quantity", "model", "paper"});
  t.add_row({"crossbar growth with sharing",
             dse::Table::num(xbar_shared / xbar_priv, 2) + "X", "3X"});
  t.add_row({"SPM capacity with sharing",
             dse::Table::num(
                 static_cast<double>(shared_spm) /
                     static_cast<double>(poly.spm_bytes), 2) + "X",
             "0.66X"});
  t.add_row({"SPM area / crossbar area (private)",
             dse::Table::pct(spm_priv / xbar_priv), "~20%"});
  t.add_row({"SPM area / crossbar area (sharing)",
             dse::Table::pct(spm_shared / xbar_shared), "~7%"});
  t.print(std::cout);

  // Allocation-constraint cost: run a chaining-heavy benchmark with and
  // without sharing (3 islands, proxy crossbar baseline).
  std::cout << "\nruntime cost of the sharing allocation constraint "
               "(Segmentation, 3 islands):\n";
  const double scale = benchutil::bench_scale();
  auto wl = workloads::make_benchmark("Segmentation", scale);
  core::ArchConfig base = core::ArchConfig::paper_baseline(3);
  const auto r_priv = benchutil::metered_point("private SPM", base, wl);
  base.island.spm_sharing = true;
  const auto r_shared = benchutil::metered_point("neighbour sharing", base, wl);

  dse::Table rt({"design", "relative performance", "island area mm2"});
  rt.add_row({"private SPM", "1.000", dse::Table::num(r_priv.area.islands_mm2, 1)});
  rt.add_row({"neighbour sharing",
              dse::Table::num(r_shared.performance() / r_priv.performance(), 3),
              dse::Table::num(r_shared.area.islands_mm2, 1)});
  rt.print(std::cout);
  std::cout << "=> sharing is dismissed as a design choice (paper Sec. 5.1)\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = ara::benchutil::parse_cli(argc, argv);
  sec51();
  ara::benchutil::MetricsSink::instance().export_to(cli.metrics_file);
}
