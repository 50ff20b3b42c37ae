// Sec. 5.4: SPM porting. Doubling SPM ports beyond the per-kind minimum
// contributes very little performance (software data layout already
// eliminates almost all bank conflicts) while increasing SPM area/power
// and the ABB<->SPM crossbar size — so exact provisioning is preferable.
#include <iostream>

#include "bench_util.h"
#include "dse/sweep.h"
#include "dse/table.h"
#include "workloads/registry.h"

namespace {

void sec54() {
  using namespace ara;
  benchutil::print_header(
      "Sec. 5.4 (SPM porting: exact vs doubled)",
      "2X ports => negligible performance gain, larger SPM/crossbar area; "
      "exact provisioning preferable");

  const double scale = benchutil::bench_scale();
  dse::Table t({"benchmark", "perf x1 ports", "perf x2 ports",
                "island area x1", "island area x2"});
  double gain_sum = 0;
  int n = 0;
  for (const auto& name : workloads::benchmark_names()) {
    auto wl = workloads::make_benchmark(name, scale);
    core::ArchConfig exact = core::ArchConfig::ring_design(6, 2, 32);
    core::ArchConfig doubled = exact;
    doubled.island.spm_port_multiplier = 2;
    const auto r1 = benchutil::metered_point(name + ", x1 ports", exact, wl);
    const auto r2 = benchutil::metered_point(name + ", x2 ports", doubled, wl);
    const double gain = r2.performance() / r1.performance();
    gain_sum += gain;
    ++n;
    t.add_row({name, "1.000", dse::Table::num(gain, 3),
               dse::Table::num(r1.area.islands_mm2, 1),
               dse::Table::num(r2.area.islands_mm2, 1)});
  }
  t.print(std::cout);
  std::cout << "\nmean performance gain from 2X porting: "
            << dse::Table::num((gain_sum / n - 1.0) * 100.0, 2)
            << "% (paper: \"very little ... if at all\")\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = ara::benchutil::parse_cli(argc, argv);
  sec54();
  ara::benchutil::MetricsSink::instance().export_to(cli.metrics_file);
}
