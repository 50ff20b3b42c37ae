// Figure 10 + Sec. 5.8: the DSE's best configuration (24 islands, 2-ring
// 32-byte SPM<->DMA network, no SPM sharing, exact SPM ports) vs a 12-core
// 1.9 GHz Xeon E5-2420 CMP.
//
// Paper: speedups {Deb 3.7, Den 4.3, Seg 28.6, Reg 4.8, Rob 3.0, Ekf 1.8,
// Dis 3.9} (avg ~7X) and energy gains {10.2, 12.1, 78.4, 13.4, 8.3, 5.1,
// 11.0} (avg ~20X); vs the 4-core CMP of [9]: 25X / 76X; ABB utilization
// 18.5% average, 43.5% peak.
#include <iostream>

#include "bench_util.h"
#include "cmp/cmp_model.h"
#include "dse/sweep.h"
#include "dse/table.h"
#include "workloads/registry.h"

namespace {

struct PaperNumbers {
  const char* name;
  double speedup;
  double energy_gain;
};
constexpr PaperNumbers kPaper[] = {
    {"Deblur", 3.7, 10.2},           {"Denoise", 4.3, 12.1},
    {"Segmentation", 28.6, 78.4},    {"Registration", 4.8, 13.4},
    {"RobotLocalization", 3.0, 8.3}, {"EKF-SLAM", 1.8, 5.1},
    {"DisparityMap", 3.9, 11.0},
};

void fig10() {
  using namespace ara;
  benchutil::print_header(
      "Figure 10 (best accelerator-rich design vs 12-core CMP)",
      "avg 7X speedup / 20X energy; Segmentation the outlier winner; "
      "ABB util 18.5% avg / 43.5% peak");

  const double scale = benchutil::bench_scale();
  const core::ArchConfig best = core::ArchConfig::best_config();
  const cmp::CmpModel cmp12(cmp::CmpConfig::xeon_e5_2420());
  const cmp::CmpModel cmp4(cmp::CmpConfig::xeon_e5405());

  dse::Table t({"benchmark", "speedup", "paper", "energy gain", "paper",
                "avg util", "peak util"});
  double sp_sum = 0, eg_sum = 0, sp4_sum = 0, eg4_sum = 0;
  double util_sum = 0, util_peak = 0;
  for (const auto& pn : kPaper) {
    auto wl = workloads::make_benchmark(pn.name, scale);
    const auto r = benchutil::metered_point(
        std::string(pn.name) + ", best config", best, wl);
    const auto sw12 = cmp12.run(wl);
    const auto sw4 = cmp4.run(wl);
    const double speedup = sw12.seconds / r.seconds();
    const double egain = sw12.joules / r.energy.total();
    sp_sum += speedup;
    eg_sum += egain;
    sp4_sum += sw4.seconds / r.seconds();
    eg4_sum += sw4.joules / r.energy.total();
    util_sum += r.avg_abb_utilization;
    util_peak = std::max(util_peak, r.peak_abb_utilization);
    t.add_row({pn.name, dse::Table::num(speedup, 1),
               dse::Table::num(pn.speedup, 1), dse::Table::num(egain, 1),
               dse::Table::num(pn.energy_gain, 1),
               dse::Table::pct(r.avg_abb_utilization),
               dse::Table::pct(r.peak_abb_utilization)});
  }
  t.print(std::cout);

  const double n = static_cast<double>(std::size(kPaper));
  std::cout << "\naverages vs 12-core CMP: speedup "
            << dse::Table::num(sp_sum / n, 1) << "X (paper ~7X), energy "
            << dse::Table::num(eg_sum / n, 1) << "X (paper ~20X)\n"
            << "averages vs 4-core CMP:  speedup "
            << dse::Table::num(sp4_sum / n, 1) << "X (paper 25X), energy "
            << dse::Table::num(eg4_sum / n, 1) << "X (paper 76X)\n"
            << "ABB utilization: avg " << dse::Table::pct(util_sum / n)
            << " (paper 18.5%), peak " << dse::Table::pct(util_peak)
            << " (paper 43.5%)\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = ara::benchutil::parse_cli(argc, argv);
  fig10();
  ara::benchutil::MetricsSink::instance().export_to(cli.metrics_file);
}
