// Figure 7: performance of SPM<->DMA ring networks vs the proxy-crossbar
// baseline, for all seven benchmarks at 3 islands (40 ABBs/island) and
// 24 islands (5 ABBs/island). Normalized per island count to the proxy
// crossbar.
//
// Paper shape: most ring configurations outperform the crossbar; the
// impact shrinks as islands increase; the crossbar is worst for the
// chaining-heavy benchmarks (Segmentation, Robot Localization, EKF-SLAM,
// peaking around 2.2-2.6X at 3 islands).
//
// The 2 x 7 x 5 = 70 design points are benchutil::NetworkMatrix, shared
// with Figs. 8 and 9, and run on the parallel sweep executor (`--jobs N`,
// default hardware concurrency).
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "dse/sweep.h"
#include "dse/table.h"

namespace {

void fig07(unsigned jobs) {
  using namespace ara;
  benchutil::print_header(
      "Figure 7 (ring vs proxy crossbar; 3 and 24 islands)",
      "rings win, most for chaining-heavy benchmarks at 3 islands "
      "(up to ~2.6X); impact shrinks at 24 islands");

  const auto m = benchutil::run_network_matrix(jobs);
  std::size_t idx = 0;
  for (std::uint32_t islands : benchutil::NetworkMatrix::kIslandCounts) {
    std::cout << "\n--- " << islands << " islands ("
              << 120 / islands << " ABBs/island) ---\n";
    const auto points = dse::paper_network_configs(islands);
    std::vector<std::string> headers = {"benchmark"};
    for (const auto& p : points) headers.push_back(p.label);
    headers.push_back("chain degree");
    dse::Table t(std::move(headers));

    for (const auto& wl : m.workloads) {
      std::vector<std::string> row = {wl.name};
      double base = 0;
      for (std::size_t i = 0; i < points.size(); ++i, ++idx) {
        const auto& r = m.results[idx].result;
        if (i == 0) base = r.performance();
        row.push_back(
            dse::Table::num(benchutil::norm(r.performance(), base), 3));
      }
      row.push_back(dse::Table::num(wl.dfg.chaining_degree(), 2));
      t.add_row(std::move(row));
    }
    t.print(std::cout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = ara::benchutil::parse_cli(argc, argv);
  fig07(cli.jobs);
  ara::benchutil::MetricsSink::instance().export_to(cli.metrics_file);
}
