// Figure 8: performance per unit energy of the SPM<->DMA network designs,
// for all seven benchmarks at 3 and 24 islands, normalized to the proxy
// crossbar at the respective island count.
//
// Paper shape: over-provisioning interconnect improves energy efficiency
// (higher performance at similar power per bit); efficiency gains from
// stronger interconnect shrink at 24 islands where the NoC interface
// dominates.
//
// The 2 x 7 x 5 = 70 design points are benchutil::NetworkMatrix, shared
// with Figs. 7 and 9, and run on the parallel sweep executor (`--jobs N`,
// default hardware concurrency).
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "dse/sweep.h"
#include "dse/table.h"

namespace {

void fig08(unsigned jobs) {
  using namespace ara;
  benchutil::print_header(
      "Figure 8 (performance per unit energy; normalized to proxy xbar)",
      "stronger interconnect => more energy-efficient operation; gains "
      "smaller at 24 islands (up to ~5-6X for chaining-heavy at 3 islands)");

  const auto m = benchutil::run_network_matrix(jobs);
  std::size_t idx = 0;
  for (std::uint32_t islands : benchutil::NetworkMatrix::kIslandCounts) {
    std::cout << "\n--- " << islands << " islands ---\n";
    const auto points = dse::paper_network_configs(islands);
    std::vector<std::string> headers = {"benchmark"};
    for (const auto& p : points) headers.push_back(p.label);
    dse::Table t(std::move(headers));

    for (const auto& wl : m.workloads) {
      std::vector<std::string> row = {wl.name};
      double base = 0;
      for (std::size_t i = 0; i < points.size(); ++i, ++idx) {
        const auto& r = m.results[idx].result;
        if (i == 0) base = r.perf_per_energy();
        row.push_back(
            dse::Table::num(benchutil::norm(r.perf_per_energy(), base), 3));
      }
      t.add_row(std::move(row));
    }
    t.print(std::cout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = ara::benchutil::parse_cli(argc, argv);
  fig08(cli.jobs);
  ara::benchutil::MetricsSink::instance().export_to(cli.metrics_file);
}
