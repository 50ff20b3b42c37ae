// Figure 9: performance per unit area (compute density) of the SPM<->DMA
// network designs, all seven benchmarks at 3 and 24 islands, normalized to
// the proxy crossbar at the respective island count.
//
// Paper shape: compute density DROPS as network resources are added —
// under-provisioned networks win on density even though performance
// suffers; there is little justification for enlarging the network far
// beyond the NoC-interface bandwidth cap.
//
// The 2 x 7 x 5 = 70 design points are benchutil::NetworkMatrix, shared
// with Figs. 7 and 8, and run on the parallel sweep executor (`--jobs N`,
// default hardware concurrency).
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "dse/sweep.h"
#include "dse/table.h"

namespace {

void fig09(unsigned jobs) {
  using namespace ara;
  benchutil::print_header(
      "Figure 9 (performance per unit island area; normalized to proxy "
      "xbar)",
      "density falls as network resources grow; small networks see high "
      "utilization");

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
        if (i == 0) base = r.perf_per_island_area();
        row.push_back(dse::Table::num(
            benchutil::norm(r.perf_per_island_area(), base), 3));
      }
      t.add_row(std::move(row));
    }
    t.print(std::cout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = ara::benchutil::parse_cli(argc, argv);
  fig09(cli.jobs);
  ara::benchutil::MetricsSink::instance().export_to(cli.metrics_file);
}
