// Figure 9: performance per unit area (compute density) of the SPM<->DMA
// network designs, all seven benchmarks at 3 and 24 islands, normalized to
// the proxy crossbar at the respective island count.
//
// Paper shape: compute density DROPS as network resources are added —
// under-provisioned networks win on density even though performance
// suffers; there is little justification for enlarging the network far
// beyond the NoC-interface bandwidth cap.
//
// The 2 x 7 x 5 = 70 design points run on the parallel sweep executor
// (`--jobs N`, default hardware concurrency).
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "core/system.h"
#include "dse/parallel_sweep.h"
#include "dse/sweep.h"
#include "dse/table.h"
#include "workloads/registry.h"

namespace {

void fig09(unsigned jobs) {
  using namespace ara;
  benchutil::print_header(
      "Figure 9 (performance per unit island area; normalized to proxy "
      "xbar)",
      "density falls as network resources grow; small networks see high "
      "utilization");

  const double scale = benchutil::bench_scale();
  const auto& names = workloads::benchmark_names();
  const std::vector<std::uint32_t> island_counts = {3, 24};

  std::vector<workloads::Workload> wls;
  wls.reserve(names.size());
  for (const auto& name : names) {
    wls.push_back(workloads::make_benchmark(name, scale));
  }

  std::vector<dse::SweepJob> sweep_jobs;
  std::vector<std::string> labels;
  for (std::uint32_t islands : island_counts) {
    const auto points = dse::paper_network_configs(islands);
    for (const auto& wl : wls) {
      for (const auto& p : points) {
        sweep_jobs.push_back({p.config, &wl});
        labels.push_back(wl.name + ", " + p.label + ", " +
                         std::to_string(islands) + " islands");
      }
    }
  }

  dse::SweepRequest request;
  request.sweep = std::move(sweep_jobs);
  request.jobs = jobs;
  request.cache = benchutil::sweep_cache();
  const benchutil::WallTimer timer;
  const auto results = dse::run(request);
  const double wall_s = timer.seconds();

  std::size_t idx = 0;
  for (std::uint32_t islands : island_counts) {
    std::cout << "\n--- " << islands << " islands ---\n";
    const auto points = dse::paper_network_configs(islands);
    std::vector<std::string> headers = {"benchmark"};
    for (const auto& p : points) headers.push_back(p.label);
    dse::Table t(std::move(headers));

    for (const auto& name : names) {
      std::vector<std::string> row = {name};
      double base = 0;
      for (std::size_t i = 0; i < points.size(); ++i, ++idx) {
        const auto& r = results[idx].result;
        if (i == 0) base = r.perf_per_island_area();
        row.push_back(dse::Table::num(
            benchutil::norm(r.perf_per_island_area(), base), 3));
      }
      t.add_row(std::move(row));
    }
    t.print(std::cout);
  }
  benchutil::print_sweep_stats(results, wall_s,
                               benchutil::resolved_jobs(jobs));
  benchutil::MetricsSink::instance().record_sweep(labels, results);
}

void micro_area_rollup(benchmark::State& state) {
  ara::core::System system(ara::core::ArchConfig::ring_design(3, 2, 32));
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.islands_area_mm2());
  }
}
BENCHMARK(micro_area_rollup);

}  // namespace

int main(int argc, char** argv) {
  const auto cli = ara::benchutil::parse_cli(argc, argv);
  fig09(cli.jobs);
  ara::benchutil::MetricsSink::instance().export_to(cli.metrics_file);
  std::cout << "\n";
  return ara::benchutil::run_micro(argc, argv);
}
