// Figure 6: performance impact of SPM<->DMA network choice while varying
// the number of ABB islands (3/6/12/24; 120 ABBs fixed), for Denoise and
// EKF-SLAM, normalized to the 3-island proxy-crossbar baseline.
//
// Paper shape: performance rises with island count (more NoC interfaces);
// low-chaining Denoise gains more than chaining-heavy EKF-SLAM; ring
// configurations sit above the crossbar, with the gap largest for small
// island counts.
//
// All 32 design points are independent simulations, so they run on the
// parallel sweep executor (`--jobs N`, default hardware concurrency).
#include <iostream>
#include <map>
#include <vector>

#include "bench_util.h"
#include "dse/sweep.h"
#include "dse/table.h"
#include "workloads/registry.h"

namespace {

void fig06(unsigned jobs) {
  using namespace ara;
  benchutil::print_header(
      "Figure 6 (network choice vs island count; normalized to 3-island "
      "baseline)",
      "series rise 3->24 islands; Denoise (low chaining) gains most; "
      "crossbar trails rings");

  const double scale = benchutil::bench_scale();
  struct Series {
    const char* workload;
    const char* net;
  };
  const Series series[] = {
      {"Denoise", "proxy-xbar"},  {"Denoise", "1-ring,16B"},
      {"Denoise", "1-ring,32B"},  {"Denoise", "2-ring,32B"},
      {"Denoise", "3-ring,32B"},  {"EKF-SLAM", "proxy-xbar"},
      {"EKF-SLAM", "1-ring,16B"}, {"EKF-SLAM", "1-ring,32B"},
  };
  const auto& island_counts = dse::paper_island_counts();

  // Workloads built once and borrowed by every job.
  std::map<std::string, workloads::Workload> wls;
  for (const char* wname : {"Denoise", "EKF-SLAM"}) {
    wls.emplace(wname, workloads::make_benchmark(wname, scale));
  }

  // Job list: series-major, island-count-minor, so the result of series s
  // at island count i lands at index s * |counts| + i.
  std::vector<dse::SweepJob> sweep_jobs;
  std::vector<std::string> labels;
  for (const auto& s : series) {
    for (std::uint32_t islands : island_counts) {
      core::ArchConfig cfg = core::ArchConfig::paper_baseline(islands);
      for (const auto& p : dse::paper_network_configs(islands)) {
        if (p.label == s.net) cfg = p.config;
      }
      sweep_jobs.push_back({cfg, &wls.at(s.workload)});
      labels.push_back(std::string(s.workload) + ", " + s.net + ", " +
                       std::to_string(islands) + " islands");
    }
  }

  dse::SweepRequest request;
  request.sweep = std::move(sweep_jobs);
  request.jobs = jobs;
  request.cache = benchutil::sweep_cache();
  const benchutil::WallTimer timer;
  const auto results = dse::run(request);
  const double wall_s = timer.seconds();

  // Baseline: 3-island proxy crossbar, per workload — series 0 and 5 at
  // the first island count.
  std::map<std::string, double> base_perf;
  base_perf["Denoise"] = results[0].result.performance();
  base_perf["EKF-SLAM"] =
      results[5 * island_counts.size()].result.performance();

  dse::Table t({"series", "3 islands", "6 islands", "12 islands",
                "24 islands"});
  for (std::size_t si = 0; si < std::size(series); ++si) {
    const auto& s = series[si];
    std::vector<std::string> row = {std::string(s.workload) + ", " + s.net};
    for (std::size_t ii = 0; ii < island_counts.size(); ++ii) {
      const auto& r = results[si * island_counts.size() + ii].result;
      row.push_back(dse::Table::num(
          ara::benchutil::norm(r.performance(), base_perf[s.workload]), 3));
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  benchutil::print_sweep_stats(results, wall_s, jobs);
  benchutil::MetricsSink::instance().record_sweep(labels, results);
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = ara::benchutil::parse_cli(argc, argv);
  fig06(cli.jobs);
  ara::benchutil::MetricsSink::instance().export_to(cli.metrics_file);
}
