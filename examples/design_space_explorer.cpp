// Design-space explorer: sweep island count x SPM<->DMA topology for a
// benchmark and rank design points by performance, performance/energy and
// compute density — a miniature of the paper's Section 5 exploration that
// users can point at their own workloads.
//
// Usage: design_space_explorer [benchmark] [--jobs N] [--metrics FILE]
//                              [--cache DIR]
//   benchmark       one of the paper's seven workloads (default EKF-SLAM)
// Shared flags (common::CliOptions; each has an ARA_* env fallback):
//   --jobs N        parallel sweep workers (default: hardware concurrency;
//                   every design point is an independent simulation)
//   --metrics FILE  write every point's full stat-registry snapshot as
//                   labeled JSON ({"points":[{"label":..,"metrics":..}]})
//   --cache DIR     memoize design points on disk: a re-run of the same
//                   sweep restores every point without simulating
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "check/check.h"
#include "common/cli_options.h"
#include "common/config_error.h"
#include "dse/parallel_sweep.h"
#include "dse/result_cache.h"
#include "dse/sweep.h"
#include "dse/table.h"
#include "obs/metrics_export.h"
#include "workloads/registry.h"

namespace {

void usage(std::ostream& os) {
  os << "usage: design_space_explorer [benchmark] [options]\n"
     << ara::common::CliOptions::help(
            ara::common::CliOptions::kJobs |
            ara::common::CliOptions::kMetrics |
            ara::common::CliOptions::kCache | ara::common::CliOptions::kCheck);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ara;

  auto cli = common::CliOptions::parse(
      argc, argv,
      common::CliOptions::kJobs | common::CliOptions::kMetrics |
          common::CliOptions::kCache | common::CliOptions::kCheck);
  if (!cli.ok()) {
    std::cerr << "error: " << cli.error << "\n";
    usage(std::cerr);
    return 2;
  }
  if (cli.check) check::set_enabled(true);

  std::string bench = "EKF-SLAM";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    } else if (arg.rfind("-", 0) == 0) {
      std::cerr << "unknown option '" << arg << "'\n";
      usage(std::cerr);
      return 2;
    } else {
      bench = arg;
    }
  }

  workloads::Workload wl;
  try {
    wl = workloads::make_benchmark(bench, 0.25);
  } catch (const ConfigError& e) {
    std::cerr << "error: " << e.what() << "\n";
    usage(std::cerr);
    return 2;
  }
  std::cout << "exploring design space for " << bench << " ("
            << wl.dfg.size() << " tasks/invocation, chaining degree "
            << dse::Table::num(wl.dfg.chaining_degree(), 2) << ")\n\n";

  // Every island count x network topology the paper evaluates, as one
  // flat request.
  std::vector<std::string> labels;
  dse::SweepRequest request;
  for (std::uint32_t islands : dse::paper_island_counts()) {
    for (const auto& cp : dse::paper_network_configs(islands)) {
      labels.push_back(std::to_string(islands) + " islands, " + cp.label);
      request.add(cp.config, wl);
    }
  }
  request.jobs = cli.jobs;

  dse::ResultCache cache(cli.cache_dir);
  if (!cli.cache_dir.empty()) {
    request.cache = &cache;
  }

  const auto t0 = std::chrono::steady_clock::now();
  const auto sweep = dse::run(request);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  struct Point {
    std::string label;
    dse::SweepResult sweep;
  };
  std::vector<Point> points;
  points.reserve(sweep.size());
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    points.push_back({labels[i], sweep[i]});
  }

  // Rank by performance.
  std::sort(points.begin(), points.end(), [](const Point& a, const Point& b) {
    return a.sweep.result.performance() > b.sweep.result.performance();
  });

  dse::Table t({"rank", "design point", "perf (inv/s)", "perf/energy",
                "perf/area", "islands mm2", "sim events", "sim wall s"});
  const double p0 = points.front().sweep.result.performance();
  const double e0 = points.front().sweep.result.perf_per_energy();
  const double a0 = points.front().sweep.result.perf_per_island_area();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& r = points[i].sweep.result;
    t.add_row({std::to_string(i + 1), points[i].label,
               dse::Table::num(r.performance() / p0, 3),
               dse::Table::num(r.perf_per_energy() / e0, 3),
               dse::Table::num(r.perf_per_island_area() / a0, 3),
               dse::Table::num(r.area.islands_mm2, 0),
               std::to_string(points[i].sweep.events),
               dse::Table::num(points[i].sweep.wall_seconds, 3)});
  }
  t.print(std::cout);

  double point_s = 0;
  std::uint64_t events = 0;
  std::size_t cached = 0;
  for (const auto& s : sweep) {
    point_s += s.wall_seconds;
    events += s.events;
    if (s.from_cache) ++cached;
  }
  const unsigned workers = dse::ParallelSweepExecutor(cli.jobs).jobs();
  std::cout << "\nswept " << sweep.size() << " design points ("
            << events << " simulator events) in "
            << dse::Table::num(wall_s, 2) << " s wall with "
            << workers << " worker(s); summed point time "
            << dse::Table::num(point_s, 2) << " s ("
            << dse::Table::num(wall_s > 0 ? point_s / wall_s : 0, 2)
            << "x effective parallelism)\n";
  if (request.cache != nullptr) {
    std::cout << "result cache (" << cli.cache_dir << "): " << cached << "/"
              << sweep.size() << " points restored ("
              << cache.disk_hits() << " from disk, "
              << cache.misses() << " simulated and stored)\n";
  }

  if (!cli.metrics_file.empty()) {
    std::vector<std::pair<std::string, const obs::MetricsSnapshot*>> labeled;
    labeled.reserve(points.size());
    for (const auto& p : points) {
      labeled.emplace_back(p.label, &p.sweep.metrics);
    }
    std::ofstream os(cli.metrics_file);
    if (!os) {
      std::cerr << "error: cannot write metrics to " << cli.metrics_file
                << "\n";
      return 1;
    }
    obs::MetricsExporter::write_labeled_json(os, labeled);
    std::cout << "per-point metrics written to " << cli.metrics_file << " ("
              << labeled.size() << " points)\n";
  }

  std::cout << "\n(the paper's chosen design — 24 islands, 2-ring 32B — "
               "balances all three metrics; see Sec. 5.8)\n";
  return 0;
}
