// Shared helpers for the figure/table reproduction benches.
//
// Every bench binary prints the paper artifact it regenerates (same rows /
// series the paper reports, normalized the same way) and exits; host time
// is measured by perfbench/, not here. ARA_BENCH_SCALE (env) scales
// workload invocation counts; default 0.5 keeps full-suite runtime
// moderate while leaving steady-state behaviour unchanged. The shared
// flags — `--jobs N` (sweep workers), `--metrics F` (stat-registry
// export), `--cache DIR` (on-disk result memoization) and `--check`
// (invariant checking), each with an ARA_* env fallback — are parsed once
// by parse_cli() via common::CliOptions, which rejects any other argument.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "check/check.h"
#include "common/cli_options.h"
#include "dse/parallel_sweep.h"
#include "dse/result_cache.h"
#include "dse/sweep.h"
#include "obs/metrics_export.h"
#include "workloads/registry.h"

namespace ara::benchutil {

inline double bench_scale() {
  if (const char* s = std::getenv("ARA_BENCH_SCALE")) {
    const double v = std::atof(s);
    if (v > 0) return v;
  }
  return 0.5;
}

namespace detail {
inline std::optional<dse::ResultCache>& cache_storage() {
  static std::optional<dse::ResultCache> cache;
  return cache;
}
}  // namespace detail

/// The process-wide ResultCache behind --cache / ARA_CACHE; null until
/// parse_cli sees the flag (memoization off).
inline dse::ResultCache* sweep_cache() {
  auto& c = detail::cache_storage();
  return c.has_value() ? &*c : nullptr;
}

/// Parse the shared bench flags (--jobs / --metrics / --cache / --check,
/// with ARA_* env fallbacks) before any simulation runs. A --cache
/// directory activates sweep_cache(); --check arms the invariant checker on
/// every simulated System. `--help` prints the flags and exits 0; a
/// malformed value or any other argument exits 2.
inline common::CliOptions parse_cli(int argc, char** argv) {
  constexpr unsigned kAccept =
      common::CliOptions::kJobs | common::CliOptions::kMetrics |
      common::CliOptions::kCache | common::CliOptions::kCheck;
  auto opts = common::CliOptions::parse(argc, argv, kAccept);
  if (!opts.ok()) {
    std::cerr << "error: " << opts.error << "\n";
    std::exit(2);
  }
  if (argc > 1) {
    const std::string_view arg = argv[1];
    if (arg == "--help") {
      std::cout << "usage: " << argv[0] << " [options]\n"
                << common::CliOptions::help(kAccept);
      std::exit(0);
    }
    std::cerr << "error: unknown argument '" << arg << "'\n"
              << common::CliOptions::help(kAccept);
    std::exit(2);
  }
  if (!opts.cache_dir.empty()) {
    detail::cache_storage().emplace(opts.cache_dir);
  }
  if (opts.check) check::set_enabled(true);
  return opts;
}

/// Process-wide sink behind the --metrics flag: figure code records labeled
/// stat-registry snapshots as it runs design points, and main() exports the
/// collection once as labeled JSON ({"points":[{"label":..,"metrics":..}]}).
class MetricsSink {
 public:
  static MetricsSink& instance() {
    static MetricsSink sink;
    return sink;
  }

  void record(std::string label, obs::MetricsSnapshot snapshot) {
    points_.emplace_back(std::move(label), std::move(snapshot));
  }

  /// Record every point of a sweep; labels and results are parallel (points
  /// beyond the label list get positional names).
  void record_sweep(const std::vector<std::string>& labels,
                    const std::vector<dse::SweepResult>& results) {
    for (std::size_t i = 0; i < results.size(); ++i) {
      record(i < labels.size() ? labels[i] : "point " + std::to_string(i),
             results[i].metrics);
    }
  }

  /// Write everything recorded so far to `path`. No-op when `path` is empty
  /// (the flag was not given); an empty sink still writes valid JSON.
  void export_to(const std::string& path) const {
    if (path.empty()) return;
    std::vector<std::pair<std::string, const obs::MetricsSnapshot*>> pts;
    pts.reserve(points_.size());
    for (const auto& p : points_) pts.emplace_back(p.first, &p.second);
    std::ofstream os(path);
    if (!os) {
      std::cerr << "[metrics] cannot write " << path << "\n";
      return;
    }
    obs::MetricsExporter::write_labeled_json(os, pts);
    std::cout << "[metrics] " << pts.size() << " point snapshot(s) -> "
              << path << "\n";
  }

 private:
  std::vector<std::pair<std::string, obs::MetricsSnapshot>> points_;
};

/// Single-point dse::run that records the point's registry snapshot into
/// the MetricsSink under `label` and memoizes through sweep_cache() when
/// --cache is active.
inline core::RunResult metered_point(const std::string& label,
                                     const core::ArchConfig& config,
                                     const workloads::Workload& workload) {
  auto results = dse::run(
      dse::SweepRequest{}.add(config, workload).with_cache(sweep_cache()));
  MetricsSink::instance().record(label, std::move(results.front().metrics));
  return std::move(results.front().result);
}

/// Simple wall-clock stopwatch for sweep observability.
class WallTimer {
 public:
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

/// One-line observability summary for a parallel sweep run with `jobs`
/// (0 = hardware concurrency): how many points, the wall-clock of the
/// whole sweep vs the summed per-point wall time. Their ratio is the
/// average number of points in flight (effective parallelism); it matches
/// the realized speedup when workers get dedicated cores, and overstates it
/// on an oversubscribed machine.
inline void print_sweep_stats(const std::vector<dse::SweepResult>& results,
                              double sweep_wall_s, unsigned jobs) {
  double point_s = 0;
  std::uint64_t events = 0;
  std::size_t cached = 0;
  for (const auto& r : results) {
    point_s += r.wall_seconds;
    events += r.events;
    if (r.from_cache) ++cached;
  }
  std::cout << "[sweep] " << results.size() << " points, " << events
            << " events, jobs=" << dse::ParallelSweepExecutor(jobs).jobs()
            << ": " << sweep_wall_s
            << " s wall vs " << point_s << " s summed point time ("
            << (sweep_wall_s > 0 ? point_s / sweep_wall_s : 0)
            << "x effective parallelism)\n";
  if (cached > 0) {
    std::cout << "[sweep] " << cached << "/" << results.size()
              << " points served from the result cache\n";
  }
}

/// The 70-point matrix behind Figs. 7, 8 and 9, which each report a
/// different metric of it: every paper benchmark at 3 and 24 islands on
/// each of the five paper networks. Results are island-count-major, then
/// benchmark (`workloads` order), then network (dse::paper_network_configs
/// order).
struct NetworkMatrix {
  static constexpr std::array<std::uint32_t, 2> kIslandCounts = {3, 24};
  /// One workload per workloads::benchmark_names() entry, at bench_scale().
  std::vector<workloads::Workload> workloads;
  std::vector<dse::SweepResult> results;
};

/// Simulate the NetworkMatrix on `jobs` workers (through sweep_cache()),
/// print the [sweep] summary and record every point in the MetricsSink.
inline NetworkMatrix run_network_matrix(unsigned jobs) {
  NetworkMatrix m;
  for (const auto& name : workloads::benchmark_names()) {
    m.workloads.push_back(workloads::make_benchmark(name, bench_scale()));
  }
  dse::SweepRequest request;
  std::vector<std::string> labels;
  for (std::uint32_t islands : NetworkMatrix::kIslandCounts) {
    const auto points = dse::paper_network_configs(islands);
    for (const auto& wl : m.workloads) {
      for (const auto& p : points) {
        request.sweep.push_back({p.config, &wl});
        labels.push_back(wl.name + ", " + p.label + ", " +
                         std::to_string(islands) + " islands");
      }
    }
  }
  request.jobs = jobs;
  request.cache = sweep_cache();
  const WallTimer timer;
  m.results = dse::run(request);
  print_sweep_stats(m.results, timer.seconds(), jobs);
  MetricsSink::instance().record_sweep(labels, m.results);
  return m;
}

inline double norm(double value, double base) {
  return base == 0 ? 0.0 : value / base;
}

inline void print_header(const std::string& artifact,
                         const std::string& paper_summary) {
  std::cout << "==============================================================\n"
            << "Reproduction of " << artifact << "\n"
            << "Paper reports: " << paper_summary << "\n"
            << "==============================================================\n";
}

}  // namespace ara::benchutil
