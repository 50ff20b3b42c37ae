// ara_perfbench command line. Normally started by perfbench/run.py, which
// builds it and passes the paths; see perfbench/README.md.
//
//   ara_perfbench --workload sweep|point|served --seed N --seconds S
//                 --trace 0|1 --digests FILE --serve ARA_SERVE
//                 [--commit SHA] [--source-digest HEX] [--corrupt-digests]
//   ara_perfbench --pin --digests FILE
//
// Trace and count files are written to the working directory. The driver
// runs each sweep or point unit in a child copy of itself (--child INDEX).
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "dse/result_cache.h"
#include "obs/json_io.h"
#include "perfbench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

/// Simulate every grid point at every pinned scale and write the table.
int pin(const std::string& path) {
  std::vector<GridPoint> points;
  for (const double scale : pinned_scales()) {
    const auto grid = grid_at(scale);
    points.insert(points.end(), grid.begin(), grid.end());
  }
  std::vector<std::string> lines(points.size());
  std::atomic<std::size_t> cursor{0};
  auto worker = [&]() {
    for (std::size_t i = cursor.fetch_add(1); i < points.size();
         i = cursor.fetch_add(1)) {
      const PointRun run = simulate_point(points[i], nullptr, i);
      char digest[20];
      std::snprintf(digest, sizeof digest, "%016llx",
                    static_cast<unsigned long long>(
                        entry_digest(run.entry_json)));
      lines[i] = points[i].label() + " " + digest + " " +
                 std::to_string(run.result.makespan);
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < std::max(1u, std::thread::hardware_concurrency());
       ++t) {
    pool.emplace_back(worker);
  }
  for (auto& t : pool) t.join();
  std::ofstream os(path, std::ios::trunc);
  os << "# Pinned FNV-1a digests of dse::ResultCache::to_json for every point\n"
        "# of the paper grid at each scale the benchmark simulates, with the\n"
        "# point's simulated makespan. Regenerate with\n"
        "# `python3 perfbench/run.py --pin` after a kSimVersionSalt bump.\n"
        "# scale benchmark islands network digest makespan\n"
     << "salt " << ara::dse::kSimVersionSalt << "\n";
  for (const auto& l : lines) os << l << "\n";
  std::cout << "pinned " << lines.size() << " points to " << path << "\n";
  return os ? 0 : 1;
}

std::string record_json(const Options& opt, const Report& report) {
  std::ostringstream os;
  os << "{\"workload\":\"" << opt.workload << "\",\"seed\":" << opt.seed
     << ",\"seconds\":" << opt.seconds << ",\"trace\":" << opt.trace
     << ",\"scales\":[";
  const auto scales = opt.workload == "sweep"   ? std::vector{kSweepScale}
                      : opt.workload == "point" ? std::vector{kPointScale}
                                                : served_scales();
  for (std::size_t i = 0; i < scales.size(); ++i) {
    os << (i > 0 ? "," : "") << scales[i];
  }
  os << "],\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\",\"compiler\":\""
     << PERFBENCH_COMPILER << "\",\"sim_version_salt\":"
     << ara::dse::kSimVersionSalt << ",\"git_commit\":\"" << opt.commit
     << "\",\"source_digest\":\"" << opt.source_digest
     << "\",\"bench.trace_overhead\":";
  if (report.has("bench.trace_overhead")) {
    ara::obs::json_number(os, report.get("bench.trace_overhead"), 6);
  } else {
    os << "null";
  }
  os << "}";
  return os.str();
}

/// Deterministic counts must repeat exactly between two runs of the same
/// sources: compare with the file an earlier run left, then replace it.
void check_counts(const Options& opt, const Report& report, Tally& tally) {
  std::ostringstream now;
  now << "source_digest " << opt.source_digest << "\n";
  for (const auto& [name, value] : report.counts) {
    now << name << " " << value << "\n";
  }
  std::ostringstream path;
  path << "counts-" << opt.workload << "-" << opt.seed << "-"
       << opt.seconds << ".txt";
  std::ifstream in(path.str());
  if (in) {
    std::stringstream before;
    before << in.rdbuf();
    const std::string prefix = "source_digest " + opt.source_digest + "\n";
    if (before.str().rfind(prefix, 0) == 0 && before.str() != now.str()) {
      tally.fail("deterministic counts differ from an earlier run of the "
                 "same sources (" + path.str() + ")");
    }
  }
  std::ofstream(path.str(), std::ios::trunc) << now.str();
}

int usage() {
  std::cerr << "usage: ara_perfbench --workload sweep|point|served --seed N "
               "--seconds S --trace 0|1 --digests FILE --serve ARA_SERVE\n"
               "       ara_perfbench --pin --digests FILE\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool pin_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--trace") {
        opt.trace = value() == "1";
      } else if (arg == "--digests") {
        opt.digests_path = value();
      } else if (arg == "--serve") {
        opt.serve_binary = value();
      } else if (arg == "--commit") {
        opt.commit = value();
      } else if (arg == "--source-digest") {
        opt.source_digest = value();
      } else if (arg == "--corrupt-digests") {
        opt.corrupt_digests = true;
      } else if (arg == "--child") {
        opt.child_index = std::stoull(value());
      } else if (arg == "--pin") {
        pin_mode = true;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      std::cerr << "bad value for " << arg << "\n";
      return 2;
    }
  }
  if (opt.digests_path.empty()) return usage();
  if (pin_mode) return pin(opt.digests_path);
  if (opt.workload != "sweep" && opt.workload != "point" &&
      opt.workload != "served") {
    return usage();
  }
  if (opt.seconds <= 0) return usage();

  DigestTable digests;
  std::string error;
  if (!digests.load(opt.digests_path, opt.corrupt_digests, &error)) {
    std::cerr << "perfbench: " << error << "\n";
    return 1;
  }

  Tally tally;
  Report report;
  Tracer tracer;
  Tracer* traced = opt.trace ? &tracer : nullptr;
  if (opt.child_index) {
    try {
      if (opt.workload == "sweep") {
        child_sweep(opt, digests, tally, traced);
      } else if (opt.workload == "point") {
        child_point(opt, digests, tally, traced);
      } else {
        return usage();
      }
    } catch (const std::exception& e) {
      std::cerr << "perfbench: " << opt.workload << " unit "
                << *opt.child_index << ": " << e.what() << "\n";
      return 1;
    }
    return 0;
  }
  try {
    if (opt.workload == "sweep") {
      sweep_workload(opt, digests, tally, report, traced);
    } else if (opt.workload == "point") {
      point_workload(opt, digests, tally, report, traced);
    } else {
      served_workload(opt, digests, tally, report, traced);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << ": " << e.what() << "\n";
    return 1;
  }
  if (opt.trace) check_counts(opt, report, tally);
  if (tally.attempted() == 0) {
    std::cerr << "perfbench: no operation was checked\n";
    return 1;
  }
  report.set("error_rate",
             static_cast<double>(tally.failed()) /
                 static_cast<double>(tally.attempted()),
             "fraction");

  const std::string record = record_json(opt, report);
  if (opt.trace) {
    const std::string path = "trace-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".json";
    if (!tracer.write(path, record)) {
      std::cerr << "perfbench: cannot write " << path << "\n";
    }
  }
  std::cout << "record " << record << "\n";
  std::cout << opt.workload << " seed " << opt.seed << ": "
            << tally.attempted() << " outputs checked, " << tally.failed()
            << " failed\n";
  report.print_lines();
  std::cout << "{\"correct\":" << (tally.failed() == 0 ? "true" : "false")
            << ",\"attempted\":" << tally.attempted()
            << ",\"failed\":" << tally.failed() << ",\"metrics\":"
            << report.json(opt.trace ? per_layer_metrics()
                                     : end_to_end_metrics())
            << "}" << std::endl;
  return 0;
}
