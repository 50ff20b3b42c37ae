// ara_sim: command-line front end to the simulator — pick a benchmark and
// a design point, run it, and get the report (optionally a CSV row and a
// Chrome trace). This is the "just let me try a configuration" entry point
// a downstream user reaches for first.
//
// Usage:
//   ara_sim [--bench NAME] [--islands N] [--net ring|proxy|chain]
//           [--rings N] [--width BYTES] [--ports 1|2] [--sharing]
//           [--scale F] [--mono] [--csv] [--trace FILE] [--metrics FILE]
//           [--offline N] [--list]
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "check/check.h"
#include "common/cli_options.h"
#include "common/config_error.h"
#include "core/arch_config.h"
#include "core/system.h"
#include "dse/report.h"
#include "dse/spec.h"
#include "dse/table.h"
#include "obs/metrics_export.h"
#include "workloads/registry.h"

namespace {

void usage() {
  std::cout <<
      "ara_sim — accelerator-rich architecture simulator\n"
      "  --bench NAME     benchmark (default Denoise); --list shows all\n"
      "  --islands N      island count, must divide 120 (default 24)\n"
      "  --net KIND       ring | proxy | chain (default ring)\n"
      "  --rings N        rings for --net ring (default 2)\n"
      "  --width BYTES    link width 16|32|64 (default 32)\n"
      "  --ports M        SPM port multiplier 1|2 (default 1)\n"
      "  --sharing        enable neighbour SPM sharing\n"
      "  --mono           ARC-style monolithic accelerators\n"
      "  --offline N      take islands 0..N-1 offline before the run\n"
      "                   (islands N and up must hold a block of every\n"
      "                   kind the benchmark uses)\n"
      "  --scale F        invocation scale factor (default 0.25)\n"
      "  --csv            print the result as a CSV row\n"
      << ara::common::CliOptions::help(ara::common::CliOptions::kMetrics)
      << "                   (a FILE ending in .csv gets CSV instead)\n"
      << ara::common::CliOptions::help(ara::common::CliOptions::kTrace |
                                       ara::common::CliOptions::kCheck);
}

/// The name of a block kind some task of `dfg` runs on that no island
/// from `first` up has, or nullptr when every task has one.
const char* missing_kind(ara::core::System& system,
                         const ara::dataflow::Dfg& dfg, std::uint32_t first) {
  for (const auto& node : dfg.nodes()) {
    bool found = false;
    for (std::size_t i = first; i < system.island_count() && !found; ++i) {
      const auto& isl = system.island(static_cast<ara::IslandId>(i));
      for (ara::AbbId a = 0; a < isl.num_abbs() && !found; ++a) {
        const auto& e = isl.engine(a);
        found = node.needs_fabric
                    ? e.is_fabric()
                    : !e.is_fabric() && e.kind() == node.kind;
      }
    }
    if (!found) {
      return node.needs_fabric ? "fabric" : ara::abb::kind_name(node.kind);
    }
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ara;

  const auto cli = common::CliOptions::parse(
      argc, argv,
      common::CliOptions::kTrace | common::CliOptions::kMetrics |
          common::CliOptions::kCheck);
  if (!cli.ok()) {
    std::cerr << "error: " << cli.error << "\n";
    return 2;
  }
  check::set_enabled(cli.check);
  const std::string& trace_file = cli.trace_file;
  const std::string& metrics_file = cli.metrics_file;

  // Design-point knobs accumulate into a dse::PointSpec — the shared spec
  // module whose defaults and to_config() the serve protocol uses too, so
  // a CLI run of these flags is the same design point (and the same bits)
  // as a served point of the same spec.
  std::string bench = "Denoise";
  dse::PointSpec spec;
  double scale = 0.25;
  bool csv = false;
  std::uint32_t offline = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        exit(2);
      }
      return argv[++i];
    };
    auto count = [&](std::uint64_t max) -> std::uint64_t {
      const std::string value = next();
      std::uint64_t v = 0;
      if (!common::parse_unsigned(value, max, &v)) {
        std::cerr << arg << ": expected an integer from 0 to " << max
                  << ", got '" << value << "'\n";
        exit(2);
      }
      return v;
    };
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (arg == "--list") {
      for (const auto& n : workloads::benchmark_names()) {
        std::cout << n << "\n";
      }
      return 0;
    } else if (arg == "--bench") {
      bench = next();
    } else if (arg == "--islands") {
      spec.islands = static_cast<std::uint32_t>(count(UINT32_MAX));
    } else if (arg == "--net") {
      spec.net = next();
    } else if (arg == "--rings") {
      spec.rings = static_cast<std::uint32_t>(count(UINT32_MAX));
    } else if (arg == "--width") {
      spec.link_bytes = count(UINT64_MAX);
    } else if (arg == "--ports") {
      spec.ports = static_cast<std::uint32_t>(count(UINT32_MAX));
    } else if (arg == "--sharing") {
      spec.sharing = true;
    } else if (arg == "--mono") {
      spec.mono = true;
    } else if (arg == "--offline") {
      offline = static_cast<std::uint32_t>(count(UINT32_MAX));
    } else if (arg == "--scale") {
      const std::string value = next();
      if (!common::parse_scale(value, &scale)) {
        std::cerr << "--scale: scale must be finite and > 0, got '" << value
                  << "'\n";
        return 2;
      }
    } else if (arg == "--csv") {
      csv = true;
    } else {
      std::cerr << "unknown option '" << arg << "' (see --help)\n";
      return 2;
    }
  }

  core::ArchConfig cfg;
  workloads::Workload wl;
  try {
    cfg = spec.to_config();
    wl = workloads::make_benchmark(bench, scale);
  } catch (const ConfigError& e) {
    // Bad knob value (unknown benchmark or net name, or a scale
    // make_benchmark rejects) is a usage error, same as an unknown flag.
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  cfg.trace_enabled = !trace_file.empty();

  try {
    core::System system(cfg);
    // A task whose block kind is on no online island can never be placed,
    // so its job would never finish: reject the count before simulating.
    if (const char* kind = missing_kind(system, wl.dfg, offline)) {
      std::cerr << "--offline " << offline << " leaves no online " << kind
                << " block, which " << bench << " uses\n";
      return 2;
    }
    for (std::uint32_t i = 0; i < offline; ++i) {
      system.composer().set_island_offline(i, true);
    }
    const auto r = system.run(wl);

    if (csv) {
      dse::Table t({"benchmark", "config", "makespan_cycles", "perf_inv_s",
                    "energy_mj", "islands_mm2", "avg_util", "l2_hit",
                    "chains_direct", "chains_spilled"});
      t.add_row({wl.name, r.config, std::to_string(r.makespan),
                 dse::Table::num(r.performance(), 1),
                 dse::Table::num(r.energy.total() * 1e3, 3),
                 dse::Table::num(r.area.islands_mm2, 1),
                 dse::Table::num(r.avg_abb_utilization, 4),
                 dse::Table::num(r.l2_hit_rate, 4),
                 std::to_string(r.chains_direct),
                 std::to_string(r.chains_spilled)});
      t.print_csv(std::cout);
    } else {
      dse::SystemReport(system, r).print(std::cout);
    }
    if (const auto* checker = system.checker()) {
      // Under --csv, stdout stays one CSV table.
      (csv ? std::cerr : std::cout) << "invariant checker: "
                                    << checker->checks_passed()
                                    << " checks passed\n";
    }

    if (!trace_file.empty()) {
      std::ofstream os(trace_file);
      system.write_trace(os);
      std::cerr << "trace written to " << trace_file << " ("
                << system.trace().size() << " events";
      if (system.trace().dropped() > 0) {
        std::cerr << ", " << system.trace().dropped() << " dropped";
      }
      std::cerr << ")\n";
    }
    if (!metrics_file.empty()) {
      const auto snap = obs::MetricsSnapshot::capture(system.stats());
      if (!obs::MetricsExporter::write_file(metrics_file, snap)) {
        std::cerr << "error: cannot write metrics to " << metrics_file << "\n";
        return 1;
      }
      std::cerr << "metrics written to " << metrics_file << " ("
                << snap.counters.size() << " counters, "
                << snap.histograms.size() << " histograms)\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
