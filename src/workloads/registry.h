// Benchmark registry: every named workload is one row of a table in
// registry.cc, and make_benchmark() is the one way to build it.
#pragma once

#include <string>
#include <vector>

#include "workloads/workload.h"

namespace ara::workloads {

/// The paper's benchmark order (Figs. 7-10): Deblur, Denoise, Segmentation,
/// Registration, Robot Localization, EKF-SLAM, Disparity Map.
const std::vector<std::string>& benchmark_names();

/// CAMEL's out-of-domain set [9]: LPCIP, TextureSynthesis, BlackScholes.
/// Some of their ops fall outside the ABB library, so they need islands
/// with programmable-fabric blocks.
const std::vector<std::string>& out_of_domain_names();

/// Construct a benchmark by name: one of benchmark_names(),
/// out_of_domain_names() or "DenoiseIR" (Denoise compiled from KernelIr
/// through the Decomposer). `scale` multiplies the invocation count
/// (1.0 = default experiment size). Throws ConfigError for an unknown name,
/// and for a scale that is not finite and > 0 or whose invocation count
/// does not fit in 32 bits.
Workload make_benchmark(const std::string& name, double scale = 1.0);

/// Single-core software cycles for one invocation of `dfg` given a
/// per-benchmark multiplier.
double software_cycles_per_invocation(const dataflow::Dfg& dfg,
                                      double sw_multiplier);

}  // namespace ara::workloads
