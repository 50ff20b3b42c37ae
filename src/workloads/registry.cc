#include "workloads/registry.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <sstream>

#include "common/config_error.h"
#include "dataflow/decomposer.h"
#include "dataflow/kernel_ir.h"

namespace ara::workloads {

namespace {

// Software (CMP) cost: cycles a single general-purpose core spends per
// element group on each ABB kind's worth of work (poly, divide, sqrt,
// power, sum), assuming moderately vectorized code (SSE-era: several
// flops/cycle) with cache misses and branches amortized. Each row's
// multiplier captures how much better or worse than that the
// application's software implementation behaves, fitted so the Fig. 10
// speedups land on the paper's values; Segmentation's level-set inner
// loop is dominated by transcendental calls and divergent branches, which
// is why Fig. 10 shows a 28.6X speedup for it while EKF-SLAM
// (BLAS-friendly dense linear algebra) only speeds up 1.8X.
constexpr std::array<double, abb::kNumAsicAbbKinds> kSwCyclesPerElement = {
    4.8, 3.6, 3.2, 14.0, 2.4};

/// Parallel efficiency of the software implementation on a CMP.
constexpr double kDefaultParallelEff = 0.80;

/// Rician denoise update, one output pixel per element:
///   g  = sqrt(sum of squared neighbour differences)   (gradient magnitude)
///   w  = u / (g + eps)                                 (edge weight)
///   r  = poly(u, f)                                    (fidelity correction)
///   out = w * r + neighbour average                    (update)
dataflow::KernelIr denoise_kernel() {
  dataflow::KernelIr ir("DenoiseIR", 384);
  const auto u = ir.input();
  const auto f = ir.input();
  const auto n0 = ir.input();
  const auto n1 = ir.input();
  const auto eps = ir.constant();

  const auto d0 = ir.binary(dataflow::IrOp::kSub, u, n0);
  const auto d1 = ir.binary(dataflow::IrOp::kSub, u, n1);
  const auto s0 = ir.binary(dataflow::IrOp::kMul, d0, d0);
  const auto s1 = ir.binary(dataflow::IrOp::kMul, d1, d1);
  const auto ss = ir.binary(dataflow::IrOp::kAdd, s0, s1);
  const auto g = ir.unary(dataflow::IrOp::kSqrt, ss);
  const auto gd = ir.binary(dataflow::IrOp::kAdd, g, eps);
  const auto wgt = ir.binary(dataflow::IrOp::kDiv, u, gd);
  const auto r0 = ir.binary(dataflow::IrOp::kMul, u, f);
  const auto r1 = ir.binary(dataflow::IrOp::kAdd, r0, f);
  const auto upd = ir.binary(dataflow::IrOp::kMul, wgt, r1);
  const auto avg = ir.binary(dataflow::IrOp::kAdd, n0, n1);
  const auto out = ir.binary(dataflow::IrOp::kAdd, upd, avg);
  ir.mark_output(out);
  return ir;
}

enum class Suite { kPaper, kOutOfDomain, kCompiled };

struct Benchmark {
  const char* name;
  Suite suite;
  /// Generator knobs; fields not written take DfgGenParams' defaults.
  DfgGenParams params;
  /// Software slowdown over kSwCyclesPerElement (dimensionless).
  double sw_mult;
  /// Kernel launches at scale 1.0.
  std::uint32_t invocations;
  /// When set, the DFG is this kernel through the Decomposer instead of
  /// generate_dfg(params).
  dataflow::KernelIr (*kernel)() = nullptr;
};

// The paper's medical-imaging (Deblur, Denoise, Segmentation, Registration;
// the CDSC driver applications [11]) and navigation (Robot Localization,
// EKF-SLAM, Disparity Map; CHARM/CAMEL [8, 9]) benchmarks in Figs. 7-10
// order, then CAMEL's out-of-domain set [9], whose fabric_fraction marks the
// tasks whose op is outside the ABB library.
constexpr Benchmark kBenchmarks[] = {
    // Total-variation deblurring: poly-dominated stencil updates with
    // moderate chaining (gradient -> update pipelines).
    {"Deblur", Suite::kPaper,
     {.tasks = 14, .chain_fraction = 0.35, .branch_prob = 0.12,
      .kind_weights = {0.70, 0.10, 0.08, 0.04, 0.08}, .elements = 1536,
      .seed = 0xDEB1},
     0.64, 120},
    // Rician denoising: mostly independent per-tile polynomial evaluation,
    // the paper's low-chaining example.
    {"Denoise", Suite::kPaper,
     {.chain_fraction = 0.10, .branch_prob = 0.05,
      .kind_weights = {0.75, 0.08, 0.06, 0.03, 0.08}, .elements = 1536,
      .seed = 0xDE01},
     1.11, 132},
    // Level-set segmentation: divide/sqrt-heavy with long chained
    // pipelines (Sec. 5.5), the biggest winner vs. software (28.6X).
    {"Segmentation", Suite::kPaper,
     {.tasks = 20, .chain_fraction = 0.60, .branch_prob = 0.15,
      .kind_weights = {0.42, 0.24, 0.16, 0.10, 0.08}, .elements = 1280,
      .chain_words = 2, .seed = 0x5E61},
     11.0, 108},
    // Image registration: polynomial + power (mutual-information style)
    // with moderate chaining.
    {"Registration", Suite::kPaper,
     {.tasks = 16, .chain_fraction = 0.40,
      .kind_weights = {0.58, 0.10, 0.08, 0.16, 0.08}, .elements = 1536,
      .seed = 0x4E61},
     1.22, 120},
    // Particle-filter robot localization: divide-heavy weight updates with
    // substantial chaining.
    {"RobotLocalization", Suite::kPaper,
     {.tasks = 14, .chain_fraction = 0.55, .branch_prob = 0.12,
      .kind_weights = {0.40, 0.28, 0.12, 0.08, 0.12}, .elements = 1280,
      .chain_words = 2, .seed = 0x40B0},
     0.69, 120},
    // EKF-SLAM: long chained linear-algebra pipelines, the paper's
    // heavy-chaining example.
    {"EKF-SLAM", Suite::kPaper,
     {.tasks = 18, .chain_fraction = 0.70, .branch_prob = 0.18,
      .kind_weights = {0.46, 0.20, 0.10, 0.08, 0.16}, .elements = 1152,
      .chain_words = 2, .seed = 0xEF51},
     0.56, 120},
    // Disparity-map stereo matching: sum/poly window correlation, light
    // chaining.
    {"DisparityMap", Suite::kPaper,
     {.branch_prob = 0.08, .kind_weights = {0.52, 0.08, 0.06, 0.04, 0.30},
      .elements = 1664, .seed = 0xD15A},
     1.39, 132},
    // Local-polar-coordinate image descriptor: polynomial resampling with
    // log-polar trigonometric transforms on the fabric.
    {"LPCIP", Suite::kOutOfDomain,
     {.tasks = 14, .chain_fraction = 0.45,
      .kind_weights = {0.60, 0.14, 0.10, 0.06, 0.10}, .elements = 1280,
      .fabric_fraction = 0.15, .seed = 0x10C1},
     1.1, 120},
    // Texture synthesis: neighbourhood matching with exotic distance
    // kernels.
    {"TextureSynthesis", Suite::kOutOfDomain,
     {.tasks = 16, .chain_fraction = 0.40, .branch_prob = 0.12,
      .kind_weights = {0.50, 0.12, 0.08, 0.10, 0.20}, .elements = 1408,
      .head_input_streams = 4, .fabric_fraction = 0.25, .seed = 0x7E87},
     1.3, 110},
    // Black-Scholes option pricing: exp/log-heavy, with a CDF
    // approximation outside the library.
    {"BlackScholes", Suite::kOutOfDomain,
     {.chain_fraction = 0.55, .branch_prob = 0.08,
      .kind_weights = {0.34, 0.16, 0.12, 0.28, 0.10}, .elements = 1536,
      .fabric_fraction = 0.30, .seed = 0xB5C0},
     1.5, 130},
    // Denoise authored as KernelIr and covered by the Decomposer: the
    // compiler path end to end, at Denoise's software cost.
    {"DenoiseIR", Suite::kCompiled, {}, 1.11, 220, denoise_kernel},
};

std::vector<std::string> names_of(Suite suite) {
  std::vector<std::string> names;
  for (const Benchmark& b : kBenchmarks) {
    if (b.suite == suite) names.emplace_back(b.name);
  }
  return names;
}

/// The row's invocation count at `scale`, at least one.
std::uint32_t scaled_invocations(const Benchmark& b, double scale) {
  const double n = std::round(b.invocations * scale);
  if (!(std::isfinite(scale) && scale > 0 && n <= UINT32_MAX)) {
    std::ostringstream os;
    os << "benchmark '" << b.name << "': scale must be finite and > 0 with "
       << "at most " << UINT32_MAX << " invocations, got " << scale;
    throw ConfigError(os.str());
  }
  return std::max<std::uint32_t>(1, static_cast<std::uint32_t>(n));
}

}  // namespace

const std::vector<std::string>& benchmark_names() {
  static const std::vector<std::string> names = names_of(Suite::kPaper);
  return names;
}

const std::vector<std::string>& out_of_domain_names() {
  static const std::vector<std::string> names = names_of(Suite::kOutOfDomain);
  return names;
}

Workload make_benchmark(const std::string& name, double scale) {
  const Benchmark* b = std::find_if(
      std::begin(kBenchmarks), std::end(kBenchmarks),
      [&](const Benchmark& row) { return name == row.name; });
  if (b == std::end(kBenchmarks)) {
    throw ConfigError("unknown benchmark '" + name + "'");
  }
  Workload w;
  w.name = name;
  w.invocations = scaled_invocations(*b, scale);
  w.dfg = b->kernel != nullptr
              ? dataflow::Decomposer(/*allow_fabric=*/false)
                    .decompose(b->kernel())
                    .dfg
              : generate_dfg(w.name, b->params);
  w.concurrency = 48;
  w.buffer_rotation = 4;
  w.cmp_cycles_per_invocation =
      software_cycles_per_invocation(w.dfg, b->sw_mult);
  w.cmp_parallel_eff = kDefaultParallelEff;
  return w;
}

double software_cycles_per_invocation(const dataflow::Dfg& dfg,
                                      double sw_multiplier) {
  double cycles = 0.0;
  for (const auto& n : dfg.nodes()) {
    const auto k = static_cast<std::size_t>(n.kind);
    cycles += static_cast<double>(n.elements) * kSwCyclesPerElement[k];
  }
  return cycles * sw_multiplier;
}

}  // namespace ara::workloads
