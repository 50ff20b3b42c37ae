// Workload: a benchmark expressed as an ABB flow graph plus invocation
// parameters and a software (CMP) cost profile.
//
// The paper's workloads come from the Medical Imaging pipeline (Deblur,
// Denoise, Segmentation, Registration) and the Navigation domain (Robot
// Localization, EKF-SLAM, Disparity Map), described in [6, 8, 9]. The
// originals are proprietary CDSC applications; here each benchmark is one
// row of generator knobs (ABB mix, chaining degree, data volumes, software
// cost) in the table of workloads/registry.cc, calibrated to reproduce the
// paper's relative behaviour. See DESIGN.md Sec. 2 for the substitution
// rationale.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "abb/abb_types.h"
#include "common/types.h"
#include "dataflow/dfg.h"

namespace ara::workloads {

struct Workload {
  std::string name;
  dataflow::Dfg dfg;
  /// Kernel launches over the whole run (e.g. tiles x frames).
  std::uint32_t invocations = 100;
  /// Kernel launches in flight at once (tile-level parallelism).
  std::uint32_t concurrency = 16;
  /// Distinct input tile buffers rotated across invocations; controls the
  /// L2-resident working set (smaller => more reuse).
  std::uint32_t buffer_rotation = 8;

  /// --- software (CMP) cost profile, for the Fig. 10 comparison ---
  /// Cycles one CMP core spends per kernel invocation.
  double cmp_cycles_per_invocation = 1e6;
  /// Parallel efficiency on a multicore (Amdahl + memory effects).
  double cmp_parallel_eff = 0.8;
};

/// Structural knobs for the statistical DFG generators.
struct DfgGenParams {
  std::uint32_t tasks = 12;
  /// Target fraction of nodes with a chained producer (the paper's "amount
  /// of ABB chaining"); realized degree is within a few percent.
  double chain_fraction = 0.3;
  /// Probability that a chain step branches into two consumers.
  double branch_prob = 0.1;
  /// ABB kind weights (poly/divide/sqrt/power/sum).
  std::array<double, abb::kNumAsicAbbKinds> kind_weights{
      {0.65, 0.15, 0.075, 0.05, 0.075}};
  /// Mean element groups streamed per task (+/- 25% jitter).
  std::uint64_t elements = 384;
  /// Compute sweeps over the streamed tile (iterative kernels re-process
  /// SPM-resident data; raises compute per byte moved).
  std::uint32_t compute_iterations = 1;
  /// Words per element carried over each chain edge (vector-valued
  /// intermediates make chaining traffic heavier, e.g. EKF covariance
  /// pipelines).
  std::uint32_t chain_words = 1;
  /// Streamed operand arrays read from memory by a chain-head task.
  std::uint32_t head_input_streams = 3;
  /// Extra streamed operand arrays read by a chained (non-head) task.
  std::uint32_t chained_input_streams = 1;
  /// Fraction of tasks whose op falls outside the ABB library and needs the
  /// CAMEL programmable fabric (0 for the in-domain benchmarks).
  double fabric_fraction = 0.0;
  /// Generator seed (fixed per benchmark for determinism).
  std::uint64_t seed = 1;
};

/// Build a DFG with the requested structure. Deterministic for a given
/// params value.
dataflow::Dfg generate_dfg(const std::string& name, const DfgGenParams& p);

}  // namespace ara::workloads
