// ara::check fuzzing layer: deterministic generation of random-but-valid
// (ArchConfig, Workload) points and the differential cross-check each point
// is subjected to. Shared between tools/ara_fuzz (the command-line fuzzer,
// which adds seed minimization and repro files) and the fuzz-labeled test
// suites (property_test.cc), so both drive the identical corpus.
#pragma once

#include <cstdint>
#include <string>

#include "core/arch_config.h"
#include "workloads/workload.h"

namespace ara::check {

/// Upper bounds on the sampled design space. The defaults define the fuzz
/// corpus; the minimizer tightens them to shrink a failing seed while
/// keeping generation deterministic (same seed + same limits = same point).
struct FuzzLimits {
  std::uint32_t max_islands = 12;
  std::uint32_t max_tasks = 12;
  std::uint32_t max_invocations = 16;
};

/// One generated design point: a validated ArchConfig plus a workload whose
/// DFG was grown from the same seed.
struct FuzzPoint {
  std::uint64_t seed = 0;
  core::ArchConfig config;
  workloads::Workload workload;
};

/// Deterministically sample a valid point from `seed`. Covers topology
/// (proxy/chaining crossbars, 1-3 rings, 16/32B links), SPM sharing and
/// porting, NoC bandwidths, programmable-fabric tasks, GAM policies and
/// window sizes, composable/per-task/monolithic execution, and randomized
/// DFG structure. The returned config always passes ArchConfig::validate().
FuzzPoint generate_point(std::uint64_t seed, const FuzzLimits& limits = {});

/// Run the point's full differential cross-check with invariants enabled:
/// three replicas of the point swept at jobs 1, 2 and 8 must produce
/// bit-identical RunResult / MetricsSnapshot / event counts, and a
/// cached-vs-fresh pair through a ResultCache must restore the same bits
/// with from_cache set. Returns an empty string on success, else a
/// description of the first divergence or invariant violation.
std::string cross_check(const FuzzPoint& point);

/// Human-readable repro file contents for a failing seed: the seed and
/// limits to regenerate the point, the failure, and the canonical config /
/// workload text the cache digest is built from.
std::string repro_text(const FuzzPoint& point, const FuzzLimits& limits,
                       const std::string& failure);

}  // namespace ara::check
