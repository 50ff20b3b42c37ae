// dse::search — budget-bounded autotuning over the design space, built on
// dse::run so every candidate evaluation flows through the shared
// ResultCache / PointCoalescer (repeated and overlapping searches get
// measurably cheaper, and a served search reuses sweep traffic's warmth).
//
// The optimizer is deterministic by construction: candidate selection is a
// pure function of (seed, space, budget) — the budget bounds *evaluations*,
// never simulations, so cache warmth changes how much work an evaluation
// costs but never which candidates are chosen. Same spec => byte-identical
// SearchResult deterministic block (search_result_json) across reruns,
// worker counts, and cold/warm caches; only the telemetry fields
// (simulated / cache_hits / coalesced / wall_seconds) vary with warmth.
//
// Algorithm (see DESIGN.md "Autotuning search"):
//   1. If the budget covers the whole space, evaluate it exhaustively at
//      full fidelity (grid mode) — the search result is then exact.
//   2. Otherwise successive halving: sample N0 distinct candidates from a
//      seeded sim::Rng stream, evaluate them at reduced workload scale,
//      keep the top half, re-evaluate at doubled scale, ... until full
//      fidelity.
//   3. Local refinement: hill-climb from the incumbent over
//      dimension-adjacent neighbours at full fidelity until the budget is
//      spent or no neighbour improves the objective.
// The Pareto frontier (performance / perf-per-energy / perf-per-area, all
// maximized) is computed over every full-fidelity evaluation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dse/spec.h"
#include "obs/span.h"

namespace ara::dse {

class ResultCache;
class PointCoalescer;

/// The candidate space: one value list per PointSpec knob; the space is
/// their cross product. Defaults cover the paper's sweep axes (Figs. 6-9:
/// island counts x ring counts x link widths x SPM porting/sharing).
/// Duplicate values in a list are ignored (first occurrence wins).
struct SearchSpace {
  std::vector<std::uint32_t> islands = {3, 6, 12, 24};
  std::vector<std::string> nets = {"ring"};
  std::vector<std::uint32_t> rings = {1, 2, 3};
  std::vector<std::uint64_t> widths = {16, 32};
  std::vector<std::uint32_t> ports = {1, 2};
  std::vector<bool> sharing = {false, true};
  std::vector<bool> mono = {false};
  std::vector<std::string> policies = {"fifo"};

  /// Copy with each list deduplicated in first-occurrence order.
  SearchSpace normalized() const;
  /// Number of distinct design points (product of deduplicated lists).
  std::uint64_t size() const;
};

/// What "best" means; all objectives are maximized.
enum class Objective {
  kPerf,           // invocations per second (Fig. 6)
  kPerfPerEnergy,  // (inv/s)/J (Fig. 8)
  kPerfPerArea,    // (inv/s)/mm^2 of island area (Fig. 9)
};

const char* objective_name(Objective o);
/// False (out untouched) for an unknown name.
bool objective_from_name(const std::string& name, Objective* out);

/// One search problem. Everything that defines the deterministic result
/// lives here; execution resources (jobs/cache/coalescer) live on
/// SearchRequest.
struct SearchSpec {
  std::string workload;              // benchmark name
  double scale = 0.25;               // full-fidelity invocation scale
  SearchSpace space;
  Objective objective = Objective::kPerf;
  std::uint64_t budget = 16;         // max evaluations (simulation slots)
  std::uint64_t seed = 1;            // sampler seed
  /// Throws ConfigError on an empty/degenerate problem: no workload,
  /// budget 0, non-positive scale, an empty dimension list, or a
  /// dimension value to_config/validate rejects.
  void validate() const;
};

/// SearchSpec plus the execution resources, mirroring SweepRequest.
struct SearchRequest {
  SearchSpec spec;
  /// Worker threads per evaluation round; any value produces bit-identical
  /// results (the candidate schedule never depends on it).
  unsigned jobs = 1;
  ResultCache* cache = nullptr;          // borrowed, optional
  PointCoalescer* coalescer = nullptr;   // borrowed, optional
  /// Optional trace: search charges optimizer rounds to the sample /
  /// halve / refine spans and counts per-evaluation outcomes. Its inner
  /// dse::run calls are deliberately untraced so no interval is counted
  /// twice. Pure observability.
  obs::RequestTrace* trace = nullptr;
};

/// One fully-evaluated design point (full-fidelity metrics).
struct SearchCandidate {
  PointSpec spec;
  std::uint64_t makespan = 0;
  double performance = 0;
  double perf_per_energy = 0;
  double perf_per_area = 0;
  double energy_j = 0;
  double area_mm2 = 0;
};

/// Per-stage telemetry (deterministic: counts evaluations, not
/// simulations).
struct SearchStage {
  std::string name;           // exhaustive | sample | halve | refine
  double scale_mult = 1;      // workload-scale multiplier of the stage
  std::uint64_t evaluated = 0;
  std::uint64_t kept = 0;     // survivors promoted out of the stage
};

struct SearchResult {
  // --- deterministic block (serialized by search_result_json) ---
  std::string workload;
  double scale = 0;
  Objective objective = Objective::kPerf;
  std::uint64_t budget = 0;
  std::uint64_t seed = 0;
  std::uint64_t space_size = 0;
  std::uint64_t evaluated = 0;  // total evaluations, always <= budget
  std::vector<SearchStage> stages;
  SearchCandidate best;                  // top of the frontier
  std::vector<SearchCandidate> frontier; // Pareto set, objective-major

  // --- cache-warmth-dependent telemetry (never serialized into the
  //     deterministic block) ---
  std::uint64_t simulated = 0;   // evaluations that actually simulated
  std::uint64_t cache_hits = 0;  // evaluations served from the ResultCache
  std::uint64_t coalesced = 0;   // evaluations served by an in-flight leader
  double wall_seconds = 0;       // host simulation time across evaluations
};

/// Run the search. Throws ConfigError for degenerate specs (see
/// SearchSpec::validate) and propagates evaluation failures.
SearchResult search(const SearchRequest& request);

/// Canonical JSON of the deterministic block (17-significant-digit
/// doubles, fixed key order). Two searches of the same spec produce
/// byte-identical strings regardless of jobs or cache warmth — the
/// contract search_test and serve_smoke pin.
std::string search_result_json(const SearchResult& r);

}  // namespace ara::dse
