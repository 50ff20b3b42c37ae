// Design-space sweep driver: the named configurations the paper evaluates
// and the API to run workloads over them (Figs. 6-9).
//
// The entry point is dse::run(SweepRequest): a request names the
// (config, workload) pairs, the worker count, and (optionally) a
// ResultCache to memoize points through. The pre-PR-3 run_point/run_sweep
// shims have been removed — DESIGN.md "SweepRequest migration" keeps the
// old-to-new call map, and ara_analyze's no-deprecated-api rule keeps the
// identifiers from coming back.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/arch_config.h"
#include "dse/result_cache.h"
#include "obs/span.h"
#include "workloads/workload.h"

namespace ara::dse {

struct ConfigPoint {
  std::string label;
  core::ArchConfig config;
};

/// The SPM<->DMA network configurations of Figs. 7-9 for a given island
/// count: proxy crossbar (baseline), 1-ring 16B, 1-ring 32B, 2-ring 32B,
/// 3-ring 32B.
std::vector<ConfigPoint> paper_network_configs(std::uint32_t islands);

/// The island counts of Fig. 6 with 120 ABBs fixed: 3, 6, 12, 24.
const std::vector<std::uint32_t>& paper_island_counts();

/// One unit of sweep work: run `workload` on a fresh System built from
/// `config`. The workload is borrowed — the caller keeps it alive (and
/// unmodified) for the duration of the run.
struct SweepJob {
  core::ArchConfig config;
  const workloads::Workload* workload = nullptr;
};

/// Per-point outcome: the deterministic ResultCache::Entry (result,
/// metrics, events, event_kinds; identical for serial and parallel runs,
/// and restored exactly on a cache hit) plus host-side observability.
struct SweepResult : ResultCache::Entry {
  /// The point's cache key as dse::run computed it (under the cache's
  /// salt); 0 when the request had no cache.
  std::uint64_t key = 0;
  /// Host wall-clock seconds this point cost: building its System,
  /// simulating, and destroying the System again (0 for a cache hit —
  /// nothing was simulated).
  double wall_seconds = 0;
  /// Index of the worker thread that ran the point (0 .. jobs-1; 0 for a
  /// cache hit).
  unsigned worker = 0;
  /// True when the point was served from a ResultCache instead of being
  /// simulated. All deterministic fields (result, metrics, events,
  /// event-kind counts) are bit-identical either way.
  bool from_cache = false;
  /// True when an identical point was simulated once for it: earlier in
  /// the same request, or in a concurrent dse::run holding the point's
  /// ResultCache claim. Nothing was simulated for this point, and the
  /// deterministic fields are bit-identical to a fresh simulation.
  bool coalesced = false;
};

/// Everything dse::run needs to execute one sweep. Results come back in
/// the order jobs were added, regardless of worker count or cache hits.
struct SweepRequest {
  /// Flat job list; results land in the same order.
  std::vector<SweepJob> sweep;
  /// Worker threads; 0 = hardware concurrency, 1 (default) = serial. Any
  /// value produces bit-identical results (each point owns its simulator).
  unsigned jobs = 1;
  /// Optional result store (borrowed, may be shared across concurrent
  /// requests; a sweep server passes one per process). With a cache, every
  /// distinct (config, workload, salt) key simulates at most once: a
  /// stored point is restored, a point another request is simulating is
  /// waited for, and duplicates within the request copy their first
  /// occurrence. Without one, every point simulates.
  ResultCache* cache = nullptr;
  /// Optional request trace (borrowed; null = untraced). dse::run charges
  /// the classification pre-pass to the cache_lookup span, executor time
  /// to simulate, follower waits to coalesce_wait, and counts each
  /// point's outcome. Pure observability: results are bit-identical with
  /// or without a trace.
  obs::RequestTrace* trace = nullptr;

  SweepRequest& add(core::ArchConfig config,
                    const workloads::Workload& workload) {
    sweep.push_back({std::move(config), &workload});
    return *this;
  }
  /// Append every point, all running `workload`.
  SweepRequest& add_points(const std::vector<ConfigPoint>& points,
                           const workloads::Workload& workload) {
    for (const auto& p : points) sweep.push_back({p.config, &workload});
    return *this;
  }
  SweepRequest& with_jobs(unsigned n) {
    jobs = n;
    return *this;
  }
  SweepRequest& with_cache(ResultCache* c) {
    cache = c;
    return *this;
  }
  SweepRequest& with_trace(obs::RequestTrace* t) {
    trace = t;
    return *this;
  }
};

/// Run the request: claim every point in the cache (when present),
/// simulate the points this request leads on `request.jobs` workers,
/// insert them back, wait for the points other requests lead, and return
/// per-point results in input order.
std::vector<SweepResult> run(const SweepRequest& request);

}  // namespace ara::dse
