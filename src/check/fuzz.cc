#include "check/fuzz.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "check/check.h"
#include "core/config_digest.h"
#include "dse/result_cache.h"
#include "dse/sweep.h"
#include "obs/metrics_export.h"
#include "sim/rng.h"

namespace ara::check {

namespace {

/// Decorrelate the point generator from the DFG generator (which also
/// consumes the seed) so neighbouring seeds explore independent corners.
constexpr std::uint64_t kPointSalt = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kDfgSalt = 0xa5a5a5a55a5a5a5aull;

}  // namespace

PointSampler::PointSampler(std::uint64_t seed) : rng_(seed ^ kPointSalt) {}

FuzzPoint generate_point(std::uint64_t seed, const FuzzLimits& limits) {
  // The sampler wraps the salted Rng stream generate_point always used;
  // every draw below maps 1:1 onto the pre-PointSampler calls
  // (next_below -> pick, next_bool -> chance, next_double -> unit), so
  // the fuzz corpus for a given seed is unchanged.
  PointSampler rng(seed);
  FuzzPoint p;
  p.seed = seed;

  // --- architecture ---
  core::ArchConfig& cfg = p.config;
  const std::uint32_t max_islands =
      std::max<std::uint32_t>(1, std::min<std::uint32_t>(limits.max_islands, 24));
  cfg.num_islands =
      1 + static_cast<std::uint32_t>(rng.pick(max_islands));
  // ABBs dealt evenly: total = islands x per-island keeps validate()'s
  // divisibility rule for every island count.
  const std::uint32_t abbs_per_island = rng.chance(0.5) ? 5 : 10;
  cfg.total_abbs = cfg.num_islands * abbs_per_island;

  switch (rng.pick(3)) {
    case 0:
      cfg.island.net.topology = island::SpmDmaTopology::kProxyXbar;
      break;
    case 1:
      cfg.island.net.topology = island::SpmDmaTopology::kChainingXbar;
      break;
    default:
      cfg.island.net.topology = island::SpmDmaTopology::kRing;
      break;
  }
  cfg.island.net.num_rings =
      1 + static_cast<std::uint32_t>(rng.pick(3));
  cfg.island.net.link_bytes = rng.chance(0.5) ? 16 : 32;
  cfg.island.spm_sharing = rng.chance(0.3);
  cfg.island.spm_port_multiplier = rng.chance(0.5) ? 1 : 2;
  cfg.island.tlb_enabled = rng.chance(0.8);

  cfg.mesh.link_bytes_per_cycle =
      16.0 * static_cast<double>(1u << rng.pick(3));  // 16/32/64
  cfg.mesh.local_port_bytes_per_cycle = rng.chance(0.5) ? 16.0 : 32.0;

  const bool monolithic = rng.chance(0.15);
  cfg.mode = monolithic ? abc::ExecutionMode::kMonolithic
                        : abc::ExecutionMode::kComposable;
  cfg.force_per_task = !monolithic && rng.chance(0.2);

  cfg.num_cores = 1 + static_cast<std::uint32_t>(rng.pick(8));
  cfg.max_jobs_in_flight =
      2 + static_cast<std::uint32_t>(rng.pick(31));
  switch (rng.pick(3)) {
    case 0:
      cfg.gam_policy = abc::GamPolicy::kFifo;
      break;
    case 1:
      cfg.gam_policy = abc::GamPolicy::kShortestFirst;
      break;
    default:
      cfg.gam_policy = abc::GamPolicy::kLargestFirst;
      break;
  }

  // Fabric tasks only when the islands carry fabric blocks; a fabric task
  // with zero fabric inventory could never be placed (a genuine deadlock,
  // not a bug the fuzzer should report).
  const bool fabric = !monolithic && rng.chance(0.25);
  cfg.island.fabric_blocks = fabric ? 1 : 0;

  // --- workload ---
  workloads::DfgGenParams gp;
  const std::uint32_t max_tasks = std::max<std::uint32_t>(3, limits.max_tasks);
  gp.tasks =
      3 + static_cast<std::uint32_t>(rng.pick(max_tasks - 2));
  gp.chain_fraction = rng.unit() * 0.6;
  gp.branch_prob = rng.unit() * 0.25;
  gp.elements = 32 + rng.pick(225);
  gp.compute_iterations = 1 + static_cast<std::uint32_t>(rng.pick(2));
  gp.chain_words = 1 + static_cast<std::uint32_t>(rng.pick(4));
  gp.head_input_streams = 1 + static_cast<std::uint32_t>(rng.pick(3));
  gp.chained_input_streams = static_cast<std::uint32_t>(rng.pick(3));
  gp.fabric_fraction = fabric ? 0.15 : 0.0;
  gp.seed = seed ^ kDfgSalt;

  workloads::Workload& w = p.workload;
  w.name = "fuzz-" + std::to_string(seed);
  w.dfg = workloads::generate_dfg(w.name, gp);
  const std::uint32_t max_inv =
      std::max<std::uint32_t>(2, limits.max_invocations);
  w.invocations =
      2 + static_cast<std::uint32_t>(rng.pick(max_inv - 1));
  w.concurrency = 1 + static_cast<std::uint32_t>(rng.pick(12));
  w.buffer_rotation = 1 + static_cast<std::uint32_t>(rng.pick(4));

  cfg.validate();  // generator bug if this ever throws
  return p;
}

// -------------------------------------------------------- cross-checking

namespace {

std::string snapshot_text(const obs::MetricsSnapshot& s) {
  std::ostringstream os;
  obs::MetricsExporter::write_snapshot_exact(os, s);
  return os.str();
}

/// Bit-exact comparison of two sweep results (ignoring host-dependent
/// wall-clock and worker fields). Empty string when identical.
std::string diff_results(const dse::SweepResult& got,
                         const dse::SweepResult& ref,
                         const std::string& label) {
  if (!(got.result == ref.result))
    return label + ": RunResult diverged from the serial reference";
  if (got.events != ref.events)
    return label + ": event count diverged (" + std::to_string(got.events) +
           " vs " + std::to_string(ref.events) + ")";
  for (std::size_t k = 0; k < sim::kNumEventKinds; ++k) {
    if (got.event_kinds[k].count != ref.event_kinds[k].count)
      return label + ": dispatch count for kind '" +
             sim::event_kind_name(static_cast<sim::EventKind>(k)) +
             "' diverged";
  }
  if (snapshot_text(got.metrics) != snapshot_text(ref.metrics))
    return label + ": MetricsSnapshot diverged";
  return {};
}

}  // namespace

std::string cross_check(const FuzzPoint& point) {
  ScopedEnable invariants_on;
  constexpr int kReplicas = 3;

  auto request = [&](unsigned jobs) {
    dse::SweepRequest rq;
    for (int i = 0; i < kReplicas; ++i) rq.add(point.config, point.workload);
    return rq.with_jobs(jobs);
  };
  auto run_checked =
      [&](unsigned jobs, dse::ResultCache* cache,
          std::vector<dse::SweepResult>* out) -> std::string {
    try {
      dse::SweepRequest rq = request(jobs);
      if (cache != nullptr) rq.with_cache(cache);
      *out = dse::run(rq);
    } catch (const std::exception& e) {
      return "jobs=" + std::to_string(jobs) + " run threw: " + e.what();
    }
    return {};
  };

  // Serial reference, then replica self-consistency at jobs 1/2/8.
  std::vector<dse::SweepResult> ref;
  if (std::string err = run_checked(1, nullptr, &ref); !err.empty())
    return err;
  for (unsigned jobs : {1u, 2u, 8u}) {
    std::vector<dse::SweepResult> got;
    if (jobs == 1u) {
      got = ref;
    } else if (std::string err = run_checked(jobs, nullptr, &got);
               !err.empty()) {
      return err;
    }
    for (int i = 0; i < kReplicas; ++i) {
      const std::string d =
          diff_results(got[i], ref[0],
                       "jobs=" + std::to_string(jobs) + " replica " +
                           std::to_string(i));
      if (!d.empty()) return d;
    }
  }

  // Cached-vs-fresh: a cold pass populates the cache, a warm pass must
  // restore every deterministic bit without simulating.
  dse::ResultCache cache;
  std::vector<dse::SweepResult> cold, warm;
  if (std::string err = run_checked(2, &cache, &cold); !err.empty())
    return "cold cache pass: " + err;
  if (std::string err = run_checked(2, &cache, &warm); !err.empty())
    return "warm cache pass: " + err;
  for (int i = 0; i < kReplicas; ++i) {
    if (std::string d = diff_results(cold[i], ref[0], "cold cache pass");
        !d.empty())
      return d;
    if (std::string d = diff_results(warm[i], ref[0], "warm cache pass");
        !d.empty())
      return d;
    if (!warm[i].from_cache)
      return "warm cache pass: replica " + std::to_string(i) +
             " was re-simulated instead of served from cache";
  }
  return {};
}

std::string repro_text(const FuzzPoint& point, const FuzzLimits& limits,
                       const std::string& failure) {
  std::ostringstream os;
  os << "# ara_fuzz repro\n"
     << "seed = " << point.seed << "\n"
     << "limits.max_islands = " << limits.max_islands << "\n"
     << "limits.max_tasks = " << limits.max_tasks << "\n"
     << "limits.max_invocations = " << limits.max_invocations << "\n"
     << "failure = " << failure << "\n"
     << "\n# regenerate with check::generate_point(seed, limits)\n"
     << "\n[config]\n"
     << core::canonical_text(point.config) << "\n[workload]\n"
     << core::canonical_text(point.workload);
  return os.str();
}

}  // namespace ara::check
