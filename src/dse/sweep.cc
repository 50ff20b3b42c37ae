#include "dse/sweep.h"

#include <cstddef>
#include <map>
#include <utility>

#include "common/config_error.h"
#include "dse/parallel_sweep.h"
#include "obs/span.h"

namespace ara::dse {

std::vector<ConfigPoint> paper_network_configs(std::uint32_t islands) {
  std::vector<ConfigPoint> points;
  points.push_back({"proxy-xbar", core::ArchConfig::paper_baseline(islands)});
  points.push_back({"1-ring,16B", core::ArchConfig::ring_design(islands, 1, 16)});
  points.push_back({"1-ring,32B", core::ArchConfig::ring_design(islands, 1, 32)});
  points.push_back({"2-ring,32B", core::ArchConfig::ring_design(islands, 2, 32)});
  points.push_back({"3-ring,32B", core::ArchConfig::ring_design(islands, 3, 32)});
  return points;
}

const std::vector<std::uint32_t>& paper_island_counts() {
  static const std::vector<std::uint32_t> counts = {3, 6, 12, 24};
  return counts;
}

std::vector<SweepResult> run(const SweepRequest& request) {
  std::vector<SweepResult> results(request.sweep.size());
  ResultCache* const cache = request.cache;
  // Observability only: trace spans/counts never influence which points
  // simulate or what they produce (null trace = identical control flow).
  obs::RequestTrace* trace = request.trace;

  // Simulate the points at `slots` on the request's workers; with a cache,
  // inserting each result fills that point's claim.
  auto simulate = [&](const std::vector<std::size_t>& slots) {
    if (slots.empty()) return;
    std::vector<SweepJob> jobs;
    jobs.reserve(slots.size());
    for (const std::size_t slot : slots) jobs.push_back(request.sweep[slot]);
    obs::ScopedSpan simulate_span(trace, obs::Phase::kSimulate);
    auto fresh = ParallelSweepExecutor(request.jobs).run(jobs);
    for (std::size_t m = 0; m < fresh.size(); ++m) {
      SweepResult& r = results[slots[m]];
      fresh[m].key = r.key;
      if (cache != nullptr) cache->insert(r.key, fresh[m]);
      r = std::move(fresh[m]);
    }
  };

  // Classification pre-pass (serial: a claim is a hash probe or one file
  // read, never a simulation). Each point lands in exactly one bucket:
  //  - alias: duplicate of a point this request leads — copied from the
  //    leader's fresh result;
  //  - hit: slot filled immediately;
  //  - follower: another request holds the point's claim; we wait for its
  //    entry once our own claims are retired;
  //  - lead: queued for the executor (with a cache, this request now holds
  //    the point's claim).
  std::vector<std::size_t> leads;
  std::vector<std::size_t> followers;
  struct Alias {
    std::size_t slot = 0;
    std::size_t lead = 0;  // index into leads
  };
  std::vector<Alias> aliases;
  std::map<std::uint64_t, std::size_t> led_here;  // key -> index into leads
  try {
    {
      obs::ScopedSpan lookup_span(trace, obs::Phase::kCacheLookup);
      for (std::size_t i = 0; i < request.sweep.size(); ++i) {
        const SweepJob& job = request.sweep[i];
        config_check(job.workload != nullptr, "SweepJob has no workload");
        if (cache != nullptr) {
          const std::uint64_t key =
              ResultCache::key(job.config, *job.workload, cache->salt());
          results[i].key = key;
          if (const auto it = led_here.find(key); it != led_here.end()) {
            aliases.push_back({i, it->second});
            if (trace != nullptr) ++trace->aliases;
            continue;
          }
          const ResultCache::Claim claim = cache->claim(key, &results[i]);
          if (claim == ResultCache::Claim::kHit) {
            results[i].from_cache = true;
            if (trace != nullptr) ++trace->hits;
            continue;
          }
          if (claim == ResultCache::Claim::kFollow) {
            followers.push_back(i);
            if (trace != nullptr) ++trace->followers;
            continue;
          }
          led_here.emplace(key, leads.size());
        }
        leads.push_back(i);
        if (trace != nullptr) ++trace->misses;
      }
    }
    simulate(leads);
  } catch (...) {
    // A failing sweep must not strand other requests' followers of the
    // keys this request claimed: abandon them so they self-simulate.
    for (const auto& [key, lead] : led_here) cache->abandon(key);
    throw;
  }

  // Duplicates of our own fresh points: simulated once, fanned out. Only
  // the Entry part is copied; the alias keeps its own flags.
  for (const Alias& alias : aliases) {
    static_cast<ResultCache::Entry&>(results[alias.slot]) =
        results[leads[alias.lead]];
    results[alias.slot].coalesced = true;
  }

  // Followers last: our own claims are all filled by now, so waiting on
  // other requests' leaders cannot deadlock. An abandoned claim (its
  // leader threw) falls back to a local simulation — same pure function
  // of the key, so the result is bit-identical to what the leader would
  // have stored.
  std::vector<std::size_t> orphans;
  {
    obs::ScopedSpan wait_span(trace, obs::Phase::kCoalesceWait);
    for (const std::size_t slot : followers) {
      if (cache->wait(results[slot].key, &results[slot])) {
        results[slot].coalesced = true;
        continue;
      }
      orphans.push_back(slot);
      // The point is ultimately a fresh simulation here, not a coalesced
      // wait.
      if (trace != nullptr) {
        --trace->followers;
        ++trace->misses;
      }
    }
  }
  simulate(orphans);
  return results;
}

}  // namespace ara::dse
