#include "dse/sweep.h"

#include <cstddef>
#include <map>
#include <utility>

#include "common/config_error.h"
#include "dse/coalesce.h"
#include "dse/parallel_sweep.h"
#include "obs/span.h"

namespace ara::dse {

namespace {

/// Fill one result slot from a cache/coalescer entry. Host-dependent
/// fields (wall seconds, worker) stay 0: nothing was simulated here.
void fill_from_entry(SweepResult* out, ResultCache::Entry entry) {
  out->result = std::move(entry.result);
  out->metrics = std::move(entry.metrics);
  out->events = entry.events;
  out->event_kinds = entry.event_kinds;
}

/// The deterministic portion of a fresh result, as the cache stores it
/// (per-kind wall seconds zeroed — they never round-trip).
ResultCache::Entry entry_of(const SweepResult& fresh) {
  ResultCache::Entry entry;
  entry.result = fresh.result;
  entry.metrics = fresh.metrics;
  entry.events = fresh.events;
  entry.event_kinds = fresh.event_kinds;
  for (auto& k : entry.event_kinds) k.seconds = 0;
  return entry;
}

}  // namespace

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
  // Observability only: trace spans/counts never influence which points
  // simulate or what they produce (null trace = identical control flow).
  obs::RequestTrace* trace = request.trace;

  const std::uint64_t salt =
      request.cache != nullptr ? request.cache->salt() : kSimVersionSalt;
  const bool keyed =
      request.cache != nullptr || request.coalescer != nullptr;

  // Classification pre-pass (serial: a lookup is a hash probe or one file
  // read, never a simulation). Each point lands in exactly one bucket:
  //  - cache hit: slot filled immediately;
  //  - follower: an identical point is in flight in a concurrent dse::run;
  //    we wait for its published entry after our own misses are done;
  //  - alias: duplicate of a point already claimed earlier in THIS request
  //    (coalescer only) — copied from the leader's fresh result;
  //  - miss: queued for the executor (claiming leadership of its key when
  //    a coalescer is set).
  std::vector<std::size_t> miss_slot;
  std::vector<std::uint64_t> miss_key;
  std::vector<SweepJob> miss_jobs;
  std::vector<PointCoalescer::Ticket> miss_ticket;  // aligned w/ miss_jobs
  struct Follower {
    std::size_t slot = 0;
    std::uint64_t key = 0;
    PointCoalescer::Ticket ticket;
  };
  std::vector<Follower> followers;
  struct Alias {
    std::size_t slot = 0;
    std::size_t miss = 0;  // index into miss_jobs
  };
  std::vector<Alias> aliases;
  std::map<std::uint64_t, std::size_t> claimed_here;  // key -> miss index

  {
    obs::ScopedSpan lookup_span(trace, obs::Phase::kCacheLookup);
    for (std::size_t i = 0; i < request.sweep.size(); ++i) {
      const SweepJob& job = request.sweep[i];
      config_check(job.workload != nullptr, "SweepJob has no workload");
      std::uint64_t key = 0;
      if (keyed) key = ResultCache::key(job.config, *job.workload, salt);
      if (request.cache != nullptr) {
        ResultCache::Entry entry;
        if (request.cache->lookup(key, &entry)) {
          fill_from_entry(&results[i], std::move(entry));
          results[i].from_cache = true;
          if (trace != nullptr) ++trace->hits;
          continue;
        }
      }
      if (request.coalescer != nullptr) {
        const auto local = claimed_here.find(key);
        if (local != claimed_here.end()) {
          aliases.push_back({i, local->second});
          if (trace != nullptr) ++trace->aliases;
          continue;
        }
        PointCoalescer::Ticket ticket = request.coalescer->join(key);
        if (!ticket.leader) {
          followers.push_back({i, key, std::move(ticket)});
          if (trace != nullptr) ++trace->followers;
          continue;
        }
        claimed_here.emplace(key, miss_jobs.size());
        miss_ticket.push_back(std::move(ticket));
      }
      miss_slot.push_back(i);
      miss_key.push_back(key);
      miss_jobs.push_back(job);
      if (trace != nullptr) ++trace->misses;
    }
  }

  if (!miss_jobs.empty()) {
    obs::ScopedSpan simulate_span(trace, obs::Phase::kSimulate);
    const ParallelSweepExecutor executor(request.jobs);
    std::vector<SweepResult> fresh;
    try {
      fresh = executor.run(miss_jobs);
    } catch (...) {
      // A failing sweep must not strand concurrent followers of the keys
      // this request claimed: abandon them so they self-simulate.
      for (const auto& ticket : miss_ticket) {
        request.coalescer->abandon(ticket);
      }
      throw;
    }
    for (std::size_t m = 0; m < fresh.size(); ++m) {
      if (keyed) {
        const ResultCache::Entry entry = entry_of(fresh[m]);
        // Cache before publish: a request that joins after the publish
        // retires the key must find the entry in the cache, not start a
        // redundant simulation.
        if (request.cache != nullptr) {
          request.cache->insert(miss_key[m], entry);
        }
        if (request.coalescer != nullptr) {
          request.coalescer->publish(miss_ticket[m], entry);
        }
      }
      results[miss_slot[m]] = std::move(fresh[m]);
    }
  }

  // Duplicates of our own fresh points: simulated once, fanned out.
  for (const Alias& alias : aliases) {
    fill_from_entry(&results[alias.slot],
                    entry_of(results[miss_slot[alias.miss]]));
    results[alias.slot].coalesced = true;
  }

  // Followers last: by now our own simulations are done, so waiting on
  // other requests' leaders is all that remains. An abandoned key (its
  // leader threw) falls back to a local simulation — same pure function
  // of the key, so the result is bit-identical to what the leader would
  // have published.
  std::vector<std::size_t> orphan_slot;
  std::vector<std::uint64_t> orphan_key;
  std::vector<SweepJob> orphan_jobs;
  {
    obs::ScopedSpan wait_span(trace, obs::Phase::kCoalesceWait);
    for (const Follower& f : followers) {
      ResultCache::Entry entry;
      if (request.coalescer->wait(f.ticket, &entry) ==
          PointCoalescer::Outcome::kReady) {
        fill_from_entry(&results[f.slot], std::move(entry));
        results[f.slot].coalesced = true;
      } else {
        orphan_slot.push_back(f.slot);
        orphan_key.push_back(f.key);
        orphan_jobs.push_back(request.sweep[f.slot]);
        // The leader abandoned this key, so the point is ultimately a
        // fresh simulation here, not a coalesced wait.
        if (trace != nullptr) {
          --trace->followers;
          ++trace->misses;
        }
      }
    }
  }
  if (!orphan_jobs.empty()) {
    obs::ScopedSpan simulate_span(trace, obs::Phase::kSimulate);
    const ParallelSweepExecutor executor(request.jobs);
    auto fresh = executor.run(orphan_jobs);
    for (std::size_t m = 0; m < fresh.size(); ++m) {
      if (request.cache != nullptr) {
        request.cache->insert(orphan_key[m], entry_of(fresh[m]));
      }
      results[orphan_slot[m]] = std::move(fresh[m]);
    }
  }
  return results;
}

}  // namespace ara::dse
