// Tests for the content-addressed sweep result cache: key scheme and
// invalidation, the in-process and on-disk tiers, bit-exact round-trips
// (doubles included), corrupt-file tolerance, the cached-vs-fresh
// determinism contract through dse::run(), and the claims that make each
// distinct point simulate once across concurrent requests.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/arch_config.h"
#include "core/config_digest.h"
#include "dse/result_cache.h"
#include "dse/spec.h"
#include "dse/sweep.h"
#include "obs/clock.h"
#include "obs/json_check.h"
#include "obs/span.h"
#include "workloads/registry.h"

namespace ara::dse {
namespace {

workloads::Workload test_workload(double scale = 0.03) {
  return workloads::make_benchmark("Denoise", scale);
}

// Fresh per-test scratch directory under gtest's temp root.
std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "ara_cache_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Run one design point through dse::run and return its SweepResult.
SweepResult run_one(const core::ArchConfig& cfg, const workloads::Workload& wl,
                    ResultCache* cache = nullptr) {
  auto results = run(SweepRequest{}.add(cfg, wl).with_cache(cache));
  return std::move(results.front());
}

std::string exact_metrics(const obs::MetricsSnapshot& snap) {
  std::ostringstream os;
  obs::MetricsExporter::write_snapshot_exact(os, snap);
  return os.str();
}

TEST(ResultCacheKey, StableForIdenticalInputs) {
  const auto cfg = core::ArchConfig::paper_baseline(6);
  const auto wl = test_workload();
  EXPECT_EQ(ResultCache::key(cfg, wl), ResultCache::key(cfg, wl));
  // A value-identical copy hashes the same: content, not identity.
  const core::ArchConfig cfg2 = cfg;
  const workloads::Workload wl2 = wl;
  EXPECT_EQ(ResultCache::key(cfg, wl), ResultCache::key(cfg2, wl2));
}

TEST(ResultCacheKey, ConfigChangeChangesKey) {
  const auto wl = test_workload();
  const auto base = core::ArchConfig::paper_baseline(6);
  EXPECT_NE(ResultCache::key(base, wl),
            ResultCache::key(core::ArchConfig::paper_baseline(12), wl));

  core::ArchConfig tweaked = base;
  tweaked.island.net.link_bytes *= 2;
  EXPECT_NE(ResultCache::key(base, wl), ResultCache::key(tweaked, wl));
}

TEST(ResultCacheKey, WorkloadChangeChangesKey) {
  const auto cfg = core::ArchConfig::paper_baseline(6);
  EXPECT_NE(ResultCache::key(cfg, test_workload(0.03)),
            ResultCache::key(cfg, test_workload(0.05)));
  EXPECT_NE(ResultCache::key(cfg, test_workload()),
            ResultCache::key(cfg, workloads::make_benchmark("EKF-SLAM", 0.03)));
}

TEST(ResultCacheKey, SaltChangeChangesKey) {
  const auto cfg = core::ArchConfig::paper_baseline(6);
  const auto wl = test_workload();
  EXPECT_NE(ResultCache::key(cfg, wl, kSimVersionSalt),
            ResultCache::key(cfg, wl, kSimVersionSalt + 1));
}

TEST(ResultCache, MemoryTierHitRestoresEntry) {
  ResultCache cache;
  const auto cfg = core::ArchConfig::paper_baseline(3);
  const auto wl = test_workload();
  const auto fresh = run_one(cfg, wl);

  const std::uint64_t k = ResultCache::key(cfg, wl);
  ResultCache::Entry miss;
  EXPECT_FALSE(cache.lookup(k, &miss));
  EXPECT_EQ(cache.misses(), 1u);

  cache.insert(k, fresh);
  EXPECT_EQ(cache.size(), 1u);

  ResultCache::Entry hit;
  ASSERT_TRUE(cache.lookup(k, &hit));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.disk_hits(), 0u);  // memory-only cache
  EXPECT_EQ(hit.result, fresh.result);
  EXPECT_EQ(hit.events, fresh.events);
  EXPECT_EQ(exact_metrics(hit.metrics), exact_metrics(fresh.metrics));
}

TEST(ResultCache, DiskTierRoundTripsBitExactly) {
  const std::string dir = scratch_dir("disk_roundtrip");
  const auto cfg = core::ArchConfig::paper_baseline(6);
  const auto wl = test_workload();
  const std::uint64_t k = ResultCache::key(cfg, wl);
  const auto fresh = run_one(cfg, wl);

  {
    ResultCache writer(dir);
    writer.insert(k, fresh);
    ASSERT_TRUE(std::filesystem::exists(writer.entry_path(k)));
  }

  // A brand-new cache over the same directory: nothing in memory, so the
  // hit must come from disk — and restore every field bit-exactly,
  // including all the double-valued energy/area/latency numbers.
  ResultCache reader(dir);
  ResultCache::Entry hit;
  ASSERT_TRUE(reader.lookup(k, &hit));
  EXPECT_EQ(reader.disk_hits(), 1u);
  EXPECT_EQ(hit.result, fresh.result);  // operator== is exact equality
  EXPECT_EQ(hit.events, fresh.events);
  EXPECT_EQ(exact_metrics(hit.metrics), exact_metrics(fresh.metrics));
  for (std::size_t i = 0; i < sim::kNumEventKinds; ++i) {
    EXPECT_EQ(hit.event_kinds[i].count, fresh.event_kinds[i].count);
  }

  // A disk hit is promoted: a second lookup is served from memory.
  ResultCache::Entry again;
  ASSERT_TRUE(reader.lookup(k, &again));
  EXPECT_EQ(reader.disk_hits(), 1u);
  EXPECT_EQ(reader.hits(), 2u);
}

TEST(ResultCache, EntryJsonIsStrictlyValid) {
  const auto cfg = core::ArchConfig::paper_baseline(3);
  const auto wl = test_workload();
  const ResultCache::Entry entry = run_one(cfg, wl);

  const std::uint64_t k = ResultCache::key(cfg, wl);
  const std::string text = ResultCache::to_json(k, kSimVersionSalt, entry);
  std::string error;
  EXPECT_TRUE(obs::validate_json(text, &error)) << error;

  ResultCache::Entry parsed;
  ASSERT_TRUE(ResultCache::from_json(text, k, kSimVersionSalt, &parsed));
  EXPECT_EQ(parsed.result, entry.result);
  EXPECT_EQ(parsed.events, entry.events);
  EXPECT_EQ(exact_metrics(parsed.metrics), exact_metrics(entry.metrics));
}

// Entry bytes are what the disk tier stores and ara_serve returns, so they
// may change only together with a kSimVersionSalt bump. Four rows of
// perfbench/digests.txt pin them: each point is built the way perfbench's
// GridPoint::spec() builds it, run through dse::run, and hashed as FNV-1a
// of to_json without its trailing newline.
TEST(ResultCache, EntryBytesMatchPinnedDigests) {
  ASSERT_EQ(kSimVersionSalt, 5u) << "re-pin these rows after a salt bump";
  struct Pin {
    double scale;
    const char* bench;
    std::uint32_t islands;
    const char* net;
    std::uint32_t rings;
    std::uint64_t width;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {0.01, "Denoise", 3, "proxy", 1, 32, 0x051c98915f63d231ull},
      {0.01, "Deblur", 12, "ring", 1, 16, 0x846a6a3d5da3a697ull},
      {0.01, "EKF-SLAM", 6, "ring", 2, 32, 0xd1a10c4ed310dd44ull},
      {0.02, "Segmentation", 24, "ring", 3, 32, 0x3f4e0cd4cea7e2d6ull},
  };
  std::vector<workloads::Workload> wls;
  for (const Pin& p : pins) {
    wls.push_back(workloads::make_benchmark(p.bench, p.scale));
  }
  SweepRequest request;
  for (std::size_t i = 0; i < wls.size(); ++i) {
    PointSpec spec;
    spec.islands = pins[i].islands;
    spec.net = pins[i].net;
    spec.rings = pins[i].rings;
    spec.link_bytes = pins[i].width;
    request.add(spec.to_config(), wls[i]);
  }
  const std::vector<SweepResult> results = run(request.with_jobs(2));
  ASSERT_EQ(results.size(), wls.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ResultCache::Entry entry;
    entry.result = results[i].result;
    entry.metrics = results[i].metrics;
    entry.events = results[i].events;
    entry.event_kinds = results[i].event_kinds;
    std::string json = ResultCache::to_json(
        ResultCache::key(request.sweep[i].config, wls[i]), kSimVersionSalt,
        entry);
    while (!json.empty() && json.back() == '\n') json.pop_back();
    EXPECT_EQ(core::fnv1a64(json), pins[i].digest)
        << pins[i].scale << " " << pins[i].bench << " " << pins[i].islands
        << " " << pins[i].net << " x" << pins[i].rings << " "
        << pins[i].width << "B";
  }
}

TEST(ResultCache, FromJsonRejectsKeyOrSaltMismatch) {
  const auto cfg = core::ArchConfig::paper_baseline(3);
  const auto wl = test_workload();
  ResultCache::Entry entry;
  entry.result = run_one(cfg, wl).result;

  const std::uint64_t k = ResultCache::key(cfg, wl);
  const std::string text = ResultCache::to_json(k, kSimVersionSalt, entry);
  ResultCache::Entry out;
  EXPECT_FALSE(ResultCache::from_json(text, k + 1, kSimVersionSalt, &out));
  EXPECT_FALSE(ResultCache::from_json(text, k, kSimVersionSalt + 1, &out));
  EXPECT_TRUE(ResultCache::from_json(text, k, kSimVersionSalt, &out));
}

TEST(ResultCache, CorruptDiskFilesAreMissesNotErrors) {
  const std::string dir = scratch_dir("corrupt");
  const auto cfg = core::ArchConfig::paper_baseline(3);
  const auto wl = test_workload();
  const std::uint64_t k = ResultCache::key(cfg, wl);

  ResultCache cache(dir);
  std::filesystem::create_directories(dir);

  // Truncated JSON, non-JSON garbage, and valid-JSON-wrong-shape must all
  // read as clean misses.
  for (const char* junk :
       {"{\"key\":\"", "not json at all \x01", "[1,2,3]", "{}"}) {
    {
      std::ofstream os(cache.entry_path(k), std::ios::trunc);
      os << junk;
    }
    ResultCache::Entry out;
    EXPECT_FALSE(cache.lookup(k, &out)) << "junk: " << junk;
  }
  // And insert() after a corrupt read repairs the file.
  ResultCache::Entry entry;
  entry.result = run_one(cfg, wl).result;
  cache.insert(k, entry);
  ResultCache reader(dir);
  ResultCache::Entry out;
  EXPECT_TRUE(reader.lookup(k, &out));
  EXPECT_EQ(out.result, entry.result);
}

// Determinism A/B: a cache-served sweep must be bit-identical to a fresh
// one at every worker count, and the second pass must be entirely hits.
TEST(ResultCache, CachedSweepBitIdenticalToFreshAcrossJobCounts) {
  const auto wl = test_workload();
  const auto points = paper_network_configs(6);

  // Fresh reference, no cache.
  const auto fresh = run(SweepRequest{}.add_points(points, wl));

  for (unsigned jobs : {1u, 2u, 8u}) {
    ResultCache cache;
    const auto first = run(
        SweepRequest{}.add_points(points, wl).with_jobs(jobs).with_cache(
            &cache));
    ASSERT_EQ(first.size(), fresh.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_FALSE(first[i].from_cache);
      EXPECT_EQ(first[i].result, fresh[i].result)
          << "jobs=" << jobs << " point " << i << " (cold pass)";
    }
    EXPECT_EQ(cache.size(), points.size());

    const auto warm = run(
        SweepRequest{}.add_points(points, wl).with_jobs(jobs).with_cache(
            &cache));
    ASSERT_EQ(warm.size(), fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_TRUE(warm[i].from_cache)
          << "jobs=" << jobs << " point " << i << " missed a warm cache";
      EXPECT_EQ(warm[i].result, fresh[i].result)
          << "jobs=" << jobs << " point " << i << " (warm pass)";
      EXPECT_EQ(warm[i].events, fresh[i].events);
      EXPECT_EQ(exact_metrics(warm[i].metrics),
                exact_metrics(fresh[i].metrics));
    }
  }
}

// Invalidation through the sweep driver: changing the config or the salt
// must miss; re-running the identical request must hit.
TEST(ResultCache, SweepInvalidationOnConfigOrSaltChange) {
  const auto wl = test_workload();
  ResultCache cache;
  const auto cfg6 = core::ArchConfig::paper_baseline(6);
  const auto cfg12 = core::ArchConfig::paper_baseline(12);

  auto r1 = run_one(cfg6, wl, &cache);
  EXPECT_FALSE(r1.from_cache);
  auto r2 = run_one(cfg6, wl, &cache);
  EXPECT_TRUE(r2.from_cache);
  EXPECT_EQ(r1.result, r2.result);

  // Different config: miss, then its own entry.
  auto r3 = run_one(cfg12, wl, &cache);
  EXPECT_FALSE(r3.from_cache);
  EXPECT_EQ(cache.size(), 2u);

  // A cache constructed under a different salt never sees the old entries
  // on disk; in memory the tiers are distinct instances anyway — assert at
  // the key level, where the salt is folded in.
  EXPECT_NE(ResultCache::key(cfg6, wl, kSimVersionSalt),
            ResultCache::key(cfg6, wl, kSimVersionSalt + 1));
  const std::string dir = scratch_dir("salt");
  {
    ResultCache writer(dir);
    ResultCache::Entry entry;
    entry.result = r1.result;
    writer.insert(ResultCache::key(cfg6, wl, writer.salt()), entry);
  }
  ResultCache stale(dir, kSimVersionSalt + 1);
  ResultCache::Entry out;
  EXPECT_FALSE(stale.lookup(ResultCache::key(cfg6, wl, stale.salt()), &out));
}

// Regression: the on-disk tier used to write every insert through one
// shared "<path>.tmp" scratch file with no lock — two workers inserting
// the same key could interleave bytes and rename a corrupt file into
// place. Writers are now serialized (disk_mu_), so hammering one key from
// many threads must leave exactly one strictly-valid, bit-exact entry.
TEST(ResultCache, ConcurrentSameKeyDiskInsertsStayWellFormed) {
  const auto wl = test_workload();
  const auto cfg = core::ArchConfig::paper_baseline(3);
  const std::string dir = scratch_dir("concurrent_insert");

  const ResultCache::Entry entry = run_one(cfg, wl);

  ResultCache cache(dir);
  const std::uint64_t key = ResultCache::key(cfg, wl, cache.salt());
  constexpr int kThreads = 8;
  constexpr int kInsertsPerThread = 25;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < kInsertsPerThread; ++i) cache.insert(key, entry);
    });
  }
  for (auto& th : writers) th.join();

  // Exactly one file, no stray scratch leftovers, strictly valid JSON.
  int files = 0;
  for (const auto& f : std::filesystem::directory_iterator(dir)) {
    ++files;
    EXPECT_EQ(f.path().extension(), ".json") << f.path();
    std::ifstream in(f.path());
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_TRUE(obs::validate_json(buf.str())) << f.path();
  }
  EXPECT_EQ(files, 1);

  // A fresh cache over the same directory restores the entry bit-exactly.
  ResultCache reader(dir);
  ResultCache::Entry out;
  ASSERT_TRUE(reader.lookup(key, &out));
  EXPECT_EQ(out.result, entry.result);
  EXPECT_EQ(out.events, entry.events);
  EXPECT_EQ(exact_metrics(out.metrics), exact_metrics(entry.metrics));
  EXPECT_EQ(reader.disk_hits(), 1u);
}

// Regression: hits()/misses()/disk_hits()/size() used to read their
// counters without taking the lock, racing with sweep workers mutating
// the cache. They now lock, so a reporter may sample mid-run and the
// totals must reconcile exactly once the workers finish.
TEST(ResultCache, TelemetryAccountsEveryLookupUnderConcurrency) {
  ResultCache cache;  // memory tier only
  const auto wl = test_workload();
  const auto cfg = core::ArchConfig::paper_baseline(3);
  const std::uint64_t key = ResultCache::key(cfg, wl, cache.salt());

  ResultCache::Entry entry;
  entry.events = 7;

  constexpr int kThreads = 6;
  constexpr int kLookupsPerThread = 200;
  std::atomic<bool> stop{false};
  std::thread sampler([&] {
    while (!stop.load()) {
      (void)cache.hits();
      (void)cache.misses();
      (void)cache.disk_hits();
      (void)cache.size();
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kLookupsPerThread; ++i) {
        ResultCache::Entry out;
        if (!cache.lookup(key, &out)) cache.insert(key, entry);
      }
    });
  }
  for (auto& th : workers) th.join();
  stop.store(true);
  sampler.join();

  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::uint64_t>(kThreads) * kLookupsPerThread);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.disk_hits(), 0u);
  EXPECT_GE(cache.hits(), 1u);
}

// ------------------------------------------------------------ claims

TEST(Coalescer, DuplicatePointsInOneRequestSimulateOnce) {
  const auto wl = test_workload();
  const auto config = core::ArchConfig::ring_design(3, 1, 16);
  ResultCache cache;
  const auto results = run(SweepRequest{}
                               .add(config, wl)
                               .add(config, wl)
                               .add(config, wl)
                               .with_cache(&cache));
  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[0].coalesced);
  EXPECT_FALSE(results[0].from_cache);
  EXPECT_TRUE(results[1].coalesced);
  EXPECT_TRUE(results[2].coalesced);
  EXPECT_EQ(results[0].result, results[1].result);
  EXPECT_EQ(results[0].result, results[2].result);
  EXPECT_EQ(results[0].events, results[1].events);
  // Every claim retired: a fresh claim of the key is a hit.
  ResultCache::Entry entry;
  EXPECT_EQ(cache.claim(results[0].key, &entry), ResultCache::Claim::kHit);
}

TEST(Coalescer, FollowerGetsLeaderEntryBitExact) {
  const auto wl = test_workload();
  const auto config = core::ArchConfig::ring_design(3, 1, 16);
  const auto plain = run_one(config, wl);

  ResultCache cache;
  const std::uint64_t key = ResultCache::key(config, wl, cache.salt());
  ResultCache::Entry unused;
  ASSERT_EQ(cache.claim(key, &unused), ResultCache::Claim::kLead);

  std::vector<SweepResult> follower_results;
  std::thread follower([&] {
    follower_results = run(SweepRequest{}.add(config, wl).with_cache(&cache));
  });
  // Deterministic hand-off: fill the claim only after the other request
  // has verifiably claimed the key as a follower.
  while (cache.coalesced() < 1) std::this_thread::yield();
  cache.insert(key, plain);
  follower.join();

  ASSERT_EQ(follower_results.size(), 1u);
  EXPECT_TRUE(follower_results[0].coalesced);
  EXPECT_FALSE(follower_results[0].from_cache);
  EXPECT_EQ(follower_results[0].result, plain.result);
  EXPECT_EQ(follower_results[0].events, plain.events);
  EXPECT_EQ(follower_results[0].wall_seconds, 0.0);  // nothing simulated here
  EXPECT_EQ(cache.coalesced(), 1u);
  ResultCache::Entry entry;
  EXPECT_EQ(cache.claim(key, &entry), ResultCache::Claim::kHit);
}

TEST(Coalescer, AbandonedFollowerSelfSimulatesBitExact) {
  const auto wl = test_workload();
  const auto config = core::ArchConfig::ring_design(3, 1, 16);
  const auto plain = run_one(config, wl);

  ResultCache cache;
  const std::uint64_t key = ResultCache::key(config, wl, cache.salt());
  ResultCache::Entry unused;
  ASSERT_EQ(cache.claim(key, &unused), ResultCache::Claim::kLead);

  std::vector<SweepResult> follower_results;
  std::thread follower([&] {
    follower_results = run(SweepRequest{}.add(config, wl).with_cache(&cache));
  });
  while (cache.coalesced() < 1) std::this_thread::yield();
  cache.abandon(key);  // the "leader's sweep threw" path
  follower.join();

  ASSERT_EQ(follower_results.size(), 1u);
  EXPECT_FALSE(follower_results[0].coalesced);  // it really simulated
  EXPECT_EQ(follower_results[0].result, plain.result);
  EXPECT_EQ(follower_results[0].events, plain.events);
  // The orphan fallback still populated the shared cache.
  ResultCache::Entry cached;
  EXPECT_TRUE(cache.lookup(key, &cached));
  EXPECT_EQ(cached.result, plain.result);
}

TEST(Coalescer, TracedRunIsBitIdenticalAndCountsOutcomes) {
  const auto wl = test_workload();
  const auto small = core::ArchConfig::ring_design(3, 1, 16);
  const auto big = core::ArchConfig::ring_design(6, 1, 16);

  // Untraced reference with no warm state.
  const auto plain = run(SweepRequest{}.add(small, wl).add(big, wl));

  obs::FakeClock clock;
  obs::RequestTrace trace;
  trace.clock = &clock;
  ResultCache cache;
  const auto traced = run(SweepRequest{}
                              .add(small, wl)
                              .add(big, wl)
                              .add(small, wl)  // in-request duplicate
                              .with_cache(&cache)
                              .with_trace(&trace));
  // Two fresh misses; the repeated point is an alias of the first.
  EXPECT_EQ(trace.misses, 2u);
  EXPECT_EQ(trace.aliases, 1u);
  EXPECT_EQ(trace.hits, 0u);
  EXPECT_EQ(trace.followers, 0u);
  EXPECT_EQ(trace.failed, 0u);

  // Tracing is pure observability: results and cache-entry bytes match
  // the untraced run exactly.
  ASSERT_EQ(traced.size(), 3u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(traced[i].result, plain[i].result);
    EXPECT_EQ(traced[i].events, plain[i].events);
  }
  const std::uint64_t key = ResultCache::key(small, wl, cache.salt());
  EXPECT_EQ(ResultCache::to_json(key, cache.salt(), traced[0]),
            ResultCache::to_json(key, cache.salt(), plain[0]));

  // Warm repeat against the same cache: pure hits.
  obs::RequestTrace warm;
  warm.clock = &clock;
  const auto warm_run = run(SweepRequest{}
                                .add(small, wl)
                                .add(big, wl)
                                .with_cache(&cache)
                                .with_trace(&warm));
  EXPECT_EQ(warm.hits, 2u);
  EXPECT_EQ(warm.misses, 0u);
  EXPECT_EQ(warm_run[0].result, plain[0].result);
}

// Concurrent requests over the same points: however they interleave, the
// cache lets each distinct point simulate exactly once, and every other
// copy is a hit or a coalesced wait with bit-identical bytes.
TEST(ResultCache, ConcurrentRequestsSimulateEachPointOnce) {
  const auto wl = test_workload();
  SweepRequest request;
  request.add(core::ArchConfig::paper_baseline(3), wl)
      .add(core::ArchConfig::ring_design(3, 1, 16), wl)
      .add(core::ArchConfig::ring_design(6, 2, 32), wl);
  const auto plain = run(request);

  ResultCache cache;
  request.with_cache(&cache);
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<SweepResult>> got(kThreads);
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] { got[t] = run(request); });
    }
    for (auto& th : threads) th.join();
  }

  std::size_t simulated = 0;
  for (const auto& results : got) {
    ASSERT_EQ(results.size(), plain.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
      simulated += !results[i].from_cache && !results[i].coalesced;
      const std::uint64_t key = results[i].key;
      EXPECT_EQ(ResultCache::to_json(key, cache.salt(), results[i]),
                ResultCache::to_json(key, cache.salt(), plain[i]))
          << "point " << i;
    }
  }
  EXPECT_EQ(simulated, plain.size());
  EXPECT_EQ(cache.size(), plain.size());
}

TEST(ConfigDigest, CanonicalTextCoversConfigFields) {
  const auto base = core::ArchConfig::paper_baseline(6);
  core::ArchConfig tweaked = base;
  tweaked.island.spm_sharing = !tweaked.island.spm_sharing;
  EXPECT_NE(core::canonical_text(base), core::canonical_text(tweaked));
  EXPECT_EQ(core::canonical_text(base), core::canonical_text(base));
  // The digest text embeds section headers, so hashes can't collide by
  // field-order coincidence across sections.
  EXPECT_NE(core::canonical_text(base).find("[arch]"), std::string::npos);
}

}  // namespace
}  // namespace ara::dse
