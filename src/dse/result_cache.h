// Content-addressed memoization of sweep-point results.
//
// A design-space sweep re-simulates many (ArchConfig, Workload) pairs that
// earlier sweeps — or earlier points of the same sweep — already ran. Every
// point is a pure function of its configuration and workload, so its
// RunResult and MetricsSnapshot can be memoized by content: the cache key is
// an FNV-1a hash of core::canonical_text(config) + canonical_text(workload)
// + a simulator version salt (kSimVersionSalt, bumped whenever simulation
// semantics change so stale entries miss instead of lying).
//
// Two tiers:
//  - in-process: an unordered_map, always on, mutex-protected;
//  - on-disk (optional, `--cache DIR` / ARA_CACHE): one JSON file per key,
//    written with 17-significant-digit doubles so RunResult round-trips
//    bit-exactly (asserted by tests/result_cache_test.cc). Files are read
//    with the strict obs::parse_json; corrupt or truncated files are
//    treated as misses, never as errors.
//
// Host-dependent observability (wall seconds, self-profile seconds) is NOT
// cached — a hit restores the deterministic fields (result, metrics, event
// count, per-kind dispatch counts) and reports wall_seconds = 0.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/arch_config.h"
#include "core/run_result.h"
#include "obs/metrics_export.h"
#include "sim/event_queue.h"
#include "workloads/workload.h"

namespace ara::dse {

/// Simulator version salt folded into every cache key. Bump when any change
/// alters simulation results (event ordering, cost models, config
/// defaults); on-disk entries written under the old salt then miss cleanly.
/// 3 -> 4: Histogram::percentile now reports bucket midpoints (affects
/// job_latency_p50/p95 in RunResult) and serialized histogram samples
/// carry a "min" field — both change entry bytes.
/// 4 -> 5: MetricsSnapshot gained the six sim.shard.* counters, changing
/// entry bytes. The partitioned kernel that produced them is gone; the
/// counters stay frozen at their serial values (core::System::
/// snapshot_stats) so salt-5 entries stay valid, and the next bump should
/// delete them.
inline constexpr std::uint64_t kSimVersionSalt = 5;

class ResultCache {
 public:
  /// The deterministic portion of a sweep point's outcome.
  struct Entry {
    core::RunResult result;
    obs::MetricsSnapshot metrics;
    /// Events the point's Simulator executed (deterministic).
    std::uint64_t events = 0;
    /// Per-kind dispatch counts. Seconds are host wall-clock and are
    /// zeroed on insert — they never round-trip through the cache.
    std::array<sim::EventKindStats, sim::kNumEventKinds> event_kinds{};
  };

  /// In-process tier only.
  ResultCache() = default;
  /// Adds the on-disk tier rooted at `dir` (created on first store). An
  /// empty dir means memory-only.
  explicit ResultCache(std::string dir, std::uint64_t salt = kSimVersionSalt);

  /// Content hash of a design point under `salt`.
  static std::uint64_t key(const core::ArchConfig& config,
                           const workloads::Workload& workload,
                           std::uint64_t salt = kSimVersionSalt);

  /// Probe memory then disk. A disk hit is promoted into the memory tier.
  bool lookup(std::uint64_t key, Entry* out) ARA_EXCLUDES(mu_, disk_mu_);

  /// Store in memory and (when configured) on disk. Overwrites.
  void insert(std::uint64_t key, const Entry& entry)
      ARA_EXCLUDES(mu_, disk_mu_);

  const std::string& dir() const { return dir_; }
  std::uint64_t salt() const { return salt_; }

  // --- telemetry (each reads its counter under the lock: parallel sweep
  // workers may be mutating the cache while a reporter samples it) ---
  std::uint64_t hits() const ARA_EXCLUDES(mu_);
  std::uint64_t misses() const ARA_EXCLUDES(mu_);
  /// Subset of hits() served by reading a disk file.
  std::uint64_t disk_hits() const ARA_EXCLUDES(mu_);
  std::size_t size() const ARA_EXCLUDES(mu_);

  /// Serialize an entry as one JSON object (exact precision). Exposed for
  /// tests; `key`/`salt` are embedded for validation on load.
  static std::string to_json(std::uint64_t key, std::uint64_t salt,
                             const Entry& entry);
  /// Inverse of to_json. False on malformed JSON, wrong shape, or a
  /// key/salt mismatch.
  static bool from_json(const std::string& text, std::uint64_t key,
                        std::uint64_t salt, Entry* out);

  /// "<dir>/<16-hex-digit-key>.json".
  std::string entry_path(std::uint64_t key) const;

 private:
  /// Serialize one entry to `entry_path(key)` via tmp + rename.
  void write_disk_entry(std::uint64_t key, const Entry& entry) const
      ARA_REQUIRES(disk_mu_);

  // Immutable after construction (safe to read without a lock).
  std::string dir_;
  std::uint64_t salt_ = kSimVersionSalt;

  mutable common::Mutex mu_;
  std::unordered_map<std::uint64_t, Entry> memory_ ARA_GUARDED_BY(mu_);
  std::uint64_t hits_ ARA_GUARDED_BY(mu_) = 0;
  std::uint64_t misses_ ARA_GUARDED_BY(mu_) = 0;
  std::uint64_t disk_hits_ ARA_GUARDED_BY(mu_) = 0;

  /// Guards the on-disk tier's tmp-file protocol. Every writer of a given
  /// cache uses the same "<path>.tmp" scratch name, so two concurrent
  /// insert()s of one key would interleave bytes in the tmp file and then
  /// rename the corrupted result into place; serializing writers (but not
  /// readers — rename is atomic, so lookups may race with it freely) keeps
  /// every published file well-formed. Separate from mu_ so file I/O never
  /// blocks the in-memory fast path.
  mutable common::Mutex disk_mu_;
};

}  // namespace ara::dse
