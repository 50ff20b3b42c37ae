// ara_perfbench: the repository benchmark driver.
//
// Runs one workload (sweep, point or served) for a given seed and duration,
// checks every simulated output against pinned digests, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct","attempted","failed","metrics"}. See
// perfbench/README.md for the workloads, the metric -> layer map and how
// to read the trace.
//
// The driver only uses the simulator's public API: workloads::make_benchmark,
// core::System (and the component accessors it exposes), dse::run, and the
// ara_serve daemon over its socket. All host time is read through
// obs::MonotonicClock::host(), the repository's one sanctioned clock.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/run_result.h"
#include "core/system.h"
#include "dse/spec.h"
#include "sim/rng.h"
#include "workloads/workload.h"

namespace perfbench {

// ------------------------------------------------------------------ time

std::uint64_t now_ns();
inline double seconds_between(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// Nearest-rank quantile of `v` (q in [0, 1]); 0 for an empty vector.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// --------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Set in a child process: the index of the one unit it runs.
  std::optional<std::uint64_t> child_index;
  /// Negative control: flip one bit of every pinned digest, so every
  /// checked output must be reported as a failure.
  bool corrupt_digests = false;
  std::string digests_path;  // perfbench/digests.txt
  std::string serve_binary;  // the ara_serve built beside the driver
  std::string commit = "none";
  std::string source_digest = "none";
};

// ------------------------------------------------------------ the grid

/// One point of the paper's Fig. 6-9 grid at one invocation scale.
struct GridPoint {
  std::string bench;
  std::uint32_t islands = 3;
  std::size_t net = 0;  // index into network_labels()
  double scale = 0.05;

  ara::dse::PointSpec spec() const;
  /// "<scale> <bench> <islands> <net>", the key of the digest table.
  std::string label() const;
};

/// proxy, ring1x16, ring1x32, ring2x32, ring3x32 (Figs. 7-9).
const std::vector<std::string>& network_labels();
const std::vector<std::uint32_t>& island_counts();
/// Chaining-light and chaining-heavy benchmarks of the paper.
const std::vector<std::string>& light_benchmarks();
const std::vector<std::string>& heavy_benchmarks();

/// Invocation scales each workload simulates; every grid point at each of
/// them has a pinned digest.
inline constexpr double kSweepScale = 0.05;
inline constexpr double kPointScale = 0.15;
const std::vector<double>& served_scales();
std::vector<double> pinned_scales();

/// Every grid point at `scale` (7 benchmarks x 4 island counts x 5 nets).
std::vector<GridPoint> grid_at(double scale);

// --------------------------------------------------------- output checks

/// Failed / attempted operations, shared by every thread of a run.
class Tally {
 public:
  void ok() { attempted_.fetch_add(1, std::memory_order_relaxed); }
  /// Count a failed operation and print why (first few only).
  void fail(const std::string& why);
  /// Add a child process's tallies (it printed its own failures).
  void merge(std::uint64_t attempted, std::uint64_t failed) {
    attempted_.fetch_add(attempted);
    failed_.fetch_add(failed);
  }
  std::uint64_t attempted() const { return attempted_.load(); }
  std::uint64_t failed() const { return failed_.load(); }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
};

/// Pinned digests of ResultCache::to_json for every grid point, keyed by
/// GridPoint::label(), plus each point's simulated makespan.
class DigestTable {
 public:
  /// False (with *error) when the file is unreadable or was pinned under
  /// another dse::kSimVersionSalt.
  bool load(const std::string& path, bool corrupt, std::string* error);
  /// Count one checked output in `tally`: a failure unless `entry_json`
  /// digests to the pinned value for `p`.
  void check(const GridPoint& p, std::string_view entry_json,
             Tally& tally) const;
  std::uint64_t makespan(const GridPoint& p) const;

 private:
  struct Pin {
    std::uint64_t digest = 0;
    std::uint64_t makespan = 0;
  };
  std::map<std::string, Pin> pins_;
};

/// FNV-1a of the exact entry bytes dse::ResultCache::to_json writes (its
/// trailing newline stripped, as the serve protocol embeds it).
std::uint64_t entry_digest(std::string_view entry_json);

// ---------------------------------------------------------------- trace

/// In-memory span recorder for the traced run. Spans carry a name, start,
/// end, parent (the span open on the same thread when it began) and a point
/// or request id; they are written out once, when the run ends.
class Tracer {
 public:
  struct Record {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int64_t parent = -1;
    std::uint64_t id = 0;
  };

  std::int64_t open(const char* name, std::uint64_t id) ARA_EXCLUDES(mu_);
  void close(std::int64_t index) ARA_EXCLUDES(mu_);

  /// The innermost span open on this thread (-1 when none): hand it to a
  /// worker thread's SpanParent so the worker's spans nest under it.
  static std::int64_t current();

  /// Append spans recorded by a child process; its top-level spans nest
  /// under `parent`.
  void adopt(const std::vector<Record>& spans, std::int64_t parent)
      ARA_EXCLUDES(mu_);
  std::vector<Record> records() const ARA_EXCLUDES(mu_);

  /// Durations in seconds of every span called `name`.
  std::vector<double> durations(const std::string& name) const
      ARA_EXCLUDES(mu_);
  /// Self time per span name: each span minus the part of it its child
  /// spans cover (children on several threads may overlap), summed.
  std::map<std::string, double> self_seconds() const ARA_EXCLUDES(mu_);
  /// Write {"record":..., "self_s":..., "spans":[...]} to `path`.
  bool write(const std::string& path, const std::string& record_json) const
      ARA_EXCLUDES(mu_);

 private:
  mutable ara::common::Mutex mu_;
  std::vector<Record> spans_ ARA_GUARDED_BY(mu_);
};

/// RAII span; a null tracer makes it a no-op.
class Span {
 public:
  Span(Tracer* tracer, const char* name, std::uint64_t id = 0)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->open(name, id) : -1) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::int64_t index_;
};

/// Parents the spans this thread opens under `parent`, a span open on the
/// thread that started this one (see Tracer::current).
class SpanParent {
 public:
  explicit SpanParent(std::int64_t parent);
  ~SpanParent();
  SpanParent(const SpanParent&) = delete;
  SpanParent& operator=(const SpanParent&) = delete;
};

// --------------------------------------------------------------- counts

/// Deterministic work counts read through public accessors after a run.
/// Sums over points, except intervals_max (a maximum).
struct Counts {
  std::uint64_t points = 0;
  std::uint64_t makespan = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t intervals_max = 0;
  std::uint64_t noc_reservations = 0;
  std::uint64_t noc_packets = 0;
  std::uint64_t noc_bytes = 0;
  std::uint64_t l2_accesses = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t mc_accesses = 0;
  std::uint64_t dma_transfers = 0;
  std::uint64_t net_byte_hops = 0;
  std::uint64_t tasks_started = 0;
  std::uint64_t tasks_queued = 0;
  std::uint64_t chains_direct = 0;
  std::uint64_t chains_spilled = 0;
  std::uint64_t gam_queued = 0;

  void add(const Counts& o);
  /// name -> value, in a fixed order (the determinism record).
  std::vector<std::pair<std::string, std::uint64_t>> fields() const;
  /// Inverse of fields(), from a child's "count.<name>" fields.
  static Counts from_fields(const std::map<std::string, double>& fields);
};

// -------------------------------------------------------------- children

/// One unit of work (a sweep, a point) run in a fresh process — this
/// binary with --child — the way a user's ara_sim or design_space_explorer
/// invocation runs, so no unit inherits another's heap.
struct ChildResult {
  std::map<std::string, double> fields;
  std::vector<double> series;
  double peak_rss_mb = 0;
};

/// Run unit `index` of opt.workload in a child. Its tallies merge into
/// `tally`; with a tracer, the child records spans, which nest under the
/// span open on this thread.
ChildResult run_child(const Options& opt, std::uint64_t index,
                      Tracer* tracer, Tally& tally);

/// Child side: print the unit's results for run_child to read.
void emit_child(const std::map<std::string, double>& fields,
                const std::vector<double>& series, const Tracer* tracer,
                const Tally& tally);

/// The per-workload child bodies.
void child_sweep(const Options& opt, const DigestTable& digests,
                 Tally& tally, Tracer* tracer);
void child_point(const Options& opt, const DigestTable& digests,
                 Tally& tally, Tracer* tracer);

/// One point simulated on this thread through core::System, timed from
/// outside: make_benchmark, the System build, run(), and its destruction.
struct PointRun {
  ara::core::RunResult result;
  Counts counts;
  std::string entry_json;
  double make_s = 0;
  double build_s = 0;
  double run_s = 0;
  double teardown_s = 0;
};

/// Simulate `p`. Spans go to `tracer` when it is non-null, with `id` as
/// the point id.
PointRun simulate_point(const GridPoint& p, Tracer* tracer, std::uint64_t id);

/// Simulate `points` on `threads` threads (one System per thread at a
/// time), check each entry against `digests`, and return the summed
/// counts.
Counts count_points(const std::vector<GridPoint>& points,
                    const DigestTable& digests, Tally& tally, Tracer* tracer,
                    unsigned threads);

// --------------------------------------------------------------- drills

/// Host nanoseconds per call of each layer primitive, driven directly on a
/// System built for `ref` with seeded streams sized from `counts`.
struct DrillResult {
  double submit_ns = 0;
  double transfer_ns = 0;
  double read_ns = 0;
  double write_ns = 0;
  double chain_ns = 0;
  double dma_load_ns = 0;
};
DrillResult run_drills(const GridPoint& ref, const Counts& counts,
                       std::uint64_t seed, Tracer* tracer);

// --------------------------------------------------------------- report

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Metrics of one run, printed as "name value unit" lines and in the final
/// JSON object.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;
  double get(const std::string& name) const;
  /// Print every metric as a human-readable line.
  void print_lines() const;
  /// {"name":{"value":v,"unit":"u"},...} for `defs`, in order; a metric
  /// this workload does not exercise reads 0.
  std::string json(const std::vector<MetricDef>& defs) const;
  /// Deterministic counts recorded for the cross-run check, name -> value.
  std::map<std::string, std::uint64_t> counts;

 private:
  struct Value {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Value> values_;
};

/// Record the per-layer metrics derived from `counts` (the sim, noc, mem,
/// island and abc rows) and the drill times.
void report_counts(const Counts& counts, Report& report);
void report_drills(const DrillResult& drills, Report& report);
/// workloads.make_s, core.*_s and obs.entry_json_ms from the trace spans.
void report_span_layers(const Tracer& tracer, Report& report);

/// Metrics printed in the final JSON line: every end-to-end metric on an
/// untraced run, every per-layer metric on a traced one.
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

// ------------------------------------------------------------ workloads

/// Each fills `report` with the end-to-end metrics (untraced) or the
/// per-layer ones (traced). Fatal set-up errors throw.
void sweep_workload(const Options& opt, const DigestTable& digests, Tally& tally,
               Report& report, Tracer* tracer);
void point_workload(const Options& opt, const DigestTable& digests, Tally& tally,
               Report& report, Tracer* tracer);
void served_workload(const Options& opt, const DigestTable& digests, Tally& tally,
                Report& report, Tracer* tracer);

/// A seeded 64-bit hash of (seed, salt): every seeded choice goes through it.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt);

/// Seeded Fisher-Yates shuffle.
template <typename T>
void shuffle(std::vector<T>& v, std::uint64_t seed) {
  ara::sim::Rng rng(seed);
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(i)]);
  }
}

}  // namespace perfbench
