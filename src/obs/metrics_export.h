// Machine-readable metrics export for the StatRegistry.
//
// MetricsSnapshot is a plain-value copy of a registry's contents (counters,
// accumulators, histogram summaries + buckets) that can outlive the System
// that produced it — design-space sweeps attach one per point so reports
// and exporters can drill into any point after the simulators are gone.
// MetricsExporter serializes snapshots as JSON (nested by stat kind) or CSV
// (one flat row per stat), the two formats downstream tooling actually
// consumes.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/json_io.h"
#include "sim/stats.h"

namespace ara::obs {

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct AccumulatorSample {
  std::string name;
  double sum = 0;
  std::uint64_t count = 0;
  double mean = 0;
  double min = 0;
  double max = 0;
};

struct HistogramSample {
  std::string name;
  std::uint64_t count = 0;
  double mean = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p95 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t bucket_width = 0;
  std::vector<std::uint64_t> buckets;  // last bucket = overflow
};

/// Value snapshot of a full StatRegistry, name-sorted within each kind.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<AccumulatorSample> accumulators;
  std::vector<HistogramSample> histograms;

  bool empty() const {
    return counters.empty() && accumulators.empty() && histograms.empty();
  }

  /// Sum of all counter samples whose name starts with `prefix` (mirrors
  /// StatRegistry::counter_sum_by_prefix for detached snapshots).
  std::uint64_t counter_sum_by_prefix(const std::string& prefix) const;

  static MetricsSnapshot capture(const sim::StatRegistry& registry);
};

class MetricsExporter {
 public:
  /// The snapshot writer: append one JSON object (no trailing newline),
  ///   {"counters":{...},"accumulators":{...},"histograms":{...}}
  /// with `digits` significant digits per double (json_io.h). The ostream
  /// writers below wrap it.
  static void append_json(std::string& out, const MetricsSnapshot& snapshot,
                          int digits);

  /// Full snapshot as one JSON object (12-digit doubles) plus a newline.
  static void write_json(std::ostream& os, const MetricsSnapshot& snapshot);

  /// Flat CSV: kind,name,value,count,mean,min,max,p50,p95,p99.
  static void write_csv(std::ostream& os, const MetricsSnapshot& snapshot);

  /// Labeled multi-point export (sweeps): {"points":[{"label":..,
  /// "metrics":{...}}, ...]}.
  static void write_labeled_json(
      std::ostream& os,
      const std::vector<std::pair<std::string, const MetricsSnapshot*>>&
          points);

  /// Write to `path`, picking the format by extension (".csv" -> CSV,
  /// anything else -> JSON). Returns false when the file cannot be written.
  static bool write_file(const std::string& path,
                         const MetricsSnapshot& snapshot);

  /// Snapshot object with 17-significant-digit doubles (no trailing
  /// newline): the on-disk result cache needs a bit-exact round-trip,
  /// which the display-oriented 12-digit write_json does not guarantee.
  static void write_snapshot_exact(std::ostream& os,
                                   const MetricsSnapshot& snapshot);

  /// Rebuild a snapshot from a parsed snapshot object (as produced by
  /// write_json / write_snapshot_exact). Returns false when `value` does
  /// not have the expected shape.
  static bool snapshot_from_json(const JsonValue& value,
                                 MetricsSnapshot* out);
};

}  // namespace ara::obs
