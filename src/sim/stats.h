// Statistics collection: named counters, accumulators and histograms,
// owned by a registry so components can declare stats without global state.
//
// Threading: single-owner state, deliberately unannotated (see
// common/thread_annotations.h conventions). A StatRegistry belongs to one
// core::System and is read/written only from that System's thread; cross-
// thread consumers get a value copy via obs::MetricsSnapshot::capture.
// Registration names must follow "<subsystem>.<id>.<stat>" — enforced by
// ara_analyze's stat-grammar analysis.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace ara::sim {

/// Monotonic event counter (e.g. flits transmitted, SPM accesses).
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  void inc(std::uint64_t by = 1) { value_ += by; }
  std::uint64_t value() const { return value_; }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::uint64_t value_ = 0;
};

/// Running scalar accumulator for real-valued quantities (e.g. joules).
class Accumulator {
 public:
  explicit Accumulator(std::string name) : name_(std::move(name)) {}
  void add(double v) {
    sum_ += v;
    ++n_;
    if (v < min_ || n_ == 1) min_ = v;
    if (v > max_ || n_ == 1) max_ = v;
  }
  double sum() const { return sum_; }
  std::uint64_t count() const { return n_; }
  double mean() const { return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_); }
  double min() const { return n_ == 0 ? 0.0 : min_; }
  double max() const { return n_ == 0 ? 0.0 : max_; }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  double sum_ = 0, min_ = 0, max_ = 0;
  std::uint64_t n_ = 0;
};

/// Fixed-bucket histogram for latency-style distributions.
class Histogram {
 public:
  /// Buckets: [0,width), [width,2*width), ..., plus an overflow bucket.
  Histogram(std::string name, std::uint64_t bucket_width, std::size_t buckets);

  void record(std::uint64_t v);
  std::uint64_t count() const { return count_; }
  std::uint64_t bucket_width() const { return width_; }
  double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  std::uint64_t max_seen() const { return max_; }
  std::uint64_t min_seen() const { return count_ == 0 ? 0 : min_; }
  /// Value below which `fraction` (0..1) of samples fall, reported as the
  /// containing bucket's midpoint (bucket-granular; overflow reports the
  /// true max). The upper bound was reported before PR 7 — it overstated
  /// p50 for distributions narrower than one bucket.
  std::uint64_t percentile(double fraction) const;
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::uint64_t width_;
  std::vector<std::uint64_t> buckets_;  // last bucket = overflow
  std::uint64_t count_ = 0, sum_ = 0, max_ = 0, min_ = 0;
};

/// Registry of named stats. Component constructors call counter()/etc. to
/// create-or-fetch; reporting code iterates.
class StatRegistry {
 public:
  Counter& counter(const std::string& name);
  Accumulator& accumulator(const std::string& name);
  Histogram& histogram(const std::string& name, std::uint64_t bucket_width = 64,
                       std::size_t buckets = 64);

  /// Lookup without creation; nullptr when absent.
  const Counter* find_counter(const std::string& name) const;

  /// Raise `name` to the absolute value `value` (create-or-fetch). Used by
  /// end-of-run roll-ups that copy totals tracked in component members into
  /// the registry; counters are monotonic, so a lower value is a no-op.
  void set_counter(const std::string& name, std::uint64_t value) {
    Counter& c = counter(name);
    if (value > c.value()) c.inc(value - c.value());
  }

  /// Sum of all counters whose name starts with `prefix`.
  std::uint64_t counter_sum_by_prefix(const std::string& prefix) const;
  /// Sum of all accumulators whose name starts with `prefix`.
  double accumulator_sum_by_prefix(const std::string& prefix) const;

  /// Human-readable dump of every stat, sorted by name.
  void print(std::ostream& os) const;

  /// Iteration access for exporters (name-sorted by map ordering).
  const std::map<std::string, std::unique_ptr<Counter>>& counters() const {
    return counters_;
  }
  const std::map<std::string, std::unique_ptr<Accumulator>>& accumulators()
      const {
    return accumulators_;
  }
  const std::map<std::string, std::unique_ptr<Histogram>>& histograms() const {
    return histograms_;
  }

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Accumulator>> accumulators_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace ara::sim
