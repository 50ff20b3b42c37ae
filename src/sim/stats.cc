#include "sim/stats.h"

#include <algorithm>
#include <iomanip>

namespace ara::sim {

Histogram::Histogram(std::string name, std::uint64_t bucket_width,
                     std::size_t buckets)
    : name_(std::move(name)),
      width_(bucket_width == 0 ? 1 : bucket_width),
      buckets_(buckets + 1, 0) {}

void Histogram::record(std::uint64_t v) {
  std::size_t idx = static_cast<std::size_t>(v / width_);
  if (idx >= buckets_.size() - 1) idx = buckets_.size() - 1;
  ++buckets_[idx];
  if (count_ == 0 || v < min_) min_ = v;
  ++count_;
  sum_ += v;
  max_ = std::max(max_, v);
}

std::uint64_t Histogram::percentile(double fraction) const {
  if (count_ == 0) return 0;
  const auto target = static_cast<std::uint64_t>(
      fraction * static_cast<double>(count_));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen <= target) continue;
    // Overflow bucket has no upper edge; the observed max is the best
    // point estimate there.
    if (i + 1 == buckets_.size()) return max_;
    return i * width_ + width_ / 2;
  }
  return max_;
}

Counter& StatRegistry::counter(const std::string& name) {
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>(name);
  return *slot;
}

Accumulator& StatRegistry::accumulator(const std::string& name) {
  auto& slot = accumulators_[name];
  if (!slot) slot = std::make_unique<Accumulator>(name);
  return *slot;
}

Histogram& StatRegistry::histogram(const std::string& name,
                                   std::uint64_t bucket_width,
                                   std::size_t buckets) {
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(name, bucket_width, buckets);
  return *slot;
}

const Counter* StatRegistry::find_counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

std::uint64_t StatRegistry::counter_sum_by_prefix(
    const std::string& prefix) const {
  std::uint64_t sum = 0;
  for (auto it = counters_.lower_bound(prefix); it != counters_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    sum += it->second->value();
  }
  return sum;
}

double StatRegistry::accumulator_sum_by_prefix(
    const std::string& prefix) const {
  double sum = 0;
  for (auto it = accumulators_.lower_bound(prefix); it != accumulators_.end();
       ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    sum += it->second->sum();
  }
  return sum;
}

void StatRegistry::print(std::ostream& os) const {
  os << std::left;
  for (const auto& [name, c] : counters_) {
    os << std::setw(48) << name << " " << c->value() << "\n";
  }
  for (const auto& [name, a] : accumulators_) {
    os << std::setw(48) << name << " sum=" << a->sum() << " mean=" << a->mean()
       << " n=" << a->count() << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    os << std::setw(48) << name << " n=" << h->count() << " mean=" << h->mean()
       << " max=" << h->max_seen() << "\n";
  }
}

}  // namespace ara::sim
