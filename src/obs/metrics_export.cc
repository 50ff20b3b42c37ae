#include "obs/metrics_export.h"

#include <fstream>

namespace ara::obs {

namespace {

/// Display-oriented precision for write_json/write_csv; the exact writer
/// passes 17 (see append_number in json_io.h).
constexpr int kDisplayDigits = 12;
constexpr int kExactDigits = 17;

/// CSV fields are stat names and numbers; quote only if a name ever carries
/// a delimiter.
void csv_field(std::ostream& os, const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) {
    os << s;
    return;
  }
  os << '"';
  for (char c : s) {
    if (c == '"') os << '"';
    os << c;
  }
  os << '"';
}

}  // namespace

std::uint64_t MetricsSnapshot::counter_sum_by_prefix(
    const std::string& prefix) const {
  std::uint64_t sum = 0;
  for (const auto& c : counters) {
    if (c.name.compare(0, prefix.size(), prefix) == 0) sum += c.value;
  }
  return sum;
}

MetricsSnapshot MetricsSnapshot::capture(const sim::StatRegistry& registry) {
  MetricsSnapshot snap;
  snap.counters.reserve(registry.counters().size());
  for (const auto& [name, c] : registry.counters()) {
    snap.counters.push_back({name, c->value()});
  }
  snap.accumulators.reserve(registry.accumulators().size());
  for (const auto& [name, a] : registry.accumulators()) {
    snap.accumulators.push_back(
        {name, a->sum(), a->count(), a->mean(), a->min(), a->max()});
  }
  snap.histograms.reserve(registry.histograms().size());
  for (const auto& [name, h] : registry.histograms()) {
    HistogramSample s;
    s.name = name;
    s.count = h->count();
    s.mean = h->mean();
    s.min = h->min_seen();
    s.max = h->max_seen();
    s.p50 = h->percentile(0.50);
    s.p95 = h->percentile(0.95);
    s.p99 = h->percentile(0.99);
    s.bucket_width = h->bucket_width();
    s.buckets = h->buckets();
    snap.histograms.push_back(std::move(s));
  }
  return snap;
}

void MetricsExporter::append_json(std::string& out,
                                  const MetricsSnapshot& snapshot,
                                  int digits) {
  out += "{\"counters\":{";
  bool first = true;
  for (const auto& c : snapshot.counters) {
    out += first ? "\"" : ",\"";
    first = false;
    append_escaped(out, c.name);
    out += "\":";
    append_number(out, c.value);
  }
  out += "},\"accumulators\":{";
  first = true;
  for (const auto& a : snapshot.accumulators) {
    out += first ? "\"" : ",\"";
    first = false;
    append_escaped(out, a.name);
    out += "\":{\"sum\":";
    append_number(out, a.sum, digits);
    out += ",\"count\":";
    append_number(out, a.count);
    out += ",\"mean\":";
    append_number(out, a.mean, digits);
    out += ",\"min\":";
    append_number(out, a.min, digits);
    out += ",\"max\":";
    append_number(out, a.max, digits);
    out += '}';
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& h : snapshot.histograms) {
    out += first ? "\"" : ",\"";
    first = false;
    append_escaped(out, h.name);
    out += "\":{\"count\":";
    append_number(out, h.count);
    out += ",\"mean\":";
    append_number(out, h.mean, digits);
    out += ",\"min\":";
    append_number(out, h.min);
    out += ",\"max\":";
    append_number(out, h.max);
    out += ",\"p50\":";
    append_number(out, h.p50);
    out += ",\"p95\":";
    append_number(out, h.p95);
    out += ",\"p99\":";
    append_number(out, h.p99);
    out += ",\"bucket_width\":";
    append_number(out, h.bucket_width);
    out += ",\"buckets\":[";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) out += ',';
      append_number(out, h.buckets[i]);
    }
    out += "]}";
  }
  out += "}}";
}

void MetricsExporter::write_json(std::ostream& os,
                                 const MetricsSnapshot& snapshot) {
  std::string out;
  append_json(out, snapshot, kDisplayDigits);
  out += '\n';
  os << out;
}

void MetricsExporter::write_snapshot_exact(std::ostream& os,
                                           const MetricsSnapshot& snapshot) {
  std::string out;
  append_json(out, snapshot, kExactDigits);
  os << out;
}

bool MetricsExporter::snapshot_from_json(const JsonValue& value,
                                         MetricsSnapshot* out) {
  *out = MetricsSnapshot{};
  const JsonValue* counters = value.find("counters");
  const JsonValue* accumulators = value.find("accumulators");
  const JsonValue* histograms = value.find("histograms");
  if (counters == nullptr || !counters->is_object() ||
      accumulators == nullptr || !accumulators->is_object() ||
      histograms == nullptr || !histograms->is_object()) {
    return false;
  }
  for (const auto& [name, v] : counters->members) {
    if (!v.is_number()) return false;
    out->counters.push_back({name, v.as_u64()});
  }
  for (const auto& [name, v] : accumulators->members) {
    const JsonValue* sum = v.find("sum");
    const JsonValue* count = v.find("count");
    const JsonValue* mean = v.find("mean");
    const JsonValue* min = v.find("min");
    const JsonValue* max = v.find("max");
    if (sum == nullptr || count == nullptr || mean == nullptr ||
        min == nullptr || max == nullptr) {
      return false;
    }
    out->accumulators.push_back({name, sum->as_double(), count->as_u64(),
                                 mean->as_double(), min->as_double(),
                                 max->as_double()});
  }
  for (const auto& [name, v] : histograms->members) {
    const JsonValue* count = v.find("count");
    const JsonValue* mean = v.find("mean");
    const JsonValue* min = v.find("min");
    const JsonValue* max = v.find("max");
    const JsonValue* p50 = v.find("p50");
    const JsonValue* p95 = v.find("p95");
    const JsonValue* p99 = v.find("p99");
    const JsonValue* width = v.find("bucket_width");
    const JsonValue* buckets = v.find("buckets");
    if (count == nullptr || mean == nullptr || min == nullptr ||
        max == nullptr || p50 == nullptr || p95 == nullptr ||
        p99 == nullptr || width == nullptr || buckets == nullptr ||
        !buckets->is_array()) {
      return false;
    }
    HistogramSample s;
    s.name = name;
    s.count = count->as_u64();
    s.mean = mean->as_double();
    s.min = min->as_u64();
    s.max = max->as_u64();
    s.p50 = p50->as_u64();
    s.p95 = p95->as_u64();
    s.p99 = p99->as_u64();
    s.bucket_width = width->as_u64();
    s.buckets.reserve(buckets->items.size());
    for (const auto& b : buckets->items) {
      if (!b.is_number()) return false;
      s.buckets.push_back(b.as_u64());
    }
    out->histograms.push_back(std::move(s));
  }
  return true;
}

void MetricsExporter::write_csv(std::ostream& os,
                                const MetricsSnapshot& snapshot) {
  os << "kind,name,value,count,mean,min,max,p50,p95,p99\n";
  for (const auto& c : snapshot.counters) {
    os << "counter,";
    csv_field(os, c.name);
    os << "," << c.value << ",,,,,,,\n";
  }
  for (const auto& a : snapshot.accumulators) {
    os << "accumulator,";
    csv_field(os, a.name);
    os << ",";
    json_number(os, a.sum, kDisplayDigits);
    os << "," << a.count << ",";
    json_number(os, a.mean, kDisplayDigits);
    os << ",";
    json_number(os, a.min, kDisplayDigits);
    os << ",";
    json_number(os, a.max, kDisplayDigits);
    os << ",,,\n";
  }
  for (const auto& h : snapshot.histograms) {
    os << "histogram,";
    csv_field(os, h.name);
    os << ",," << h.count << ",";
    json_number(os, h.mean, kDisplayDigits);
    os << "," << h.min << ","
       << h.max << "," << h.p50 << "," << h.p95 << "," << h.p99 << "\n";
  }
}

void MetricsExporter::write_labeled_json(
    std::ostream& os,
    const std::vector<std::pair<std::string, const MetricsSnapshot*>>&
        points) {
  std::string out = "{\"points\":[";
  bool first = true;
  for (const auto& [label, snap] : points) {
    if (!first) out += ',';
    first = false;
    out += "\n{\"label\":\"";
    append_escaped(out, label);
    out += "\",\"metrics\":";
    append_json(out, *snap, kDisplayDigits);
    out += '}';
  }
  out += "\n]}\n";
  os << out;
}

bool MetricsExporter::write_file(const std::string& path,
                                 const MetricsSnapshot& snapshot) {
  std::ofstream os(path);
  if (!os) return false;
  const bool csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  if (csv) {
    write_csv(os, snapshot);
  } else {
    write_json(os, snapshot);
  }
  return static_cast<bool>(os);
}

}  // namespace ara::obs
