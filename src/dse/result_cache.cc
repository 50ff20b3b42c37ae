#include "dse/result_cache.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "core/config_digest.h"
#include "obs/json_io.h"

namespace ara::dse {

namespace {

constexpr int kExactDigits = 17;

void member(std::string& out, bool& first, const char* name) {
  out += first ? "\"" : ",\"";
  first = false;
  out += name;
  out += "\":";
}

void put(std::string& out, bool& first, const char* name, double v) {
  member(out, first, name);
  obs::append_number(out, v, kExactDigits);
}

void put(std::string& out, bool& first, const char* name, std::uint64_t v) {
  member(out, first, name);
  obs::append_number(out, v);
}

void put(std::string& out, bool& first, const char* name,
         const std::string& v) {
  member(out, first, name);
  out += '"';
  obs::append_escaped(out, v);
  out += '"';
}

std::string hex_key(std::uint64_t key) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

bool get(const obs::JsonValue& obj, const char* name, double* out) {
  const obs::JsonValue* v = obj.find(name);
  if (v == nullptr || !v->is_number()) return false;
  *out = v->as_double();
  return true;
}

bool get(const obs::JsonValue& obj, const char* name, std::uint64_t* out) {
  const obs::JsonValue* v = obj.find(name);
  if (v == nullptr || !v->is_number()) return false;
  *out = v->as_u64();
  return true;
}

bool get(const obs::JsonValue& obj, const char* name, std::string* out) {
  const obs::JsonValue* v = obj.find(name);
  if (v == nullptr || !v->is_string()) return false;
  *out = v->text;
  return true;
}

}  // namespace

ResultCache::ResultCache(std::string dir, std::uint64_t salt)
    : dir_(std::move(dir)), salt_(salt) {}

std::uint64_t ResultCache::key(const core::ArchConfig& config,
                               const workloads::Workload& workload,
                               std::uint64_t salt) {
  std::string text = "[salt]\nversion=" + std::to_string(salt) + "\n";
  text += core::canonical_text(config);
  text += core::canonical_text(workload);
  return core::fnv1a64(text);
}

std::string ResultCache::entry_path(std::uint64_t key) const {
  return dir_ + "/" + hex_key(key) + ".json";
}

std::string ResultCache::to_json(std::uint64_t key, std::uint64_t salt,
                                 const Entry& entry) {
  std::string out;
  append_json(out, key, salt, entry);
  out += '\n';
  return out;
}

void ResultCache::append_json(std::string& out, std::uint64_t key,
                              std::uint64_t salt, const Entry& entry) {
  out += '{';
  bool first = true;
  put(out, first, "key", hex_key(key));
  put(out, first, "salt", salt);
  const auto& r = entry.result;
  member(out, first, "result");
  {
    out += '{';
    bool f = true;
    put(out, f, "workload", r.workload);
    put(out, f, "config", r.config);
    put(out, f, "makespan", r.makespan);
    put(out, f, "jobs", r.jobs);
    member(out, f, "energy");
    {
      out += '{';
      bool e = true;
      put(out, e, "abb_j", r.energy.abb_j);
      put(out, e, "spm_j", r.energy.spm_j);
      put(out, e, "abb_spm_xbar_j", r.energy.abb_spm_xbar_j);
      put(out, e, "island_net_j", r.energy.island_net_j);
      put(out, e, "dma_j", r.energy.dma_j);
      put(out, e, "noc_j", r.energy.noc_j);
      put(out, e, "l2_j", r.energy.l2_j);
      put(out, e, "dram_j", r.energy.dram_j);
      put(out, e, "mono_j", r.energy.mono_j);
      put(out, e, "leakage_j", r.energy.leakage_j);
      put(out, e, "platform_j", r.energy.platform_j);
      out += '}';
    }
    member(out, f, "area");
    {
      out += '{';
      bool a = true;
      put(out, a, "islands_mm2", r.area.islands_mm2);
      put(out, a, "noc_mm2", r.area.noc_mm2);
      put(out, a, "l2_mm2", r.area.l2_mm2);
      put(out, a, "mc_mm2", r.area.mc_mm2);
      out += '}';
    }
    put(out, f, "avg_abb_utilization", r.avg_abb_utilization);
    put(out, f, "peak_abb_utilization", r.peak_abb_utilization);
    put(out, f, "l2_hit_rate", r.l2_hit_rate);
    put(out, f, "dram_bytes", r.dram_bytes);
    put(out, f, "chains_direct", r.chains_direct);
    put(out, f, "chains_spilled", r.chains_spilled);
    put(out, f, "tasks_queued", r.tasks_queued);
    put(out, f, "noc_peak_link_utilization", r.noc_peak_link_utilization);
    put(out, f, "job_latency_mean", r.job_latency_mean);
    put(out, f, "job_latency_p50", r.job_latency_p50);
    put(out, f, "job_latency_p95", r.job_latency_p95);
    put(out, f, "job_latency_max", r.job_latency_max);
    out += '}';
  }
  put(out, first, "events", entry.events);
  member(out, first, "event_kinds");
  {
    out += '{';
    bool k = true;
    for (std::size_t i = 0; i < sim::kNumEventKinds; ++i) {
      put(out, k, sim::event_kind_name(static_cast<sim::EventKind>(i)),
          entry.event_kinds[i].count);
    }
    out += '}';
  }
  member(out, first, "metrics");
  obs::MetricsExporter::append_json(out, entry.metrics, kExactDigits);
  out += '}';
}

bool ResultCache::from_json(const std::string& text, std::uint64_t key,
                            std::uint64_t salt, Entry* out) {
  // parse_json enforces the full grammar: a truncated or hand-edited file
  // is a clean miss.
  obs::JsonValue root;
  if (!obs::parse_json(text, &root) || !root.is_object()) return false;

  std::string stored_key;
  std::uint64_t stored_salt = 0;
  if (!get(root, "key", &stored_key) || stored_key != hex_key(key)) {
    return false;
  }
  if (!get(root, "salt", &stored_salt) || stored_salt != salt) return false;

  const obs::JsonValue* result = root.find("result");
  const obs::JsonValue* metrics = root.find("metrics");
  if (result == nullptr || !result->is_object() || metrics == nullptr) {
    return false;
  }

  Entry e;
  auto& r = e.result;
  const obs::JsonValue* energy = result->find("energy");
  const obs::JsonValue* area = result->find("area");
  if (energy == nullptr || !energy->is_object() || area == nullptr ||
      !area->is_object()) {
    return false;
  }
  bool ok = get(*result, "workload", &r.workload) &&
            get(*result, "config", &r.config) &&
            get(*result, "makespan", &r.makespan) &&
            get(*result, "jobs", &r.jobs) &&
            get(*energy, "abb_j", &r.energy.abb_j) &&
            get(*energy, "spm_j", &r.energy.spm_j) &&
            get(*energy, "abb_spm_xbar_j", &r.energy.abb_spm_xbar_j) &&
            get(*energy, "island_net_j", &r.energy.island_net_j) &&
            get(*energy, "dma_j", &r.energy.dma_j) &&
            get(*energy, "noc_j", &r.energy.noc_j) &&
            get(*energy, "l2_j", &r.energy.l2_j) &&
            get(*energy, "dram_j", &r.energy.dram_j) &&
            get(*energy, "mono_j", &r.energy.mono_j) &&
            get(*energy, "leakage_j", &r.energy.leakage_j) &&
            get(*energy, "platform_j", &r.energy.platform_j) &&
            get(*area, "islands_mm2", &r.area.islands_mm2) &&
            get(*area, "noc_mm2", &r.area.noc_mm2) &&
            get(*area, "l2_mm2", &r.area.l2_mm2) &&
            get(*area, "mc_mm2", &r.area.mc_mm2) &&
            get(*result, "avg_abb_utilization", &r.avg_abb_utilization) &&
            get(*result, "peak_abb_utilization", &r.peak_abb_utilization) &&
            get(*result, "l2_hit_rate", &r.l2_hit_rate) &&
            get(*result, "dram_bytes", &r.dram_bytes) &&
            get(*result, "chains_direct", &r.chains_direct) &&
            get(*result, "chains_spilled", &r.chains_spilled) &&
            get(*result, "tasks_queued", &r.tasks_queued) &&
            get(*result, "noc_peak_link_utilization",
                &r.noc_peak_link_utilization) &&
            get(*result, "job_latency_mean", &r.job_latency_mean) &&
            get(*result, "job_latency_p50", &r.job_latency_p50) &&
            get(*result, "job_latency_p95", &r.job_latency_p95) &&
            get(*result, "job_latency_max", &r.job_latency_max) &&
            get(root, "events", &e.events);
  if (!ok) return false;

  const obs::JsonValue* kinds = root.find("event_kinds");
  if (kinds == nullptr || !kinds->is_object()) return false;
  for (std::size_t i = 0; i < sim::kNumEventKinds; ++i) {
    if (!get(*kinds, sim::event_kind_name(static_cast<sim::EventKind>(i)),
             &e.event_kinds[i].count)) {
      return false;
    }
  }
  if (!obs::MetricsExporter::snapshot_from_json(*metrics, &e.metrics)) {
    return false;
  }
  *out = std::move(e);
  return true;
}

bool ResultCache::lookup(std::uint64_t key, Entry* out) {
  return probe(key, out, /*claim=*/false) == Claim::kHit;
}

ResultCache::Claim ResultCache::claim(std::uint64_t key, Entry* out) {
  return probe(key, out, /*claim=*/true);
}

ResultCache::Claim ResultCache::probe(std::uint64_t key, Entry* out,
                                      bool claim) {
  {
    common::MutexLock lock(mu_);
    const auto it = memory_.find(key);
    if (it != memory_.end()) {
      *out = it->second;
      ++hits_;
      return Claim::kHit;
    }
    if (claim && !claims_.insert(key).second) {
      ++misses_;
      ++coalesced_;
      return Claim::kFollow;
    }
    if (dir_.empty()) {
      ++misses_;
      return Claim::kLead;
    }
  }
  // No file I/O under mu_. A claimant holds the key meanwhile, so
  // concurrent claimants follow it instead of reading the file too.
  Entry e;
  const bool on_disk = read_disk_entry(key, &e);
  common::MutexLock lock(mu_);
  if (!on_disk) {
    ++misses_;
    return Claim::kLead;
  }
  ++hits_;
  ++disk_hits_;
  memory_[key] = e;
  retire(key);
  *out = std::move(e);
  return Claim::kHit;
}

bool ResultCache::read_disk_entry(std::uint64_t key, Entry* out) const {
  if (dir_.empty()) return false;
  std::ifstream in(entry_path(key));
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  // A corrupt or stale file is a miss; the fresh result overwrites it on
  // insert.
  return from_json(buf.str(), key, salt_, out);
}

void ResultCache::write_disk_entry(std::uint64_t key,
                                   const Entry& entry) const {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  // Write-then-rename so a concurrent reader never sees a partial file.
  const std::string path = entry_path(key);
  const std::string tmp = path + ".tmp";
  std::ofstream os(tmp, std::ios::trunc);
  if (os) {
    os << to_json(key, salt_, entry);
    os.close();
    if (os) {
      std::filesystem::rename(tmp, path, ec);
    }
    if (ec) std::filesystem::remove(tmp, ec);
  }
}

void ResultCache::insert(std::uint64_t key, const Entry& entry) {
  if (!dir_.empty()) {
    // All writers share the "<path>.tmp" scratch name; concurrent inserts
    // of the same key must not interleave bytes in it (see disk_mu_).
    common::MutexLock lock(disk_mu_);
    write_disk_entry(key, entry);
  }
  common::MutexLock lock(mu_);
  memory_[key] = entry;
  retire(key);
}

void ResultCache::abandon(std::uint64_t key) {
  common::MutexLock lock(mu_);
  retire(key);
}

bool ResultCache::wait(std::uint64_t key, Entry* out) {
  common::MutexLock lock(mu_);
  while (claims_.contains(key)) cv_.wait(mu_);
  const auto it = memory_.find(key);
  if (it == memory_.end()) return false;
  *out = it->second;
  return true;
}

void ResultCache::retire(std::uint64_t key) {
  if (claims_.erase(key) != 0) cv_.notify_all();
}

std::uint64_t ResultCache::hits() const {
  common::MutexLock lock(mu_);
  return hits_;
}

std::uint64_t ResultCache::misses() const {
  common::MutexLock lock(mu_);
  return misses_;
}

std::uint64_t ResultCache::disk_hits() const {
  common::MutexLock lock(mu_);
  return disk_hits_;
}

std::uint64_t ResultCache::coalesced() const {
  common::MutexLock lock(mu_);
  return coalesced_;
}

std::size_t ResultCache::size() const {
  common::MutexLock lock(mu_);
  return memory_.size();
}

}  // namespace ara::dse
