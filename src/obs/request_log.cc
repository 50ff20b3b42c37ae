#include "obs/request_log.h"

#include <cstdio>
#include <sstream>

#include "obs/json_io.h"

namespace ara::obs {

namespace {

/// Durations are emitted twice: exact integer nanoseconds (so downstream
/// checks like "phases sum to within the total" are exact arithmetic, not
/// float comparisons) and a display-precision total in milliseconds.
constexpr int kMsDigits = 12;

}  // namespace

std::string RequestLog::format_line(const RequestTrace& trace) {
  std::ostringstream os;
  os << "{\"trace_id\":" << trace.id << ",\"client\":\"";
  json_escape(os, trace.client);
  os << "\",\"workload\":\"";
  json_escape(os, trace.workload);
  os << "\",\"points\":" << trace.points
     << ",\"total_ns\":" << trace.total_ns << ",\"total_ms\":";
  json_number(os, static_cast<double>(trace.total_ns) / 1e6, kMsDigits);
  os << ",\"phases_ns\":{";
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    if (p > 0) os << ",";
    os << "\"" << phase_name(static_cast<Phase>(p))
       << "\":" << trace.phase_ns[p];
  }
  os << "},\"outcomes\":{\"hit\":" << trace.hits
     << ",\"alias\":" << trace.aliases << ",\"follower\":" << trace.followers
     << ",\"miss\":" << trace.misses << ",\"failed\":" << trace.failed
     << "},\"error\":\"";
  json_escape(os, trace.error);
  os << "\"}";
  return os.str();
}

RequestLog::RequestLog(Options opts) : opts_(std::move(opts)) {
  common::MutexLock lock(mu_);
  // Append mode: a restarted daemon continues the same log; ate gives the
  // current size so rotation accounting stays correct across restarts.
  out_.open(opts_.path, std::ios::app | std::ios::ate);
  if (out_) {
    const std::ofstream::pos_type at = out_.tellp();
    bytes_ = at > 0 ? static_cast<std::uint64_t>(at) : 0;
  }
}

bool RequestLog::ok() const {
  common::MutexLock lock(mu_);
  return static_cast<bool>(out_);
}

bool RequestLog::append(const RequestTrace& trace) {
  const std::string line = format_line(trace);
  common::MutexLock lock(mu_);
  if (!out_) return false;
  if (bytes_ > 0 && bytes_ + line.size() + 1 > opts_.max_bytes) {
    out_.close();
    const std::string old = opts_.path + ".1";
    std::remove(old.c_str());
    std::rename(opts_.path.c_str(), old.c_str());
    out_.open(opts_.path, std::ios::trunc);
    bytes_ = 0;
    ++rotations_;
    if (!out_) return false;
  }
  out_ << line << "\n";
  out_.flush();  // every line must be complete on disk for live tailing
  if (!out_) return false;
  bytes_ += line.size() + 1;
  ++lines_;
  return true;
}

std::uint64_t RequestLog::lines() const {
  common::MutexLock lock(mu_);
  return lines_;
}

std::uint64_t RequestLog::rotations() const {
  common::MutexLock lock(mu_);
  return rotations_;
}

}  // namespace ara::obs
