// Structured JSONL request log for the serve path.
//
// One RFC 8259-valid JSON object per completed request, appended to a
// file: trace id, client, workload, per-phase durations (exact integer
// nanoseconds plus a human-friendly total in ms), per-point outcome
// counts and the typed error code. The log is bounded by size-based
// rotation: when appending would push the file past max_bytes, the
// current file is renamed to "<path>.1" (replacing any previous rotation)
// and a fresh file is started — at most ~2x max_bytes on disk, ever.
//
// Threading: append() is internally locked (its own mutex — callers hold
// no server lock while writing, so a slow disk never blocks admission).
#pragma once

#include <cstdint>
#include <fstream>
#include <string>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/span.h"

namespace ara::obs {

class RequestLog {
 public:
  struct Options {
    /// Log file path; parent directory must exist.
    std::string path;
    /// Rotate when an append would push the file past this many bytes.
    std::uint64_t max_bytes = 8u << 20;
  };

  explicit RequestLog(Options opts);

  /// False when the log file could not be opened (append() is then a
  /// no-op; the daemon reports this once at startup and keeps serving).
  bool ok() const ARA_EXCLUDES(mu_);

  /// Serialize `trace` as one JSONL line and append it, rotating first if
  /// needed. Returns false when the write failed.
  bool append(const RequestTrace& trace) ARA_EXCLUDES(mu_);

  /// Lines appended over the log's lifetime (across rotations).
  std::uint64_t lines() const ARA_EXCLUDES(mu_);
  /// Rotations performed.
  std::uint64_t rotations() const ARA_EXCLUDES(mu_);

  const std::string& path() const { return opts_.path; }

  /// One trace as its JSONL line (no trailing newline). Exposed for tests
  /// and for tooling that wants the schema without a file.
  static std::string format_line(const RequestTrace& trace);

 private:
  const Options opts_;
  mutable common::Mutex mu_;
  std::ofstream out_ ARA_GUARDED_BY(mu_);
  std::uint64_t bytes_ ARA_GUARDED_BY(mu_) = 0;
  std::uint64_t lines_ ARA_GUARDED_BY(mu_) = 0;
  std::uint64_t rotations_ ARA_GUARDED_BY(mu_) = 0;
};

}  // namespace ara::obs
