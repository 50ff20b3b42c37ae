// Shared command-line flags for the tools and bench binaries.
//
// --jobs / --metrics / --trace / --cache (each with an ARA_* environment
// fallback) used to be re-parsed, slightly differently, by every binary
// that needed them. CliOptions::parse() is the single implementation: it
// strips the flags it recognizes out of argv (leaving positional
// arguments and unknown flags for the caller to handle or reject),
// applies env defaults, and reports malformed values instead of silently
// zeroing them. Each tool states which flags it accepts via the `accept`
// bitmask, and help(accept) renders the matching --help lines so every
// flag is documented exactly once.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace ara::common {

/// The one unsigned-integer parser of every front end (CLI flags, ARA_JOBS,
/// serve protocol fields): `text` must be plain decimal digits (no sign,
/// space, fraction or exponent) with a value of at most `max`. Returns false
/// and leaves `*out` untouched otherwise, so "-1" or "4294967296" for a
/// 32-bit field is an error instead of a wrapped value.
bool parse_unsigned(std::string_view text, std::uint64_t max,
                    std::uint64_t* out);

/// The one workload-scale parser of every front end (ARA_BENCH_SCALE,
/// `--scale`): strtod must consume all of `text`, and the value must be
/// finite and > 0. Returns false and leaves `*out` untouched otherwise, so
/// "abc", "0.5x", "0", "-1", "inf" or "nan" is an error instead of a
/// silent default.
bool parse_scale(std::string_view text, double* out);

/// The rule of `--check=V` and ARA_CHECK: "", "0", "off", "false" are off.
bool truthy(std::string_view v);

struct CliOptions {
  enum Flag : unsigned {
    kJobs = 1u << 0,     // --jobs N     | ARA_JOBS
    kMetrics = 1u << 1,  // --metrics F  | ARA_METRICS
    kTrace = 1u << 2,    // --trace F    | ARA_TRACE
    kCache = 1u << 3,    // --cache DIR  | ARA_CACHE
    kCheck = 1u << 4,    // --check      | ARA_CHECK
    kLog = 1u << 5,      // --log FILE   | ARA_LOG
  };

  /// Worker threads for parallel sweeps; 0 = hardware concurrency.
  unsigned jobs = 0;
  /// Stat-registry export path ("" = off). The front end picks the
  /// format; only ara_sim writes CSV, for a path ending in ".csv".
  std::string metrics_file;
  /// Chrome-trace export path ("" = off).
  std::string trace_file;
  /// On-disk result-cache directory ("" = memory-only / off).
  std::string cache_dir;
  /// JSONL request-log path ("" = off; serve tools only).
  std::string log_file;
  /// Run with the ara::check invariant checker armed on every System.
  /// Boolean: bare `--check` means true; `--check=BOOL` and ARA_CHECK go
  /// through truthy(), and the flag wins over the environment.
  bool check = false;

  /// Non-empty after parse() when a flag had a malformed value (e.g.
  /// `--jobs banana`); the message names the flag. Tools print it and
  /// exit 2.
  std::string error;
  bool ok() const { return error.empty(); }

  /// Parse flags in `accept` out of argv (both `--flag V` and `--flag=V`),
  /// compacting argv in place so only unrecognized arguments remain.
  /// Environment variables seed the defaults; explicit flags win. A token
  /// starting with `--` is never consumed as another flag's value — use
  /// the `--flag=V` form for values that genuinely start with dashes.
  static CliOptions parse(int& argc, char** argv, unsigned accept);

  /// "  --jobs N   ..." help lines for exactly the flags in `accept`.
  static std::string help(unsigned accept);
};

}  // namespace ara::common
