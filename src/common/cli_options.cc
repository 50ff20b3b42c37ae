#include "common/cli_options.h"

#include <charconv>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <string>
#include <string_view>

namespace ara::common {

bool parse_unsigned(std::string_view text, std::uint64_t max,
                    std::uint64_t* out) {
  // from_chars takes no sign, whitespace or prefix for an unsigned type and
  // reports overflow instead of wrapping.
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end || value > max) return false;
  *out = value;
  return true;
}

bool parse_scale(std::string_view text, double* out) {
  const std::string token(text);
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (token.empty() || end != token.c_str() + token.size() ||
      !std::isfinite(value) || !(value > 0)) {
    return false;
  }
  *out = value;
  return true;
}

namespace {

/// `--name V` / `--name=V` matcher. Returns the number of argv slots the
/// flag consumed (0 = no match) and sets `*value`. A following token that
/// is itself a `--` flag is never consumed as a value: `--metrics --trace
/// t.json` is a missing-value error for --metrics, not a metrics file
/// literally named "--trace" (use the `--name=V` form for values that
/// really start with dashes).
int match(std::string_view name, int i, int argc, char** argv,
          std::string* value) {
  const std::string_view arg = argv[i];
  if (arg.size() > name.size() && arg.compare(0, name.size(), name) == 0 &&
      arg[name.size()] == '=') {
    *value = std::string(arg.substr(name.size() + 1));
    return 1;
  }
  if (arg == name) {
    if (i + 1 >= argc ||
        std::string_view(argv[i + 1]).substr(0, 2) == "--") {
      *value = "";
      return -1;  // flag present, value missing
    }
    *value = argv[i + 1];
    return 2;
  }
  return 0;
}

/// Truthiness rule shared with check::enabled()'s ARA_CHECK handling:
/// empty, "0", "off" and "false" mean unset.
bool truthy(std::string_view v) {
  return !v.empty() && v != "0" && v != "off" && v != "false";
}

bool parse_jobs_value(std::string_view text, unsigned* out) {
  std::uint64_t v = 0;
  if (!parse_unsigned(text, UINT_MAX, &v)) return false;
  *out = static_cast<unsigned>(v);
  return true;
}

}  // namespace

CliOptions CliOptions::parse(int& argc, char** argv, unsigned accept) {
  CliOptions opts;

  // Environment defaults first; explicit flags overwrite below.
  if ((accept & kJobs) != 0) {
    if (const char* s = std::getenv("ARA_JOBS")) {
      if (!parse_jobs_value(s, &opts.jobs)) {
        opts.error = "ARA_JOBS: expected an integer from 0 to " +
                     std::to_string(UINT_MAX) + ", got '" + s + "'";
      }
    }
  }
  if ((accept & kMetrics) != 0) {
    if (const char* s = std::getenv("ARA_METRICS")) opts.metrics_file = s;
  }
  if ((accept & kTrace) != 0) {
    if (const char* s = std::getenv("ARA_TRACE")) opts.trace_file = s;
  }
  if ((accept & kCache) != 0) {
    if (const char* s = std::getenv("ARA_CACHE")) opts.cache_dir = s;
  }
  if ((accept & kCheck) != 0) {
    if (const char* s = std::getenv("ARA_CHECK")) opts.check = truthy(s);
  }
  if ((accept & kLog) != 0) {
    if (const char* s = std::getenv("ARA_LOG")) opts.log_file = s;
  }

  for (int i = 1; i < argc; ++i) {
    std::string value;
    int consumed = 0;
    const char* flag = nullptr;
    // --check is the one boolean flag: bare form means true, and the
    // `--check=BOOL` form goes through the shared truthy() rule (so
    // `--check=0` can override an ARA_CHECK=1 environment default).
    // Either way it consumes exactly its own argv slot.
    if ((accept & kCheck) != 0) {
      const std::string_view arg = argv[i];
      if (arg == "--check" || arg.substr(0, 8) == "--check=") {
        opts.check = arg == "--check" || truthy(arg.substr(8));
        for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
        --argc;
        --i;
        continue;
      }
    }
    if ((accept & kJobs) != 0 &&
        (consumed = match("--jobs", i, argc, argv, &value)) != 0) {
      flag = "--jobs";
      if (consumed > 0 && !parse_jobs_value(value, &opts.jobs)) {
        opts.error = "--jobs: expected an integer from 0 to " +
                     std::to_string(UINT_MAX) + ", got '" + value + "'";
      }
    } else if ((accept & kMetrics) != 0 &&
               (consumed = match("--metrics", i, argc, argv, &value)) != 0) {
      flag = "--metrics";
      opts.metrics_file = value;
    } else if ((accept & kTrace) != 0 &&
               (consumed = match("--trace", i, argc, argv, &value)) != 0) {
      flag = "--trace";
      opts.trace_file = value;
    } else if ((accept & kCache) != 0 &&
               (consumed = match("--cache", i, argc, argv, &value)) != 0) {
      flag = "--cache";
      opts.cache_dir = value;
    } else if ((accept & kLog) != 0 &&
               (consumed = match("--log", i, argc, argv, &value)) != 0) {
      flag = "--log";
      opts.log_file = value;
    }
    if (consumed == 0) continue;
    if (consumed < 0) {
      opts.error = std::string(flag) + ": missing value";
      consumed = 1;  // strip the bare flag anyway
    }
    for (int j = i; j + consumed < argc; ++j) argv[j] = argv[j + consumed];
    argc -= consumed;
    --i;
  }
  return opts;
}

std::string CliOptions::help(unsigned accept) {
  std::string out;
  if ((accept & kJobs) != 0) {
    out +=
        "  --jobs N         parallel sweep workers (default: hardware "
        "concurrency; env ARA_JOBS)\n";
  }
  if ((accept & kMetrics) != 0) {
    out +=
        "  --metrics FILE   dump the stat registry as JSON "
        "(env ARA_METRICS)\n";
  }
  if ((accept & kTrace) != 0) {
    out +=
        "  --trace FILE     write a Chrome trace of task execution "
        "(env ARA_TRACE)\n";
  }
  if ((accept & kCache) != 0) {
    out +=
        "  --cache DIR      on-disk result cache for sweep points "
        "(env ARA_CACHE)\n";
  }
  if ((accept & kCheck) != 0) {
    out +=
        "  --check[=BOOL]   enable runtime invariant checking on every "
        "simulated system (env ARA_CHECK)\n";
  }
  if ((accept & kLog) != 0) {
    out +=
        "  --log FILE       append one JSONL line per served request "
        "(trace id, spans, outcome; env ARA_LOG)\n";
  }
  return out;
}

}  // namespace ara::common
