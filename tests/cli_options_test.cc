// Tests for the shared CLI flag parser: both `--flag V` and `--flag=V`
// forms, ARA_* environment fallbacks (flags win), in-place argv stripping,
// the accept bitmask, malformed-value reporting, and help text coverage.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/cli_options.h"

namespace ara::common {
namespace {

/// Mutable argv for parse(); keeps the backing strings alive.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : strings_(std::move(args)) {
    strings_.insert(strings_.begin(), "prog");
    for (auto& s : strings_) ptrs_.push_back(s.data());
    argc_ = static_cast<int>(ptrs_.size());
  }
  int& argc() { return argc_; }
  char** data() { return ptrs_.data(); }
  /// Arguments left after parsing (excluding argv[0]).
  std::vector<std::string> rest() const {
    std::vector<std::string> out;
    for (int i = 1; i < argc_; ++i) out.emplace_back(ptrs_[i]);
    return out;
  }

 private:
  std::vector<std::string> strings_;
  std::vector<char*> ptrs_;
  int argc_ = 0;
};

/// Scoped environment variable; restores the previous value on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_old_ = true;
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

constexpr unsigned kAll = CliOptions::kJobs | CliOptions::kMetrics |
                          CliOptions::kTrace | CliOptions::kCache |
                          CliOptions::kCheck;

TEST(CliOptions, ParsesSpaceAndEqualsForms) {
  Argv a({"--jobs", "4", "--metrics=m.json", "--trace", "t.json",
          "--cache=/tmp/c"});
  const auto opts = CliOptions::parse(a.argc(), a.data(), kAll);
  ASSERT_TRUE(opts.ok()) << opts.error;
  EXPECT_EQ(opts.jobs, 4u);
  EXPECT_EQ(opts.metrics_file, "m.json");
  EXPECT_EQ(opts.trace_file, "t.json");
  EXPECT_EQ(opts.cache_dir, "/tmp/c");
  EXPECT_TRUE(a.rest().empty());  // everything recognized was stripped
}

TEST(CliOptions, StripsOnlyRecognizedFlagsPreservingOrder) {
  Argv a({"positional", "--jobs", "2", "--other", "--metrics=m.json", "-x"});
  const auto opts = CliOptions::parse(a.argc(), a.data(), kAll);
  ASSERT_TRUE(opts.ok());
  EXPECT_EQ(opts.jobs, 2u);
  EXPECT_EQ(a.rest(), (std::vector<std::string>{"positional", "--other",
                                                "-x"}));
}

TEST(CliOptions, AcceptMaskLeavesUnacceptedFlagsAlone) {
  Argv a({"--jobs", "2", "--trace", "t.json"});
  const auto opts = CliOptions::parse(a.argc(), a.data(), CliOptions::kTrace);
  ASSERT_TRUE(opts.ok());
  EXPECT_EQ(opts.jobs, 0u);  // not accepted, not parsed
  EXPECT_EQ(opts.trace_file, "t.json");
  // --jobs and its value survive for the tool's own parser to reject.
  EXPECT_EQ(a.rest(), (std::vector<std::string>{"--jobs", "2"}));
}

TEST(CliOptions, EnvironmentSeedsDefaults) {
  ScopedEnv jobs("ARA_JOBS", "8");
  ScopedEnv cache("ARA_CACHE", "/tmp/envcache");
  Argv a({});
  const auto opts = CliOptions::parse(a.argc(), a.data(), kAll);
  ASSERT_TRUE(opts.ok()) << opts.error;
  EXPECT_EQ(opts.jobs, 8u);
  EXPECT_EQ(opts.cache_dir, "/tmp/envcache");
}

TEST(CliOptions, ExplicitFlagBeatsEnvironment) {
  ScopedEnv jobs("ARA_JOBS", "8");
  ScopedEnv metrics("ARA_METRICS", "env.json");
  Argv a({"--jobs=3", "--metrics", "flag.json"});
  const auto opts = CliOptions::parse(a.argc(), a.data(), kAll);
  ASSERT_TRUE(opts.ok());
  EXPECT_EQ(opts.jobs, 3u);
  EXPECT_EQ(opts.metrics_file, "flag.json");
}

TEST(CliOptions, MalformedJobsValueIsAnError) {
  ScopedEnv jobs("ARA_JOBS", nullptr);  // make sure env can't interfere
  for (const char* bad :
       {"banana", "4x", "", "-1", "4294967297", "99999999999999999999"}) {
    Argv a({"--jobs", bad});
    const auto opts = CliOptions::parse(a.argc(), a.data(), kAll);
    EXPECT_FALSE(opts.ok()) << "accepted --jobs " << bad;
    EXPECT_NE(opts.error.find("--jobs"), std::string::npos) << opts.error;
  }
}

TEST(CliOptions, MalformedEnvironmentValueIsAnError) {
  ScopedEnv jobs("ARA_JOBS", "lots");
  Argv a({});
  const auto opts = CliOptions::parse(a.argc(), a.data(), kAll);
  EXPECT_FALSE(opts.ok());
  EXPECT_NE(opts.error.find("ARA_JOBS"), std::string::npos) << opts.error;
}

TEST(CliOptions, ParseUnsignedChecksDigitsAndRange) {
  std::uint64_t v = 7;
  for (const char* bad :
       {"", "-1", "+1", " 1", "1 ", "two", "1e3", "4294967296"}) {
    EXPECT_FALSE(parse_unsigned(bad, UINT32_MAX, &v)) << "'" << bad << "'";
  }
  EXPECT_EQ(v, 7u);  // untouched by a rejected value
  ASSERT_TRUE(parse_unsigned("0", UINT32_MAX, &v));
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(parse_unsigned("4294967295", UINT32_MAX, &v));
  EXPECT_EQ(v, 4294967295u);
  // Past 64 bits is an overflow, not a wrap.
  EXPECT_FALSE(parse_unsigned("99999999999999999999", UINT64_MAX, &v));
  ASSERT_TRUE(parse_unsigned("18446744073709551615", UINT64_MAX, &v));
  EXPECT_EQ(v, UINT64_MAX);
}

TEST(CliOptions, MissingValueIsAnError) {
  Argv a({"--metrics"});
  const auto opts = CliOptions::parse(a.argc(), a.data(), kAll);
  EXPECT_FALSE(opts.ok());
  EXPECT_NE(opts.error.find("--metrics"), std::string::npos) << opts.error;
  EXPECT_TRUE(a.rest().empty());  // the bare flag is still stripped
}

// Regression: `--metrics --trace t.json` used to consume `--trace` as the
// metrics file name, silently eating the next flag. A `--`-prefixed token
// is never a value now — the flag reports "missing value" and the next
// flag still parses normally.
TEST(CliOptions, FlagTokenIsNeverConsumedAsValue) {
  Argv a({"--metrics", "--trace", "t.json"});
  const auto opts = CliOptions::parse(a.argc(), a.data(), kAll);
  EXPECT_FALSE(opts.ok());
  EXPECT_NE(opts.error.find("--metrics"), std::string::npos) << opts.error;
  EXPECT_TRUE(opts.metrics_file.empty());
  EXPECT_EQ(opts.trace_file, "t.json");  // the next flag was not swallowed
  EXPECT_TRUE(a.rest().empty());
}

TEST(CliOptions, DashValueStillPossibleViaEqualsForm) {
  Argv a({"--metrics=--odd-name.json"});
  const auto opts = CliOptions::parse(a.argc(), a.data(), kAll);
  ASSERT_TRUE(opts.ok()) << opts.error;
  EXPECT_EQ(opts.metrics_file, "--odd-name.json");
}

TEST(CliOptions, ZeroJobsMeansHardwareConcurrency) {
  Argv a({"--jobs", "0"});
  const auto opts = CliOptions::parse(a.argc(), a.data(), CliOptions::kJobs);
  ASSERT_TRUE(opts.ok());
  EXPECT_EQ(opts.jobs, 0u);  // 0 is valid and means "pick for me"
}

TEST(CliOptions, CheckFlagIsBooleanAndStripped) {
  ScopedEnv env("ARA_CHECK", nullptr);
  Argv a({"positional", "--check", "--other"});
  const auto opts = CliOptions::parse(a.argc(), a.data(), kAll);
  ASSERT_TRUE(opts.ok()) << opts.error;
  EXPECT_TRUE(opts.check);
  // Boolean: it must not have swallowed the following argument.
  EXPECT_EQ(a.rest(), (std::vector<std::string>{"positional", "--other"}));
}

TEST(CliOptions, CheckDefaultsOffAndUnacceptedMaskLeavesIt) {
  ScopedEnv env("ARA_CHECK", nullptr);
  Argv off({});
  EXPECT_FALSE(CliOptions::parse(off.argc(), off.data(), kAll).check);

  Argv a({"--check"});
  const auto opts = CliOptions::parse(a.argc(), a.data(), CliOptions::kJobs);
  EXPECT_FALSE(opts.check);
  EXPECT_EQ(a.rest(), (std::vector<std::string>{"--check"}));
}

// Regression: `--check=VALUE` used to fall through unmatched (only the
// bare form was recognized), so it survived in argv and tools rejected it
// as an unknown option. Both forms parse now, through the same truthiness
// rule as ARA_CHECK.
TEST(CliOptions, CheckEqualsFormHonorsTruthinessAndStrips) {
  ScopedEnv env("ARA_CHECK", nullptr);
  for (const char* on : {"--check=1", "--check=true", "--check=yes"}) {
    Argv a({on, "positional"});
    const auto opts = CliOptions::parse(a.argc(), a.data(), kAll);
    ASSERT_TRUE(opts.ok()) << opts.error;
    EXPECT_TRUE(opts.check) << on;
    EXPECT_EQ(a.rest(), (std::vector<std::string>{"positional"})) << on;
  }
  for (const char* off : {"--check=0", "--check=off", "--check=false",
                          "--check="}) {
    Argv a({off});
    const auto opts = CliOptions::parse(a.argc(), a.data(), kAll);
    ASSERT_TRUE(opts.ok()) << opts.error;
    EXPECT_FALSE(opts.check) << off;
    EXPECT_TRUE(a.rest().empty()) << off;
  }
}

TEST(CliOptions, CheckEnvironmentFallbackHonorsTruthiness) {
  for (const char* on : {"1", "true", "yes"}) {
    ScopedEnv env("ARA_CHECK", on);
    Argv a({});
    EXPECT_TRUE(CliOptions::parse(a.argc(), a.data(), kAll).check) << on;
  }
  for (const char* off : {"0", "off", "false", ""}) {
    ScopedEnv env("ARA_CHECK", off);
    Argv a({});
    EXPECT_FALSE(CliOptions::parse(a.argc(), a.data(), kAll).check)
        << "'" << off << "'";
  }
}

TEST(CliOptions, HelpListsExactlyTheAcceptedFlags) {
  const std::string all = CliOptions::help(kAll);
  for (const char* flag : {"--jobs", "--metrics", "--trace", "--cache",
                           "--check"}) {
    EXPECT_NE(all.find(flag), std::string::npos) << flag;
  }
  for (const char* env : {"ARA_JOBS", "ARA_METRICS", "ARA_TRACE",
                          "ARA_CACHE", "ARA_CHECK"}) {
    EXPECT_NE(all.find(env), std::string::npos) << env;
  }
  const std::string sub =
      CliOptions::help(CliOptions::kTrace | CliOptions::kMetrics);
  EXPECT_NE(sub.find("--trace"), std::string::npos);
  EXPECT_NE(sub.find("--metrics"), std::string::npos);
  EXPECT_EQ(sub.find("--jobs"), std::string::npos);
  EXPECT_EQ(sub.find("--cache"), std::string::npos);
}

}  // namespace
}  // namespace ara::common
