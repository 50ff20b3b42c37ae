// Request-tracing layer tests: the obs clock seam, ScopedSpan phase
// accounting, the sliding-window time-series math, and the JSONL request
// log — all driven by obs::FakeClock so every duration, rate and quantile
// is an exact, reproducible value (no sleeps, no host clock).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "obs/clock.h"
#include "obs/json_check.h"
#include "obs/json_io.h"
#include "obs/request_log.h"
#include "obs/span.h"
#include "obs/window.h"

namespace ara::obs {
namespace {

// ---- clock seam ----

TEST(MonotonicClock, HostClockAdvances) {
  MonotonicClock& c = MonotonicClock::host();
  const std::uint64_t a = c.now_ns();
  const std::uint64_t b = c.now_ns();
  EXPECT_GE(b, a);
  EXPECT_EQ(&MonotonicClock::host(), &c);  // one process-wide instance
}

TEST(FakeClock, MovesOnlyWhenAdvanced) {
  FakeClock c(100);
  EXPECT_EQ(c.now_ns(), 100u);
  EXPECT_EQ(c.now_ns(), 100u);
  c.advance_ns(50);
  EXPECT_EQ(c.now_ns(), 150u);
  c.set_ns(7);
  EXPECT_EQ(c.now_ns(), 7u);
}

// ---- spans ----

TEST(ScopedSpan, ChargesElapsedFakeTimeToOnePhase) {
  FakeClock clock(1000);
  RequestTrace trace;
  trace.clock = &clock;
  {
    ScopedSpan span(&trace, Phase::kSimulate);
    clock.advance_ns(250);
  }
  EXPECT_EQ(trace.phase(Phase::kSimulate), 250u);
  EXPECT_EQ(trace.phase(Phase::kQueued), 0u);
  EXPECT_EQ(trace.phase_total_ns(), 250u);
  // A second span on the same phase accumulates.
  {
    ScopedSpan span(&trace, Phase::kSimulate);
    clock.advance_ns(50);
  }
  EXPECT_EQ(trace.phase(Phase::kSimulate), 300u);
}

TEST(ScopedSpan, NullTraceOrClockIsANoOp) {
  { ScopedSpan span(nullptr, Phase::kQueued); }  // must not crash
  RequestTrace untimed;  // clock stays null
  {
    ScopedSpan span(&untimed, Phase::kQueued);
  }
  EXPECT_EQ(untimed.phase_total_ns(), 0u);
}

TEST(ScopedSpan, StopIsIdempotentAndEarly) {
  FakeClock clock;
  RequestTrace trace;
  trace.clock = &clock;
  {
    ScopedSpan span(&trace, Phase::kSerialize);
    clock.advance_ns(10);
    span.stop();
    clock.advance_ns(1000);  // after stop(); never charged
    span.stop();
  }
  EXPECT_EQ(trace.phase(Phase::kSerialize), 10u);
}

TEST(Phases, NamesAreStableLogSchema) {
  // The JSONL schema's phase keys; renaming one breaks log consumers.
  EXPECT_STREQ(phase_name(Phase::kQueued), "queued");
  EXPECT_STREQ(phase_name(Phase::kCacheLookup), "cache_lookup");
  EXPECT_STREQ(phase_name(Phase::kSimulate), "simulate");
  EXPECT_STREQ(phase_name(Phase::kCoalesceWait), "coalesce_wait");
  EXPECT_STREQ(phase_name(Phase::kSerialize), "serialize");
}

// ---- sliding window ----

constexpr std::uint64_t kSecond = 1000000000ull;

TEST(SlidingWindow, EmptyWindowSummarizesToZeros) {
  SlidingWindow w(kSecond, 60);
  const auto s = w.summarize(5 * kSecond);
  EXPECT_EQ(s.requests, 0u);
  EXPECT_EQ(s.span_ns, 0u);
  EXPECT_DOUBLE_EQ(s.requests_per_sec, 0.0);
  EXPECT_DOUBLE_EQ(s.hit_ratio, 0.0);
  EXPECT_DOUBLE_EQ(s.p50_ms, 0.0);
}

TEST(SlidingWindow, RatesAndHitRatioAreExactUnderFakeClock) {
  SlidingWindow w(kSecond, 60);
  FakeClock clock(kSecond / 2);
  // One request every second for 4 seconds: 4 points each, 3 avoided.
  for (int i = 0; i < 4; ++i) {
    w.record(clock.now_ns(), /*latency_ns=*/2000000, /*points=*/4,
             /*points_avoided=*/3);
    clock.advance_ns(kSecond);
  }
  const auto s = w.summarize(4 * kSecond);
  EXPECT_EQ(s.requests, 4u);
  EXPECT_EQ(s.points, 16u);
  EXPECT_EQ(s.points_avoided, 12u);
  EXPECT_DOUBLE_EQ(s.hit_ratio, 0.75);
  // Span runs from the oldest live bucket's start (epoch 0) to now.
  EXPECT_EQ(s.span_ns, 4 * kSecond);
  EXPECT_DOUBLE_EQ(s.requests_per_sec, 1.0);
  // 2 ms lands in the [2^20, 2^21) ns bin; its midpoint is 1.5 * 2^20 ns.
  EXPECT_DOUBLE_EQ(s.p50_ms, 1.5 * (1 << 20) / 1e6);
  EXPECT_DOUBLE_EQ(s.p99_ms, s.p50_ms);
}

TEST(SlidingWindow, OldBucketsRotateOutAndSlotsRecycle) {
  SlidingWindow w(kSecond, 4);  // 4-second window
  w.record(kSecond / 10, 1000, 1, 0);  // epoch 0
  EXPECT_EQ(w.summarize(2 * kSecond).requests, 1u);
  // At t=5s the window is epochs [2,5]; epoch 0 has aged out.
  EXPECT_EQ(w.summarize(5 * kSecond).requests, 0u);
  // Epoch 4 reuses epoch 0's ring slot; the stale bucket must reset, not
  // accumulate into the old counts.
  w.record(4 * kSecond + kSecond / 2, 1000, 1, 0);
  const auto s = w.summarize(5 * kSecond);
  EXPECT_EQ(s.requests, 1u);
  EXPECT_EQ(s.span_ns, 1 * kSecond);
  EXPECT_DOUBLE_EQ(s.requests_per_sec, 1.0);
}

TEST(SlidingWindow, QuantilesSeparateFastAndSlowRequests) {
  SlidingWindow w(kSecond, 60);
  const std::uint64_t now = kSecond / 4;
  for (int i = 0; i < 99; ++i) w.record(now, 1000000, 1, 0);  // ~1 ms
  w.record(now, kSecond, 1, 0);                               // 1 s outlier
  const auto s = w.summarize(now);
  // 1 ms -> [2^19, 2^20) bin; 1 s -> [2^29, 2^30) bin.
  EXPECT_DOUBLE_EQ(s.p50_ms, 1.5 * (1 << 19) / 1e6);
  EXPECT_DOUBLE_EQ(s.p95_ms, s.p50_ms);
  EXPECT_DOUBLE_EQ(s.p99_ms, 1.5 * (1 << 29) / 1e6);
}

// ---- request log ----

RequestTrace sample_trace() {
  RequestTrace t;
  t.id = 7;
  t.client = "bench \"a\"";  // quote forces JSON escaping
  t.workload = "Denoise";
  t.points = 6;
  t.total_ns = 5000000;  // 5 ms
  t.add_phase(Phase::kQueued, 1000);
  t.add_phase(Phase::kCacheLookup, 2000);
  t.add_phase(Phase::kSimulate, 4000000);
  t.add_phase(Phase::kSerialize, 3000);
  t.hits = 2;
  t.aliases = 1;
  t.followers = 1;
  t.misses = 2;
  return t;
}

TEST(RequestLog, FormatLineIsStrictJsonWithExactDurations) {
  const RequestTrace t = sample_trace();
  const std::string line = RequestLog::format_line(t, /*slow_ms=*/0);
  std::string err;
  ASSERT_TRUE(validate_json(line, &err)) << err << "\n" << line;

  JsonValue parsed;
  ASSERT_TRUE(parse_json(line, &parsed, &err)) << err;
  EXPECT_EQ(parsed.find("trace_id")->as_u64(), 7u);
  EXPECT_EQ(parsed.find("client")->text, "bench \"a\"");
  EXPECT_EQ(parsed.find("total_ns")->as_u64(), 5000000u);
  // Integer-exact per-phase durations under the schema's stable keys,
  // exactly the five phases a sweep passes through, in order, and their
  // sum stays within the request total (phases are disjoint sub-intervals
  // of it).
  const JsonValue* phases = parsed.find("phases_ns");
  ASSERT_NE(phases, nullptr);
  const std::vector<std::string> keys = {"queued", "cache_lookup", "simulate",
                                         "coalesce_wait", "serialize"};
  ASSERT_EQ(phases->members.size(), keys.size()) << line;
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(phases->members[i].first, keys[i]);
    sum += phases->members[i].second.as_u64();
  }
  EXPECT_EQ(sum, t.phase_total_ns());
  EXPECT_LE(sum, t.total_ns);
  const JsonValue* outcomes = parsed.find("outcomes");
  ASSERT_NE(outcomes, nullptr);
  EXPECT_EQ(outcomes->find("hit")->as_u64(), 2u);
  EXPECT_EQ(outcomes->find("alias")->as_u64(), 1u);
  EXPECT_EQ(outcomes->find("follower")->as_u64(), 1u);
  EXPECT_EQ(outcomes->find("miss")->as_u64(), 2u);
  EXPECT_EQ(outcomes->find("failed")->as_u64(), 0u);
}

TEST(RequestLog, SlowFlagUsesThreshold) {
  const RequestTrace t = sample_trace();  // 5 ms total
  EXPECT_NE(RequestLog::format_line(t, 5).find("\"slow\":true"),
            std::string::npos);
  EXPECT_NE(RequestLog::format_line(t, 6).find("\"slow\":false"),
            std::string::npos);
  EXPECT_NE(RequestLog::format_line(t, 0).find("\"slow\":false"),
            std::string::npos);
}

TEST(RequestLog, AppendsJsonlAndRotatesAtMaxBytes) {
  const std::string dir = ::testing::TempDir() + "ara_request_log";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/requests.jsonl";

  RequestLog::Options opts;
  opts.path = path;
  const std::string one_line = RequestLog::format_line(sample_trace(), 0);
  // Room for roughly two lines per file, so 6 appends must rotate.
  opts.max_bytes = (one_line.size() + 1) * 2 + 1;
  RequestLog log(opts);
  ASSERT_TRUE(log.ok());
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(log.append(sample_trace()));
  }
  EXPECT_EQ(log.lines(), 6u);
  EXPECT_GE(log.rotations(), 1u);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(path + ".1"));

  // Every line in both files is a complete, valid JSON object.
  std::size_t lines = 0;
  for (const std::string& file : {path, path + ".1"}) {
    std::ifstream in(file);
    std::string line;
    while (std::getline(in, line)) {
      std::string err;
      EXPECT_TRUE(validate_json(line, &err)) << file << ": " << err;
      ++lines;
    }
  }
  // The live file plus the most recent rotation survive (older rotations
  // are replaced, keeping disk usage bounded at ~2x max_bytes).
  EXPECT_GE(lines, 3u);
  EXPECT_LE(lines, 6u);
  std::filesystem::remove_all(dir);
}

TEST(RequestLog, UnwritablePathReportsNotOk) {
  RequestLog::Options opts;
  opts.path = "/nonexistent-dir/requests.jsonl";
  RequestLog log(opts);
  EXPECT_FALSE(log.ok());
  EXPECT_FALSE(log.append(sample_trace()));
  EXPECT_EQ(log.lines(), 0u);
}

}  // namespace
}  // namespace ara::obs
