// The `point` workload: single ara_sim-style design points — a
// chaining-light benchmark on 3 islands with the proxy crossbar — each run
// alone on one thread through core::System, in a fresh process as ara_sim
// would run it, and timed from System::run until the System is destroyed.
// A round (one request) runs the four chaining-light benchmarks once each,
// in an order the seed shuffles, so every seed measures the same mix;
// rounds repeat until the run's time is spent.
#include <algorithm>
#include <iostream>
#include <map>

#include "perfbench.h"

namespace perfbench {

namespace {

std::vector<GridPoint> round_order(std::uint64_t seed) {
  std::vector<GridPoint> round;
  for (const auto& b : light_benchmarks()) {
    round.push_back({b, 3, 0, kPointScale});
  }
  shuffle(round, mix(seed, 11));
  return round;
}

struct Sample {
  std::string bench;
  double setup_s = 0;  // make_benchmark + System build
  double busy_s = 0;   // System::run + destruction
  double makespan = 0;
  Counts counts;
};

/// Whole rounds until `seconds` have passed (at least one), or exactly
/// `rounds` when non-zero. *peak_rss_mb gets the largest child's peak.
std::vector<Sample> run_rounds(const Options& opt, Tally& tally,
                               Tracer* tracer, double seconds,
                               std::size_t rounds, double* peak_rss_mb) {
  const auto round = round_order(opt.seed);
  std::vector<Sample> out;
  const std::uint64_t t0 = now_ns();
  for (std::size_t r = 0;
       rounds != 0 ? r < rounds
                   : r == 0 || seconds_between(t0, now_ns()) < seconds;
       ++r) {
    for (std::size_t k = 0; k < round.size(); ++k) {
      const ChildResult c =
          run_child(opt, r * round.size() + k, tracer, tally);
      if (c.fields.count("run_s") == 0) return out;  // counted as failed
      Sample s;
      s.bench = round[k].bench;
      s.setup_s = c.fields.at("make_s") + c.fields.at("build_s");
      s.busy_s = c.fields.at("run_s") + c.fields.at("teardown_s");
      s.makespan = c.fields.at("makespan");
      s.counts = Counts::from_fields(c.fields);
      *peak_rss_mb = std::max(*peak_rss_mb, c.peak_rss_mb);
      out.push_back(std::move(s));
    }
  }
  return out;
}

double busy_seconds(const std::vector<Sample>& samples) {
  double s = 0;
  for (const auto& x : samples) s += x.busy_s;
  return s;
}

}  // namespace

void child_point(const Options& opt, const DigestTable& digests,
                 Tally& tally, Tracer* tracer) {
  const auto round = round_order(opt.seed);
  const std::uint64_t index = *opt.child_index;
  const GridPoint& p = round[index % round.size()];
  const PointRun run = simulate_point(p, tracer, index);
  digests.check(p, run.entry_json, tally);
  std::map<std::string, double> fields = {
      {"make_s", run.make_s},
      {"build_s", run.build_s},
      {"run_s", run.run_s},
      {"teardown_s", run.teardown_s},
      {"makespan", static_cast<double>(run.result.makespan)}};
  for (const auto& [name, value] : run.counts.fields()) {
    fields["count." + name] = static_cast<double>(value);
  }
  emit_child(fields, {}, tracer, tally);
}

void point_workload(const Options& opt, const DigestTable& /*digests*/,
                    Tally& tally, Report& report, Tracer* tracer) {
  double peak_rss_mb = 0;
  if (!opt.trace) {
    const auto samples =
        run_rounds(opt, tally, nullptr, opt.seconds, 0, &peak_rss_mb);
    // A request is a round: one point of each benchmark, one after another.
    // Single points vary by up to 20% from host noise alone, which made a
    // per-point p99 (the slowest of a dozen) swing between runs.
    const std::size_t per_round = light_benchmarks().size();
    std::vector<double> setup, round_ms(samples.size() / per_round);
    double makespan = 0;
    std::cout << "point latencies (ms):";
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const Sample& s = samples[i];
      setup.push_back(s.setup_s);
      if (i / per_round < round_ms.size()) {
        round_ms[i / per_round] += s.busy_s * 1e3;
      }
      makespan += s.makespan;
      std::cout << " " << s.bench << "=" << s.busy_s * 1e3;
    }
    std::cout << "\n";
    const double busy = busy_seconds(samples);
    report.set("setup_s", median(setup), "s");
    report.set("points_per_s", static_cast<double>(samples.size()) / busy,
               "points/s");
    report.set("sim_cycles_per_s", makespan / busy, "cycles/s");
    report.set("peak_rss_mb", peak_rss_mb, "MiB");
    report.set("request_p50_ms", quantile(round_ms, 0.5), "ms");
    report.set("request_p99_ms", quantile(round_ms, 0.99), "ms");
    report.set("requests_per_s", static_cast<double>(round_ms.size()) / busy,
               "requests/s");
    return;
  }

  // Traced: rounds untraced for half the time, then as many traced; the
  // counts come from the first traced round (one point per benchmark).
  const auto plain =
      run_rounds(opt, tally, nullptr, opt.seconds / 2, 0, &peak_rss_mb);
  const std::size_t per_round = light_benchmarks().size();
  const auto traced = run_rounds(opt, tally, tracer, 0,
                                 std::max<std::size_t>(1, plain.size() / per_round),
                                 &peak_rss_mb);
  if (plain.empty() || traced.size() < per_round) return;
  report.set("bench.trace_overhead",
             (busy_seconds(traced) - busy_seconds(plain)) /
                 busy_seconds(plain),
             "fraction");
  Counts counts;
  for (std::size_t i = 0; i < per_round; ++i) counts.add(traced[i].counts);
  report_counts(counts, report);
  {
    Span s(tracer, "bench.drills");
    report_drills(
        run_drills(round_order(opt.seed).front(), counts, opt.seed, tracer),
        report);
  }
  report_span_layers(*tracer, report);
}

}  // namespace perfbench
