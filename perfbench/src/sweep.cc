// The `sweep` workload: a seeded 40-point sample of the paper's Fig. 6-9
// grid, run cold through dse::run with 4 workers, repeated until the run's
// time is spent. A request is one whole sweep.
#include <algorithm>
#include <iostream>
#include <map>

#include "dse/result_cache.h"
#include "dse/sweep.h"
#include "perfbench.h"
#include "workloads/registry.h"

namespace perfbench {

namespace {

constexpr unsigned kSweepJobs = 4;

/// Every (islands, network) cell twice: once with a chaining-light and
/// once with a chaining-heavy benchmark. Along each island-count row the
/// benchmarks of a class follow a seeded cyclic order, so every benchmark
/// appears on every island count and every seed runs nearly the same mix;
/// the seed also shuffles which network of the row each one lands on.
std::vector<GridPoint> sample(std::uint64_t seed) {
  auto light = light_benchmarks();
  auto heavy = heavy_benchmarks();
  shuffle(light, mix(seed, 1));
  shuffle(heavy, mix(seed, 2));
  std::vector<GridPoint> points;
  for (std::size_t row = 0; row < island_counts().size(); ++row) {
    std::vector<std::size_t> nets(network_labels().size());
    for (std::size_t n = 0; n < nets.size(); ++n) nets[n] = n;
    shuffle(nets, mix(seed, 10 + row));
    for (std::size_t n = 0; n < nets.size(); ++n) {
      const std::uint32_t islands = island_counts()[row];
      points.push_back({light[(row + n) % light.size()], islands, nets[n],
                        kSweepScale});
      points.push_back({heavy[(row + n) % heavy.size()], islands, nets[n],
                        kSweepScale});
    }
  }
  return points;
}

struct SweepOutcome {
  double setup_s = 0;  // workload generation in the sweep's process
  double wall_s = 0;
  std::uint64_t makespan = 0;
  std::vector<double> point_s;  // SweepResult::wall_seconds
  std::uint64_t events = 0;
};

SweepOutcome run_once(const std::vector<GridPoint>& points,
                      const std::map<std::string, ara::workloads::Workload>&
                          workloads,
                      const DigestTable& digests, Tally& tally,
                      Tracer* tracer, std::uint64_t id) {
  ara::dse::SweepRequest request;
  request.with_jobs(kSweepJobs);
  for (const auto& p : points) {
    request.add(p.spec().to_config(), workloads.at(p.bench));
  }
  SweepOutcome out;
  std::vector<ara::dse::SweepResult> results;
  const std::uint64_t t0 = now_ns();
  try {
    Span s(tracer, "dse.run", id);
    results = ara::dse::run(request);
  } catch (const std::exception& e) {
    for (const auto& p : points) tally.fail(p.label() + ": " + e.what());
    return out;
  }
  out.wall_s = seconds_between(t0, now_ns());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    ara::dse::ResultCache::Entry entry;
    entry.result = r.result;
    entry.metrics = r.metrics;
    entry.events = r.events;
    entry.event_kinds = r.event_kinds;
    std::string json;
    {
      Span s(tracer, "obs.entry_json", i);
      json = ara::dse::ResultCache::to_json(
          ara::dse::ResultCache::key(request.sweep[i].config,
                                     *request.sweep[i].workload),
          ara::dse::kSimVersionSalt, entry);
    }
    digests.check(points[i], json, tally);
    out.makespan += r.result.makespan;
    out.events += r.events;
    out.point_s.push_back(r.wall_seconds);
  }
  return out;
}

std::map<std::string, ara::workloads::Workload> make_workloads(
    const std::vector<GridPoint>& points, Tracer* tracer) {
  std::map<std::string, ara::workloads::Workload> made;
  for (const auto& p : points) {
    if (made.count(p.bench) == 0) {
      Span s(tracer, "workloads.make");
      made.emplace(p.bench, ara::workloads::make_benchmark(p.bench, p.scale));
    }
  }
  return made;
}

/// Sweeps, each in a fresh process, until `seconds` have passed (at least
/// one), or exactly `count` sweeps when `count` is non-zero. *peak_rss_mb
/// gets the largest child's peak.
std::vector<SweepOutcome> run_sweeps(const Options& opt, Tally& tally,
                                     Tracer* tracer, double seconds,
                                     std::size_t count, double* peak_rss_mb) {
  std::vector<SweepOutcome> out;
  const std::uint64_t t0 = now_ns();
  while (count != 0 ? out.size() < count
                    : out.empty() || seconds_between(t0, now_ns()) < seconds) {
    const ChildResult r = run_child(opt, out.size(), tracer, tally);
    SweepOutcome o;
    o.wall_s = r.fields.count("wall_s") != 0 ? r.fields.at("wall_s") : 0;
    if (o.wall_s <= 0) break;  // the child failed; run_child counted it
    o.setup_s = r.fields.at("setup_s");
    o.makespan = static_cast<std::uint64_t>(r.fields.at("makespan"));
    o.events = static_cast<std::uint64_t>(r.fields.at("events"));
    o.point_s = r.series;
    *peak_rss_mb = std::max(*peak_rss_mb, r.peak_rss_mb);
    out.push_back(std::move(o));
  }
  return out;
}

double total_wall(const std::vector<SweepOutcome>& sweeps) {
  double s = 0;
  for (const auto& o : sweeps) s += o.wall_s;
  return s;
}

}  // namespace

void child_sweep(const Options& opt, const DigestTable& digests,
                 Tally& tally, Tracer* tracer) {
  const auto points = sample(opt.seed);
  const std::uint64_t t0 = now_ns();
  const auto workloads = make_workloads(points, tracer);
  const double setup_s = seconds_between(t0, now_ns());
  const SweepOutcome o =
      run_once(points, workloads, digests, tally, tracer, *opt.child_index);
  emit_child({{"setup_s", setup_s},
              {"wall_s", o.wall_s},
              {"makespan", static_cast<double>(o.makespan)},
              {"events", static_cast<double>(o.events)}},
             o.point_s, tracer, tally);
}

void sweep_workload(const Options& opt, const DigestTable& digests,
                    Tally& tally, Report& report, Tracer* tracer) {
  const auto points = sample(opt.seed);

  // One untimed sweep first: on an idle machine the first sweep after a
  // pause ran 30-40% slower than the ones that followed it.
  double peak_rss_mb = 0;
  const auto warm = run_sweeps(opt, tally, nullptr, 0, 1, &peak_rss_mb);

  if (!opt.trace) {
    const auto sweeps =
        run_sweeps(opt, tally, nullptr, opt.seconds, 0, &peak_rss_mb);
    // Set-up is workload generation in each sweep's fresh process, the
    // untimed one's too: one make_benchmark per benchmark the sample uses.
    // It varies more between processes than between passes in one.
    std::vector<double> setups, latency_ms, points_rate, cycles_rate;
    for (const auto& o : warm) setups.push_back(o.setup_s);
    std::cout << "sweep walls (ms):";
    for (const auto& o : sweeps) {
      setups.push_back(o.setup_s);
      latency_ms.push_back(o.wall_s * 1e3);
      points_rate.push_back(static_cast<double>(points.size()) / o.wall_s);
      cycles_rate.push_back(static_cast<double>(o.makespan) / o.wall_s);
      std::cout << " " << o.wall_s * 1e3;
    }
    std::cout << "\n";
    report.set("setup_s", median(setups), "s");
    report.set("points_per_s", median(points_rate), "points/s");
    report.set("sim_cycles_per_s", median(cycles_rate), "cycles/s");
    report.set("peak_rss_mb", peak_rss_mb, "MiB");
    report.set("request_p50_ms", quantile(latency_ms, 0.5), "ms");
    report.set("request_p99_ms", quantile(latency_ms, 0.99), "ms");
    report.set("requests_per_s",
               static_cast<double>(sweeps.size()) / total_wall(sweeps),
               "requests/s");
    return;
  }

  // Traced: the same sweeps untraced for half the time, then as many again
  // with spans on (their wall difference is the tracing overhead), then a
  // counting pass and the drills.
  const auto plain =
      run_sweeps(opt, tally, nullptr, opt.seconds / 2, 0, &peak_rss_mb);
  const auto traced =
      run_sweeps(opt, tally, tracer, 0, plain.size(), &peak_rss_mb);
  if (plain.empty() || traced.empty()) return;
  std::vector<double> point_s, parallelism;
  for (const auto& o : traced) {
    double sum = 0;
    for (const double s : o.point_s) sum += s;
    point_s.insert(point_s.end(), o.point_s.begin(), o.point_s.end());
    parallelism.push_back(sum / o.wall_s);
  }
  report.set("bench.trace_overhead",
             (total_wall(traced) - total_wall(plain)) / total_wall(plain),
             "fraction");
  report.set("dse.points", static_cast<double>(points.size()), "count");
  report.set("dse.point_s_p50", quantile(point_s, 0.5), "s");
  report.set("dse.point_s_max", quantile(point_s, 1.0), "s");
  report.set("dse.parallelism", median(parallelism), "x");

  Counts counts;
  {
    Span s(tracer, "bench.count_pass");
    counts = count_points(points, digests, tally, tracer, kSweepJobs);
  }
  if (counts.sim_events != traced.front().events) {
    tally.fail("sim.events differ between dse::run (" +
               std::to_string(traced.front().events) +
               ") and the counting pass (" +
               std::to_string(counts.sim_events) + ")");
  }
  report_counts(counts, report);

  // Drill reference: the sample's 3-island 1-ring 32B chaining-heavy point
  // (the second of its cell's pair), where ring links carry most of the
  // reservations.
  std::size_t ref = 1;
  while (points[ref].islands != 3 || points[ref].net != 2) ref += 2;
  {
    Span s(tracer, "bench.drills");
    report_drills(run_drills(points[ref], counts, opt.seed, tracer), report);
  }
  report_span_layers(*tracer, report);
}

}  // namespace perfbench
