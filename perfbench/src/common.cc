// Shared pieces of the benchmark driver: the paper grid, the pinned digest
// table, the span recorder, per-point simulation with counts, and the
// metric report.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/config_digest.h"
#include "dse/result_cache.h"
#include "island/spm_dma_net.h"
#include "obs/clock.h"
#include "obs/json_io.h"
#include "obs/metrics_export.h"
#include "perfbench.h"
#include "sim/rng.h"
#include "workloads/registry.h"

extern char** environ;

namespace perfbench {

std::uint64_t now_ns() { return ara::obs::MonotonicClock::host().now_ns(); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ull + salt;
  return ara::sim::splitmix64(state);
}

// ------------------------------------------------------------- the grid

const std::vector<std::string>& network_labels() {
  static const std::vector<std::string> kLabels = {
      "proxy", "ring1x16", "ring1x32", "ring2x32", "ring3x32"};
  return kLabels;
}

const std::vector<std::uint32_t>& island_counts() {
  static const std::vector<std::uint32_t> kIslands = {3, 6, 12, 24};
  return kIslands;
}

const std::vector<std::string>& light_benchmarks() {
  static const std::vector<std::string> kLight = {"Deblur", "Denoise",
                                                  "Registration",
                                                  "DisparityMap"};
  return kLight;
}

const std::vector<std::string>& heavy_benchmarks() {
  static const std::vector<std::string> kHeavy = {
      "Segmentation", "RobotLocalization", "EKF-SLAM"};
  return kHeavy;
}

const std::vector<double>& served_scales() {
  static const std::vector<double> kScales = {0.01, 0.02, 0.03};
  return kScales;
}

std::vector<double> pinned_scales() {
  std::vector<double> s = served_scales();
  s.push_back(kSweepScale);
  s.push_back(kPointScale);
  return s;
}

ara::dse::PointSpec GridPoint::spec() const {
  ara::dse::PointSpec s;
  s.islands = islands;
  s.net = net == 0 ? "proxy" : "ring";
  static const std::uint32_t kRings[] = {1, 1, 1, 2, 3};
  static const std::uint64_t kWidth[] = {32, 16, 32, 32, 32};
  s.rings = kRings[net];
  s.link_bytes = kWidth[net];
  return s;
}

std::string GridPoint::label() const {
  std::ostringstream os;
  os << scale << " " << bench << " " << islands << " "
     << network_labels()[net];
  return os.str();
}

std::vector<GridPoint> grid_at(double scale) {
  std::vector<GridPoint> out;
  for (const auto& b : ara::workloads::benchmark_names()) {
    for (const std::uint32_t islands : island_counts()) {
      for (std::size_t n = 0; n < network_labels().size(); ++n) {
        out.push_back({b, islands, n, scale});
      }
    }
  }
  return out;
}

// -------------------------------------------------------- output checks

void Tally::fail(const std::string& why) {
  attempted_.fetch_add(1, std::memory_order_relaxed);
  if (failed_.fetch_add(1, std::memory_order_relaxed) < 8) {
    std::cerr << "perfbench: FAILED: " << why << "\n";
  }
}

std::uint64_t entry_digest(std::string_view entry_json) {
  while (!entry_json.empty() && entry_json.back() == '\n') {
    entry_json.remove_suffix(1);
  }
  return ara::core::fnv1a64(entry_json);
}

bool DigestTable::load(const std::string& path, bool corrupt,
                       std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::string line;
  bool salt_ok = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string scale, bench, islands, net, digest;
    std::uint64_t makespan = 0;
    if (line.rfind("salt ", 0) == 0) {
      std::uint64_t salt = 0;
      ls >> scale >> salt;
      salt_ok = salt == ara::dse::kSimVersionSalt;
      if (!salt_ok) {
        *error = path + " was pinned under salt " + std::to_string(salt) +
                 " but the simulator's kSimVersionSalt is " +
                 std::to_string(ara::dse::kSimVersionSalt) +
                 "; re-pin with `python3 perfbench/run.py --pin`";
        return false;
      }
      continue;
    }
    if (!(ls >> scale >> bench >> islands >> net >> digest >> makespan)) {
      *error = "malformed digest line: " + line;
      return false;
    }
    Pin pin;
    pin.digest = std::stoull(digest, nullptr, 16) ^ (corrupt ? 1u : 0u);
    pin.makespan = makespan;
    pins_[scale + " " + bench + " " + islands + " " + net] = pin;
  }
  if (!salt_ok) {
    *error = path + " names no salt";
    return false;
  }
  return true;
}

void DigestTable::check(const GridPoint& p, std::string_view entry_json,
                        Tally& tally) const {
  const auto it = pins_.find(p.label());
  if (it == pins_.end()) {
    tally.fail("no pinned digest for " + p.label());
  } else if (entry_digest(entry_json) != it->second.digest) {
    tally.fail("digest mismatch for " + p.label());
  } else {
    tally.ok();
  }
}

std::uint64_t DigestTable::makespan(const GridPoint& p) const {
  const auto it = pins_.find(p.label());
  return it == pins_.end() ? 0 : it->second.makespan;
}

// ---------------------------------------------------------------- trace

namespace {
thread_local std::vector<std::int64_t> t_open_spans;
}  // namespace

std::int64_t Tracer::open(const char* name, std::uint64_t id) {
  Record r;
  r.name = name;
  r.id = id;
  r.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  r.start_ns = now_ns();
  std::int64_t index = 0;
  {
    ara::common::MutexLock lock(mu_);
    index = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(std::move(r));
  }
  t_open_spans.push_back(index);
  return index;
}

void Tracer::close(std::int64_t index) {
  const std::uint64_t end = now_ns();
  if (!t_open_spans.empty()) t_open_spans.pop_back();
  ara::common::MutexLock lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_ns = end;
}

void Tracer::adopt(const std::vector<Record>& spans, std::int64_t parent) {
  ara::common::MutexLock lock(mu_);
  const auto base = static_cast<std::int64_t>(spans_.size());
  for (Record r : spans) {
    r.parent = r.parent < 0 ? parent : r.parent + base;
    spans_.push_back(std::move(r));
  }
}

std::vector<Tracer::Record> Tracer::records() const {
  ara::common::MutexLock lock(mu_);
  return spans_;
}

std::int64_t Tracer::current() {
  return t_open_spans.empty() ? -1 : t_open_spans.back();
}

SpanParent::SpanParent(std::int64_t parent) { t_open_spans.push_back(parent); }
SpanParent::~SpanParent() { t_open_spans.pop_back(); }

std::vector<double> Tracer::durations(const std::string& name) const {
  ara::common::MutexLock lock(mu_);
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.name == name) out.push_back(seconds_between(s.start_ns, s.end_ns));
  }
  return out;
}

std::map<std::string, double> Tracer::self_seconds() const {
  ara::common::MutexLock lock(mu_);
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans_.size());
  for (const auto& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].push_back(
          {s.start_ns, s.end_ns});
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = s.start_ns;  // end of the covered prefix
    for (const auto& [start, end] : kids) {
      const std::uint64_t from = std::max(start, reach);
      const std::uint64_t to = std::min(end, s.end_ns);
      if (to > from) covered += to - from;
      reach = std::max(reach, to);
    }
    out[s.name] +=
        static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return out;
}

bool Tracer::write(const std::string& path,
                   const std::string& record_json) const {
  const auto self = self_seconds();
  std::ofstream os(path, std::ios::trunc);
  os << "{\"record\":" << record_json << ",\"self_s\":{";
  bool first = true;
  for (const auto& [name, s] : self) {
    os << (first ? "" : ",") << "\"" << name << "\":";
    ara::obs::json_number(os, s, 9);
    first = false;
  }
  os << "},\"spans\":[";
  ara::common::MutexLock lock(mu_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    os << (i > 0 ? ",\n" : "\n") << "{\"name\":\"" << r.name
       << "\",\"start_ns\":" << r.start_ns << ",\"end_ns\":" << r.end_ns
       << ",\"parent\":" << r.parent << ",\"id\":" << r.id << "}";
  }
  os << "]}\n";
  return static_cast<bool>(os);
}

// --------------------------------------------------------------- counts

void Counts::add(const Counts& o) {
  points += o.points;
  makespan += o.makespan;
  sim_events += o.sim_events;
  intervals_max = std::max(intervals_max, o.intervals_max);
  noc_reservations += o.noc_reservations;
  noc_packets += o.noc_packets;
  noc_bytes += o.noc_bytes;
  l2_accesses += o.l2_accesses;
  l2_hits += o.l2_hits;
  mc_accesses += o.mc_accesses;
  dma_transfers += o.dma_transfers;
  net_byte_hops += o.net_byte_hops;
  tasks_started += o.tasks_started;
  tasks_queued += o.tasks_queued;
  chains_direct += o.chains_direct;
  chains_spilled += o.chains_spilled;
  gam_queued += o.gam_queued;
}

namespace {

const std::vector<std::pair<const char*, std::uint64_t Counts::*>>&
count_table() {
  static const std::vector<std::pair<const char*, std::uint64_t Counts::*>>
      kTable = {{"points", &Counts::points},
                {"makespan", &Counts::makespan},
                {"sim.events", &Counts::sim_events},
                {"sim.link.intervals_max", &Counts::intervals_max},
                {"noc.reservations", &Counts::noc_reservations},
                {"noc.packets", &Counts::noc_packets},
                {"noc.bytes", &Counts::noc_bytes},
                {"mem.l2.accesses", &Counts::l2_accesses},
                {"mem.l2.hits", &Counts::l2_hits},
                {"mem.mc.accesses", &Counts::mc_accesses},
                {"island.dma.transfers", &Counts::dma_transfers},
                {"island.net.byte_hops", &Counts::net_byte_hops},
                {"abc.tasks_started", &Counts::tasks_started},
                {"abc.tasks_queued", &Counts::tasks_queued},
                {"abc.chains_direct", &Counts::chains_direct},
                {"abc.chains_spilled", &Counts::chains_spilled},
                {"gam.queued_requests", &Counts::gam_queued}};
  return kTable;
}

}  // namespace

std::vector<std::pair<std::string, std::uint64_t>> Counts::fields() const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& [name, member] : count_table()) {
    out.emplace_back(name, this->*member);
  }
  return out;
}

Counts Counts::from_fields(const std::map<std::string, double>& fields) {
  Counts c;
  for (const auto& [name, member] : count_table()) {
    const auto it = fields.find(std::string("count.") + name);
    if (it != fields.end()) c.*member = static_cast<std::uint64_t>(it->second);
  }
  return c;
}

// ------------------------------------------------------------- children

ChildResult run_child(const Options& opt, std::uint64_t index,
                      Tracer* tracer, Tally& tally) {
  char self[4096];
  const ssize_t len = readlink("/proc/self/exe", self, sizeof self - 1);
  if (len <= 0) throw std::runtime_error("cannot locate /proc/self/exe");
  self[len] = '\0';
  std::ostringstream seed, seconds;
  seed << opt.seed;
  seconds << opt.seconds;
  std::vector<std::string> args = {
      self,         "--child",   std::to_string(index), "--workload",
      opt.workload, "--seed",    seed.str(),            "--seconds",
      seconds.str(), "--trace",  tracer != nullptr ? "1" : "0",
      "--digests",  opt.digests_path};
  if (opt.corrupt_digests) args.push_back("--corrupt-digests");
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = -1;
  const int spawned =
      posix_spawn(&pid, self, &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  if (spawned == 0) {
    char buf[65536];
    for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) > 0;) {
      out.append(buf, static_cast<std::size_t>(n));
    }
  }
  close(fds[0]);
  if (spawned != 0) throw std::runtime_error("cannot start a child process");
  int status = 0;
  struct rusage ru{};
  wait4(pid, &status, 0, &ru);

  ChildResult r;
  r.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  std::vector<Tracer::Record> spans;
  std::istringstream lines(out);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "field") {
      std::string name;
      double value = 0;
      ls >> name >> value;
      r.fields[name] = value;
    } else if (kind == "series") {
      for (double v = 0; ls >> v;) r.series.push_back(v);
    } else if (kind == "span") {
      Tracer::Record s;
      ls >> s.name >> s.start_ns >> s.end_ns >> s.parent >> s.id;
      spans.push_back(std::move(s));
    }
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      r.fields.count("attempted") == 0) {
    tally.fail(opt.workload + " unit " + std::to_string(index) +
               ": child process failed");
    return r;
  }
  tally.merge(static_cast<std::uint64_t>(r.fields["attempted"]),
              static_cast<std::uint64_t>(r.fields["failed"]));
  if (tracer != nullptr) tracer->adopt(spans, Tracer::current());
  return r;
}

void emit_child(const std::map<std::string, double>& fields,
                const std::vector<double>& series, const Tracer* tracer,
                const Tally& tally) {
  std::ostringstream os;
  os.precision(17);
  for (const auto& [name, value] : fields) {
    os << "field " << name << " " << value << "\n";
  }
  os << "field attempted " << tally.attempted() << "\n"
     << "field failed " << tally.failed() << "\n"
     << "series";
  for (const double v : series) os << " " << v;
  os << "\n";
  if (tracer != nullptr) {
    for (const auto& s : tracer->records()) {
      os << "span " << s.name << " " << s.start_ns << " " << s.end_ns << " "
         << s.parent << " " << s.id << "\n";
    }
  }
  std::cout << os.str() << std::flush;
}

namespace {

Counts read_counts(ara::core::System& sys,
                   const ara::core::RunResult& result) {
  Counts c;
  c.points = 1;
  c.makespan = result.makespan;
  c.sim_events = sys.simulator().events_processed();
  auto& mesh = sys.mesh();
  for (std::size_t n = 0; n < mesh.node_count(); ++n) {
    for (std::size_t d = 0; d < ara::noc::kNumPorts; ++d) {
      const auto& port =
          mesh.router(static_cast<ara::NodeId>(n))
              .port(static_cast<ara::noc::Direction>(d));
      c.noc_reservations += port.transfers();
      c.intervals_max = std::max<std::uint64_t>(
          c.intervals_max, port.reservation_intervals());
    }
  }
  c.noc_packets = mesh.total_packets();
  c.noc_bytes = mesh.total_bytes_injected();
  const auto& mem = sys.memory();
  for (std::size_t i = 0; i < mem.l2_bank_count(); ++i) {
    c.l2_accesses += mem.l2_bank(i).accesses();
    c.l2_hits += mem.l2_bank(i).hits();
  }
  for (std::size_t i = 0; i < mem.controller_count(); ++i) {
    c.mc_accesses += mem.controller(i).accesses();
  }
  for (std::size_t i = 0; i < sys.island_count(); ++i) {
    auto& isl = sys.island(static_cast<ara::IslandId>(i));
    c.dma_transfers += isl.dma().transfers();
    if (const auto* ring =
            dynamic_cast<const ara::island::RingNet*>(&isl.net())) {
      c.net_byte_hops += ring->byte_hops();
    }
  }
  c.tasks_started = sys.composer().tasks_started();
  c.tasks_queued = sys.composer().tasks_queued();
  c.chains_direct = sys.composer().chains_direct();
  c.chains_spilled = sys.composer().chains_spilled();
  c.gam_queued = sys.gam().queued_requests();
  return c;
}

}  // namespace

PointRun simulate_point(const GridPoint& p, Tracer* tracer,
                        std::uint64_t id) {
  PointRun out;
  const ara::core::ArchConfig config = p.spec().to_config();
  const std::uint64_t t0 = now_ns();
  std::optional<ara::workloads::Workload> wl;
  {
    Span s(tracer, "workloads.make", id);
    wl = ara::workloads::make_benchmark(p.bench, p.scale);
  }
  const std::uint64_t t1 = now_ns();
  std::unique_ptr<ara::core::System> sys;
  {
    Span s(tracer, "core.build", id);
    sys = std::make_unique<ara::core::System>(config);
  }
  const std::uint64_t t2 = now_ns();
  {
    Span s(tracer, "core.run", id);
    out.result = sys->run(*wl);
  }
  const std::uint64_t t3 = now_ns();
  out.counts = read_counts(*sys, out.result);
  ara::dse::ResultCache::Entry entry;
  entry.result = out.result;
  entry.metrics = ara::obs::MetricsSnapshot::capture(sys->stats());
  entry.events = sys->simulator().events_processed();
  entry.event_kinds = sys->simulator().kind_stats();
  {
    Span s(tracer, "obs.entry_json", id);
    out.entry_json = ara::dse::ResultCache::to_json(
        ara::dse::ResultCache::key(config, *wl), ara::dse::kSimVersionSalt,
        entry);
  }
  const std::uint64_t t4 = now_ns();
  {
    Span s(tracer, "core.teardown", id);
    sys.reset();
  }
  const std::uint64_t t5 = now_ns();
  out.make_s = seconds_between(t0, t1);
  out.build_s = seconds_between(t1, t2);
  out.run_s = seconds_between(t2, t3);
  out.teardown_s = seconds_between(t4, t5);
  return out;
}

Counts count_points(const std::vector<GridPoint>& points,
                    const DigestTable& digests, Tally& tally, Tracer* tracer,
                    unsigned threads) {
  std::vector<Counts> per_point(points.size());
  std::atomic<std::size_t> cursor{0};
  const std::int64_t parent = Tracer::current();
  auto worker = [&]() {
    SpanParent nest(parent);
    for (std::size_t i = cursor.fetch_add(1); i < points.size();
         i = cursor.fetch_add(1)) {
      try {
        const PointRun run = simulate_point(points[i], tracer, i);
        digests.check(points[i], run.entry_json, tally);
        per_point[i] = run.counts;
      } catch (const std::exception& e) {
        tally.fail(points[i].label() + ": " + e.what());
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < std::max(1u, threads); ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  Counts total;
  for (const auto& c : per_point) total.add(c);
  return total;
}

// --------------------------------------------------------------- report

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  values_[name] = {value, unit};
}

bool Report::has(const std::string& name) const {
  return values_.count(name) != 0;
}

double Report::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second.value;
}

void Report::print_lines() const {
  for (const auto& [name, v] : values_) {
    std::cout << "  " << name << " " << v.value << " " << v.unit << "\n";
  }
}

std::string Report::json(const std::vector<MetricDef>& defs) const {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    os << (i > 0 ? "," : "") << "\"" << defs[i].name << "\":{\"value\":";
    ara::obs::json_number(os, get(defs[i].name), 10);
    os << ",\"unit\":\"" << defs[i].unit << "\"}";
  }
  os << "}";
  return os.str();
}

namespace {
double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}
}  // namespace

void report_counts(const Counts& c, Report& r) {
  r.set("bench.points", static_cast<double>(c.points), "count");
  r.set("sim.events", static_cast<double>(c.sim_events), "count");
  r.set("sim.link.intervals_max", static_cast<double>(c.intervals_max),
        "count");
  r.set("noc.reservations", static_cast<double>(c.noc_reservations), "count");
  r.set("noc.packets", static_cast<double>(c.noc_packets), "count");
  r.set("mem.l2.accesses", static_cast<double>(c.l2_accesses), "count");
  r.set("mem.l2.hit_rate", ratio(c.l2_hits, c.l2_accesses), "fraction");
  r.set("mem.mc.accesses", static_cast<double>(c.mc_accesses), "count");
  r.set("island.dma.transfers", static_cast<double>(c.dma_transfers),
        "count");
  r.set("island.net.byte_hops", static_cast<double>(c.net_byte_hops),
        "byte-hops");
  r.set("abc.tasks_started", static_cast<double>(c.tasks_started), "count");
  r.set("abc.tasks_queued", static_cast<double>(c.tasks_queued), "count");
  r.set("abc.chains", static_cast<double>(c.chains_direct + c.chains_spilled),
        "count");
  r.set("abc.chain_direct_ratio",
        ratio(c.chains_direct, c.chains_direct + c.chains_spilled),
        "fraction");
  r.set("gam.queued_requests", static_cast<double>(c.gam_queued), "count");
  for (const auto& [name, value] : c.fields()) r.counts[name] = value;
}

void report_drills(const DrillResult& d, Report& r) {
  r.set("sim.link.submit_ns", d.submit_ns, "ns");
  r.set("noc.transfer_ns", d.transfer_ns, "ns");
  r.set("mem.read_ns", d.read_ns, "ns");
  r.set("mem.write_ns", d.write_ns, "ns");
  r.set("island.chain_ns", d.chain_ns, "ns");
  r.set("island.dma_load_ns", d.dma_load_ns, "ns");
}

void report_span_layers(const Tracer& tracer, Report& r) {
  r.set("workloads.make_s", median(tracer.durations("workloads.make")), "s");
  r.set("core.build_s", median(tracer.durations("core.build")), "s");
  r.set("core.run_s", median(tracer.durations("core.run")), "s");
  r.set("core.teardown_s", median(tracer.durations("core.teardown")), "s");
  r.set("obs.entry_json_ms", median(tracer.durations("obs.entry_json")) * 1e3,
        "ms");
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s"},
      {"points_per_s", "points/s"},
      {"sim_cycles_per_s", "cycles/s"},
      {"peak_rss_mb", "MiB"},
      {"request_p50_ms", "ms"},
      {"request_p99_ms", "ms"},
      {"requests_per_s", "requests/s"}};
  return kDefs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> kDefs = {
      {"sim.link.submit_ns", "ns"},
      {"sim.link.intervals_max", "count"},
      {"sim.events", "count"},
      {"noc.reservations", "count"},
      {"noc.packets", "count"},
      {"noc.transfer_ns", "ns"},
      {"mem.l2.accesses", "count"},
      {"mem.l2.hit_rate", "fraction"},
      {"mem.mc.accesses", "count"},
      {"mem.read_ns", "ns"},
      {"mem.write_ns", "ns"},
      {"island.dma.transfers", "count"},
      {"island.net.byte_hops", "byte-hops"},
      {"island.chain_ns", "ns"},
      {"island.dma_load_ns", "ns"},
      {"abc.tasks_started", "count"},
      {"abc.tasks_queued", "count"},
      {"abc.chains", "count"},
      {"abc.chain_direct_ratio", "fraction"},
      {"gam.queued_requests", "count"},
      {"workloads.make_s", "s"},
      {"core.build_s", "s"},
      {"core.run_s", "s"},
      {"core.teardown_s", "s"},
      {"dse.points", "count"},
      {"dse.point_s_p50", "s"},
      {"dse.point_s_max", "s"},
      {"dse.parallelism", "x"},
      {"dse.cache_hit_rate", "fraction"},
      {"dse.coalesced", "count"},
      {"dse.cache_lookup_ms", "ms"},
      {"serve.requests", "count"},
      {"serve.queued_ms_p50", "ms"},
      {"serve.queued_ms_p99", "ms"},
      {"serve.simulate_ms_p99", "ms"},
      {"serve.serialize_ms_p50", "ms"},
      {"serve.response_bytes", "bytes"},
      {"obs.entry_json_ms", "ms"},
      {"bench.points", "count"},
      {"bench.trace_overhead", "fraction"},
      {"error_rate", "fraction"}};
  return kDefs;
}

}  // namespace perfbench
