// The `served` workload: a fresh ara_serve daemon (2 handlers, 1 job per
// sweep, memory-only cache) driven closed-loop by 4 connections from this
// process. Most requests are 4-point sweeps of one benchmark drawn from a
// seeded pool that set-up warms. One request in ten is instead a 1-point
// sweep of a grid point not yet cached, which the daemon simulates and
// inserts; every fourth such request is sent twice in a row, so two
// connections usually carry it at once and the daemon coalesces it.
//
// New points come from a reservoir: the scale-0.01 (1-invocation) grid
// points outside the pool shuffled together with the scale-0.02 ones, then
// the scale-0.03 ones in reserve. The grid has too few 1-invocation points
// for a whole run, and larger points would make simulation, not serving,
// the bulk of the daemon's work; mixing the first two scales keeps the
// cost of a new point the same all through a run, however far it gets. A
// run that outpaces the reservoir repeats it; those requests hit.
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "dse/result_cache.h"
#include "obs/json_io.h"
#include "perfbench.h"
#include "serve/protocol.h"
#include "workloads/registry.h"

extern char** environ;

namespace perfbench {

namespace {

constexpr unsigned kClients = 4;
constexpr std::uint64_t kBlock = 10;  // one new-point request per block

/// The seeded request stream: one pool per benchmark at the smallest
/// served scale, holding one point per island count on a seeded network
/// (so every pool request encodes the same mix of entry sizes), and the
/// reservoir of all other grid points.
class Plan {
 public:
  explicit Plan(std::uint64_t seed) : seed_(seed) {
    const auto& benches = ara::workloads::benchmark_names();
    const std::size_t nets = network_labels().size();
    std::vector<GridPoint> tier;
    for (const double scale : served_scales()) {
      const bool pooled = scale == served_scales().front();
      for (const auto& b : benches) {
        std::vector<GridPoint> pool;
        for (const std::uint32_t islands : island_counts()) {
          const std::size_t pick = mix(seed, 100 + tier.size()) % nets;
          for (std::size_t n = 0; n < nets; ++n) {
            auto& to = pooled && n == pick ? pool : tier;
            to.push_back({b, islands, n, scale});
          }
        }
        if (pooled) pools_.push_back(std::move(pool));
      }
      if (pooled) continue;  // the first two scales form one tier
      shuffle(tier, mix(seed, 31 + reservoir_.size()));
      reservoir_.insert(reservoir_.end(), tier.begin(), tier.end());
      tier.clear();
    }
  }

  const std::vector<std::vector<GridPoint>>& pools() const { return pools_; }

  /// Request i: a benchmark's pool points in a seeded rotation, or — once
  /// per block of kBlock requests, at a seeded position — the block's
  /// reservoir point alone. *fresh receives that point's reservoir index.
  std::vector<GridPoint> request(std::uint64_t i,
                                 std::optional<std::size_t>* fresh) const {
    const std::uint64_t block = i / kBlock;
    const std::uint64_t pos = i % kBlock;
    const std::uint64_t at = mix(seed_, 1000 + block) % (kBlock - 1);
    const bool paired = block % 4 == 3;
    if (pos == at || (paired && pos == at + 1)) {
      const std::size_t r = static_cast<std::size_t>(block % reservoir_.size());
      *fresh = r;
      return {reservoir_[r]};
    }
    const std::uint64_t h = mix(seed_, 5000 + i);
    std::vector<GridPoint> pts = pools_[h % pools_.size()];
    std::rotate(pts.begin(), pts.begin() + (h >> 32) % pts.size(), pts.end());
    return pts;
  }

  const GridPoint& reservoir_point(std::size_t r) const {
    return reservoir_[r];
  }
  std::size_t reservoir_size() const { return reservoir_.size(); }

 private:
  std::uint64_t seed_;
  std::vector<std::vector<GridPoint>> pools_;
  std::vector<GridPoint> reservoir_;
};

std::string request_json(const std::vector<GridPoint>& pts,
                         const std::string& client) {
  std::ostringstream os;
  os << "{\"type\":\"sweep\",\"client\":\"" << client << "\",\"workload\":\""
     << pts.front().bench << "\",\"scale\":";
  ara::obs::json_number(os, pts.front().scale, 17);
  os << ",\"points\":[";
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const auto spec = pts[i].spec();
    os << (i > 0 ? "," : "") << "{\"islands\":" << spec.islands
       << ",\"net\":\"" << spec.net << "\",\"rings\":" << spec.rings
       << ",\"width\":" << spec.link_bytes << "}";
  }
  os << "]}";
  return os.str();
}

/// Index of the '}' closing the object that opens at `open`.
std::size_t close_of(const std::string& s, std::size_t open) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = open; i < s.size(); ++i) {
    const char ch = s[i];
    if (in_string) {
      if (ch == '\\') {
        ++i;
      } else if (ch == '"') {
        in_string = false;
      }
    } else if (ch == '"') {
      in_string = true;
    } else if (ch == '{') {
      ++depth;
    } else if (ch == '}' && --depth == 0) {
      return i;
    }
  }
  return std::string::npos;
}

struct Served {
  std::uint64_t requests = 0;
  std::uint64_t points = 0;
  std::uint64_t from_cache = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t bytes = 0;
  std::uint64_t makespan = 0;
  std::vector<double> latency_ms;
  std::vector<double> point_s;  // wall_seconds of the points simulated
  std::string sample_entry;  // one served entry, for the obs drill
  GridPoint sample_point;

  void add(const Served& o) {
    requests += o.requests;
    points += o.points;
    from_cache += o.from_cache;
    coalesced += o.coalesced;
    bytes += o.bytes;
    makespan += o.makespan;
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    point_s.insert(point_s.end(), o.point_s.begin(), o.point_s.end());
    if (sample_entry.empty()) {
      sample_entry = o.sample_entry;
      sample_point = o.sample_point;
    }
  }
};

/// Check every entry of one sweep_result against the pinned digests.
void check_response(const std::string& resp,
                    const std::vector<GridPoint>& pts,
                    const DigestTable& digests, Tally& tally, Served& out) {
  if (resp.rfind("{\"type\":\"sweep_result\"", 0) != 0) {
    for (const auto& p : pts) {
      tally.fail(p.label() + ": " + resp.substr(0, 160));
    }
    return;
  }
  std::size_t at = 0;
  for (const auto& p : pts) {
    const std::size_t flags = resp.find("{\"from_cache\":", at);
    const std::size_t entry = resp.find("\"entry\":", flags);
    const std::size_t open = entry == std::string::npos ? entry : entry + 8;
    const std::size_t close =
        open == std::string::npos ? open : close_of(resp, open);
    if (close == std::string::npos) {
      tally.fail(p.label() + ": truncated sweep_result");
      return;
    }
    const std::string_view head(resp.data() + flags, open - flags);
    const bool hit = head.find("\"from_cache\":true") != head.npos;
    const bool coalesced = head.find("\"coalesced\":true") != head.npos;
    out.from_cache += hit;
    out.coalesced += coalesced;
    const std::size_t wall = head.find("\"wall_seconds\":");
    if (!hit && !coalesced && wall != head.npos) {
      out.point_s.push_back(
          std::strtod(std::string(head.substr(wall + 15)).c_str(), nullptr));
    }
    const std::string_view body(resp.data() + open, close + 1 - open);
    digests.check(p, body, tally);
    if (out.sample_entry.empty()) {
      out.sample_entry = std::string(body);
      out.sample_point = p;
    }
    out.makespan += digests.makespan(p);
    ++out.points;
    at = close + 1;
  }
}

class Connection {
 public:
  explicit Connection(const std::string& socket)
      : fd_(ara::serve::protocol::connect_unix(socket)) {}
  ~Connection() {
    if (fd_ >= 0) close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool ok() const { return fd_ >= 0; }
  bool roundtrip(const std::string& request, std::string* response) {
    return ara::serve::protocol::write_frame(fd_, request) &&
           ara::serve::protocol::read_frame(fd_, response) ==
               ara::serve::protocol::ReadStatus::kOk;
  }

 private:
  int fd_;
};

/// One ara_serve process, stopped (SIGTERM, then waited for) on
/// destruction at the latest.
class Daemon {
 public:
  Daemon(const std::string& binary, std::string socket,
         const std::string& log)
      : socket_(std::move(socket)) {
    std::vector<std::string> args = {binary, "--socket", socket_,
                                     "--handlers", "2"};
    if (!log.empty()) {
      std::remove(log.c_str());
      args.push_back("--log");
      args.push_back(log);
    }
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    if (posix_spawn(&pid_, binary.c_str(), nullptr, nullptr, argv.data(),
                    environ) != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start " + binary);
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket() const { return socket_; }

  /// Block until the daemon answers a ping.
  void await_pong() {
    for (int attempt = 0; attempt < 10000; ++attempt) {
      Connection c(socket_);
      std::string pong;
      if (c.ok() && c.roundtrip("{\"type\":\"ping\"}", &pong)) {
        if (pong.find("\"pong\"") == std::string::npos) break;
        return;
      }
      if (waitpid(pid_, nullptr, WNOHANG) != 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    throw std::runtime_error("ara_serve did not answer a ping");
  }

  /// SIGTERM (graceful drain), wait for exit; returns peak RSS in MiB.
  double stop() {
    if (pid_ < 0) return peak_mb_;
    kill(pid_, SIGTERM);
    struct rusage ru{};
    int status = 0;
    for (int i = 0; i < 6000; ++i) {
      if (wait4(pid_, &status, WNOHANG, &ru) == pid_) {
        pid_ = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (pid_ >= 0) {
      kill(pid_, SIGKILL);
      wait4(pid_, &status, 0, &ru);
      pid_ = -1;
    }
    peak_mb_ = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return peak_mb_;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
  double peak_mb_ = 0;
};

/// Start a daemon and warm the pool over two connections (one per
/// handler). Returns the daemon; *setup_s gets start-to-warm seconds.
std::unique_ptr<Daemon> start_warm(const Options& opt, const Plan& plan,
                                   const DigestTable& digests, Tally& tally,
                                   const std::string& log, int instance,
                                   Tracer* tracer, double* setup_s) {
  Span span(tracer, "serve.setup", static_cast<std::uint64_t>(instance));
  const std::uint64_t t0 = now_ns();
  auto daemon = std::make_unique<Daemon>(
      opt.serve_binary, "serve-" + std::to_string(instance) + ".sock", log);
  daemon->await_pong();
  std::atomic<std::size_t> cursor{0};
  auto warm = [&]() {
    Connection c(daemon->socket());
    Served ignored;
    for (std::size_t g = cursor.fetch_add(1); g < plan.pools().size();
         g = cursor.fetch_add(1)) {
      std::string resp;
      if (!c.roundtrip(request_json(plan.pools()[g], "perfbench-warm"),
                       &resp)) {
        tally.fail("warm-up request failed in transport");
        return;
      }
      check_response(resp, plan.pools()[g], digests, tally, ignored);
    }
  };
  std::thread a(warm), b(warm);
  a.join();
  b.join();
  *setup_s = seconds_between(t0, now_ns());
  return daemon;
}

/// Closed loop on kClients connections: until `seconds` pass, or for
/// exactly `count` requests when non-zero. *wall_s gets the loop's span.
Served drive(const Daemon& daemon, const Plan& plan,
             const DigestTable& digests, Tally& tally, Tracer* tracer,
             double seconds, std::uint64_t count, double* wall_s,
             std::set<std::size_t>* fresh_points) {
  std::atomic<std::uint64_t> cursor{0};
  std::vector<Served> per_client(kClients);
  std::vector<std::set<std::size_t>> fresh(kClients);
  Span span(tracer, "serve.drive");
  const std::int64_t parent = Tracer::current();
  const std::uint64_t t0 = now_ns();
  const auto deadline = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  auto client = [&](unsigned k) {
    SpanParent nest(parent);
    Connection c(daemon.socket());
    const std::string name = "perfbench-" + std::to_string(k);
    Served& out = per_client[k];
    while (count != 0 || now_ns() < deadline) {
      const std::uint64_t i = cursor.fetch_add(1);
      if (count != 0 && i >= count) break;
      std::optional<std::size_t> fresh_index;
      const auto pts = plan.request(i, &fresh_index);
      if (fresh_index) fresh[k].insert(*fresh_index);
      const std::string request = request_json(pts, name);
      Span span(tracer, "serve.request", i);
      std::string resp;
      const std::uint64_t sent = now_ns();
      const bool ok = c.roundtrip(request, &resp);
      const std::uint64_t got = now_ns();
      if (!ok) {
        tally.fail("request " + std::to_string(i) + " failed in transport");
        return;
      }
      out.latency_ms.push_back(seconds_between(sent, got) * 1e3);
      out.bytes += resp.size();
      ++out.requests;
      Span check(tracer, "bench.check", i);
      check_response(resp, pts, digests, tally, out);
    }
  };
  std::vector<std::thread> threads;
  for (unsigned k = 0; k < kClients; ++k) threads.emplace_back(client, k);
  for (auto& t : threads) t.join();
  *wall_s = seconds_between(t0, now_ns());
  Served total;
  for (std::size_t k = 0; k < kClients; ++k) {
    total.add(per_client[k]);
    if (fresh_points != nullptr) {
      fresh_points->insert(fresh[k].begin(), fresh[k].end());
    }
  }
  return total;
}

void print_summary(const Served& s, const std::set<std::size_t>& fresh,
                   const Plan& plan) {
  std::cout << "served: " << s.requests << " requests, " << fresh.size()
            << " of " << plan.reservoir_size() << " reservoir points sent, "
            << s.from_cache << " of " << s.points << " points from cache\n";
}

void report_end_to_end(const Served& s, double wall_s, double setup_s,
                       double rss_mb, Report& report) {
  report.set("setup_s", setup_s, "s");
  report.set("points_per_s", static_cast<double>(s.points) / wall_s,
             "points/s");
  report.set("sim_cycles_per_s", static_cast<double>(s.makespan) / wall_s,
             "cycles/s");
  report.set("peak_rss_mb", rss_mb, "MiB");
  report.set("request_p50_ms", quantile(s.latency_ms, 0.5), "ms");
  report.set("request_p99_ms", quantile(s.latency_ms, 0.99), "ms");
  report.set("requests_per_s", static_cast<double>(s.requests) / wall_s,
             "requests/s");
}

/// serve.* and dse.cache_lookup_ms from the daemon's JSONL request log
/// (measured requests only; the warm-up's client is skipped). A request
/// whose points all hit must not simulate, and the daemon must miss on
/// exactly the `new_points` distinct points the stream sent it.
void report_log(const std::string& path, std::size_t new_points,
                Report& report, Tally& tally) {
  std::ifstream in(path);
  std::string line;
  std::vector<double> queued, lookup, simulate, serialize;
  std::uint64_t misses = 0;
  while (std::getline(in, line)) {
    ara::obs::JsonValue v;
    if (!ara::obs::parse_json(line, &v)) {
      tally.fail("request log line is not JSON");
      continue;
    }
    const auto* client = v.find("client");
    const auto* phases = v.find("phases_ns");
    const auto* outcomes = v.find("outcomes");
    if (client == nullptr || phases == nullptr || outcomes == nullptr) {
      tally.fail("request log line lacks client, phases_ns or outcomes");
      continue;
    }
    if (client->text == "perfbench-warm") {
      tally.ok();
      continue;
    }
    auto ms = [&](const char* phase) {
      const auto* p = phases->find(phase);
      return p == nullptr ? 0.0 : static_cast<double>(p->as_u64()) * 1e-6;
    };
    auto outcome = [&](const char* kind) {
      const auto* o = outcomes->find(kind);
      return o == nullptr ? 0 : o->as_u64();
    };
    misses += outcome("miss");
    if (outcome("miss") + outcome("follower") == 0 && ms("simulate") > 0) {
      tally.fail("a request served wholly from cache spent " +
                 std::to_string(ms("simulate")) + " ms simulating");
    } else {
      tally.ok();
    }
    queued.push_back(ms("queued"));
    lookup.push_back(ms("cache_lookup"));
    simulate.push_back(ms("simulate"));
    serialize.push_back(ms("serialize"));
  }
  if (misses != new_points) {
    tally.fail("the daemon missed on " + std::to_string(misses) +
               " points; the stream sent " + std::to_string(new_points) +
               " new ones");
  }
  report.set("serve.queued_ms_p50", quantile(queued, 0.5), "ms");
  report.set("serve.queued_ms_p99", quantile(queued, 0.99), "ms");
  report.set("serve.simulate_ms_p99", quantile(simulate, 0.99), "ms");
  report.set("serve.serialize_ms_p50", quantile(serialize, 0.5), "ms");
  report.set("dse.cache_lookup_ms", quantile(lookup, 0.5), "ms");
}

/// Re-encode one served entry with dse::ResultCache::to_json (timed under
/// obs.entry_json spans) and check it reproduces the served bytes.
void entry_json_drill(const Served& s, Tracer* tracer, Tally& tally) {
  if (s.sample_entry.empty()) return;
  const auto wl = ara::workloads::make_benchmark(s.sample_point.bench,
                                                 s.sample_point.scale);
  const std::uint64_t key = ara::dse::ResultCache::key(
      s.sample_point.spec().to_config(), wl);
  ara::dse::ResultCache::Entry entry;
  if (!ara::dse::ResultCache::from_json(s.sample_entry, key,
                                        ara::dse::kSimVersionSalt, &entry)) {
    tally.fail("served entry does not parse back through from_json");
    return;
  }
  for (int rep = 0; rep < 20; ++rep) {
    std::string json;
    {
      Span span(tracer, "obs.entry_json", rep);
      json = ara::dse::ResultCache::to_json(key, ara::dse::kSimVersionSalt,
                                            entry);
    }
    if (entry_digest(json) != entry_digest(s.sample_entry)) {
      tally.fail("to_json does not reproduce the served entry");
      return;
    }
  }
}

}  // namespace

void served_workload(const Options& opt, const DigestTable& digests,
                     Tally& tally, Report& report, Tracer* tracer) {
  const Plan plan(opt.seed);
  if (!opt.trace) {
    // Set-up five times (daemon start to first pong, plus the warm-up);
    // the last daemon serves the measured phase.
    std::vector<double> setups;
    std::unique_ptr<Daemon> daemon;
    for (int instance = 0; instance < 5; ++instance) {
      double setup_s = 0;
      if (daemon) daemon->stop();
      daemon = start_warm(opt, plan, digests, tally, "", instance, nullptr,
                          &setup_s);
      setups.push_back(setup_s);
    }
    double wall_s = 0;
    std::set<std::size_t> fresh;
    const Served s = drive(*daemon, plan, digests, tally, nullptr,
                           opt.seconds, 0, &wall_s, &fresh);
    report_end_to_end(s, wall_s, median(setups), daemon->stop(), report);
    print_summary(s, fresh, plan);
    return;
  }

  // Traced: a fixed request count, so the points the daemon simulates (and
  // so the counts) depend only on the seed. First untraced on a plain
  // daemon, then traced on one writing its request log; the wall
  // difference is the tracing overhead.
  const std::uint64_t count =
      std::max<std::uint64_t>(100, static_cast<std::uint64_t>(opt.seconds) *
                                       100);
  double setup_s = 0, plain_wall = 0, traced_wall = 0;
  {
    auto daemon = start_warm(opt, plan, digests, tally, "", 0, nullptr,
                             &setup_s);
    drive(*daemon, plan, digests, tally, nullptr, 0, count, &plain_wall,
          nullptr);
  }
  const std::string log = "serve-log.jsonl";
  auto daemon =
      start_warm(opt, plan, digests, tally, log, 1, tracer, &setup_s);
  std::set<std::size_t> fresh;
  const Served s = drive(*daemon, plan, digests, tally, tracer, 0, count,
                         &traced_wall, &fresh);
  report_end_to_end(s, traced_wall, setup_s, daemon->stop(), report);
  report.set("bench.trace_overhead", (traced_wall - plain_wall) / plain_wall,
             "fraction");
  report.set("serve.requests", static_cast<double>(s.requests), "count");
  report.set("serve.response_bytes",
             static_cast<double>(s.bytes) / static_cast<double>(s.requests),
             "bytes");
  report.set("dse.points", static_cast<double>(s.points), "count");
  report.set("dse.cache_hit_rate",
             static_cast<double>(s.from_cache) / static_cast<double>(s.points),
             "fraction");
  report.set("dse.coalesced", static_cast<double>(s.coalesced), "count");
  report.set("dse.point_s_p50", quantile(s.point_s, 0.5), "s");
  report.set("dse.point_s_max", quantile(s.point_s, 1.0), "s");
  report_log(log, fresh.size(), report, tally);
  print_summary(s, fresh, plan);

  // Counts: the new points this request stream made the daemon simulate,
  // re-run here through core::System.
  std::vector<GridPoint> simulated;
  for (const std::size_t r : fresh) {
    simulated.push_back(plan.reservoir_point(r));
  }
  Counts counts;
  {
    Span span(tracer, "bench.count_pass");
    counts = count_points(simulated, digests, tally, tracer, kClients);
  }
  report_counts(counts, report);
  entry_json_drill(s, tracer, tally);
  {
    Span span(tracer, "bench.drills");
    report_drills(run_drills(plan.pools().front().front(), counts, opt.seed,
                             tracer),
                  report);
  }
  report_span_layers(*tracer, report);
}

}  // namespace perfbench
