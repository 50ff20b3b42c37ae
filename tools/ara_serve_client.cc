// ara_serve_client: one-shot (or watching) client for an ara_serve daemon.
//
// One-shot mode sends a single request frame and prints the response
// payload (JSON) to stdout. Useful for poking a server by hand and as the
// building block of shell-driven checks (an indented line continues the
// command above it):
//
//   ara_serve_client --socket /tmp/ara.sock --ping
//   ara_serve_client --socket /tmp/ara.sock --stats
//   ara_serve_client --socket /tmp/ara.sock
//       --json '{"type":"sweep","workload":"Denoise","scale":0.05}'
//   ara_serve_client --socket /tmp/ara.sock --sweep Denoise --scale 0.05
//
// Outgoing frames are validated through the same protocol registry the
// server parses with (serve::protocol::parse_request), so a typo'd --json
// request fails locally with the server's exact error message instead of
// a round trip; --raw sends the bytes unvalidated (for probing the
// server's own error paths).
//
// --watch turns the client into a top-like live view: it polls the stats
// endpoint every --interval-ms (default 1000) on one connection and
// renders a line per tick with lifetime counters, their deltas since the
// previous tick, and the server's serve.window.* sliding-window gauges
// (requests/sec, hit ratio, p50/p95/p99 latency). --count N stops after N
// ticks (0 = until the connection drops or SIGINT).
//
//   ara_serve_client --socket /tmp/ara.sock --watch --interval-ms 500
//
// Exit status: 0 response received (every tick, for --watch), 1 transport
// failure, 2 usage error.
#include <cinttypes>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include <unistd.h>

#include "common/cli_options.h"
#include "obs/json_io.h"
#include "serve/protocol.h"

namespace {

void usage() {
  std::cout <<
      "ara_serve_client — talk to an ara_serve daemon\n"
      "  --socket PATH    AF_UNIX socket the daemon listens on (required)\n"
      "one of (default --ping):\n"
      "  --ping           liveness probe\n"
      "  --stats          fetch the server's metrics snapshot\n"
      "  --json REQ       send a JSON request frame as written (validated\n"
      "                   locally)\n"
      "  --sweep BENCH    sweep one default design point of BENCH\n"
      "  --watch          poll stats and render live rates/deltas\n"
      "options:\n"
      "  --raw            skip local validation of the outgoing frame\n"
      "  --client NAME    stamp a --ping, --stats or --sweep request with a\n"
      "                   \"client\" field (shows up in server-side traces)\n"
      "  --scale F        --sweep invocation scale factor (default 0.25)\n"
      "  --interval-ms N  --watch poll interval (default 1000)\n"
      "  --count N        stop --watch after N ticks (default 0 = forever)\n"
      "request types (shared server/client registry): " +
          ara::serve::protocol::supported_types() + "\n";
}

/// Pull one numeric stat out of a parsed stats response. Counters are
/// plain numbers; window gauges are accumulator objects whose "sum" holds
/// the gauge value.
double stat_value(const ara::obs::JsonValue& stats_json,
                  const char* section, const std::string& name) {
  const ara::obs::JsonValue* metrics = stats_json.find("metrics");
  const ara::obs::JsonValue* kind =
      metrics != nullptr ? metrics->find(section) : nullptr;
  const ara::obs::JsonValue* v = kind != nullptr ? kind->find(name) : nullptr;
  if (v == nullptr) return 0;
  if (v->is_number()) return v->as_double();
  const ara::obs::JsonValue* sum = v->find("sum");
  return sum != nullptr ? sum->as_double() : 0;
}

int watch(const std::string& socket_path, unsigned interval_ms,
          std::uint64_t count) {
  const int fd = ara::serve::protocol::connect_unix(socket_path);
  if (fd < 0) {
    std::cerr << "error: cannot connect to '" << socket_path << "'\n";
    return 1;
  }
  std::printf("%8s %8s %8s %8s  %9s %6s %9s %9s %9s\n", "requests", "(+d)",
              "sweeps", "points", "win req/s", "hit%", "p50 ms", "p95 ms",
              "p99 ms");
  std::uint64_t prev_requests = 0;
  bool first = true;
  for (std::uint64_t tick = 0; count == 0 || tick < count; ++tick) {
    std::string response;
    if (!ara::serve::protocol::write_frame(fd, "{\"type\":\"stats\"}") ||
        ara::serve::protocol::read_frame(fd, &response) !=
            ara::serve::protocol::ReadStatus::kOk) {
      std::cerr << "error: stats poll failed (server gone?)\n";
      ::close(fd);
      return 1;
    }
    ara::obs::JsonValue parsed;
    if (!ara::obs::parse_json(response, &parsed, nullptr)) {
      std::cerr << "error: stats response is not valid JSON\n";
      ::close(fd);
      return 1;
    }
    const auto requests = static_cast<std::uint64_t>(
        stat_value(parsed, "counters", "serve.server.requests"));
    const auto sweeps = static_cast<std::uint64_t>(
        stat_value(parsed, "counters", "serve.server.sweeps"));
    const auto points = static_cast<std::uint64_t>(
        stat_value(parsed, "counters", "serve.server.points"));
    const double req_s =
        stat_value(parsed, "accumulators", "serve.window.req_per_sec");
    const double hit =
        stat_value(parsed, "accumulators", "serve.window.hit_ratio");
    const double p50 =
        stat_value(parsed, "accumulators", "serve.window.p50_ms");
    const double p95 =
        stat_value(parsed, "accumulators", "serve.window.p95_ms");
    const double p99 =
        stat_value(parsed, "accumulators", "serve.window.p99_ms");
    std::printf("%8" PRIu64 " %8s %8" PRIu64 " %8" PRIu64
                "  %9.2f %5.1f%% %9.2f %9.2f %9.2f\n",
                requests,
                first ? "-"
                      : ("+" + std::to_string(requests - prev_requests))
                            .c_str(),
                sweeps, points, req_s, hit * 100.0, p50, p95, p99);
    std::fflush(stdout);
    prev_requests = requests;
    first = false;
    if (count == 0 || tick + 1 < count) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
  }
  ::close(fd);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ara;

  std::string socket_path;
  std::string request = "{\"type\":\"ping\"}";
  // The one flag that chose what to do: --ping, --stats, --json, --sweep
  // or --watch ("" = the default ping).
  std::string mode;
  bool raw = false;
  std::string client_name;
  std::string sweep_bench;
  std::string scale_text;
  std::string watch_option;  // the last --interval-ms or --count given
  unsigned interval_ms = 1000;
  std::uint64_t count = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        exit(2);
      }
      return argv[++i];
    };
    auto choose = [&] {
      if (!mode.empty()) {
        std::cerr << "error: " << mode << " and " << arg
                  << " both choose what to send; give at most one of "
                     "--ping, --stats, --json, --sweep and --watch\n";
        exit(2);
      }
      mode = arg;
    };
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (arg == "--socket") {
      socket_path = next();
    } else if (arg == "--ping") {
      choose();
    } else if (arg == "--stats") {
      choose();
      request = "{\"type\":\"stats\"}";
    } else if (arg == "--json") {
      choose();
      request = next();
    } else if (arg == "--raw") {
      raw = true;
    } else if (arg == "--client") {
      client_name = next();
    } else if (arg == "--sweep") {
      choose();
      sweep_bench = next();
    } else if (arg == "--scale") {
      scale_text = next();
    } else if (arg == "--watch") {
      choose();
    } else if (arg == "--interval-ms" || arg == "--count") {
      watch_option = arg;
      const std::string value = next();
      const std::uint64_t max = arg == "--interval-ms" ? UINT_MAX : UINT64_MAX;
      std::uint64_t v = 0;
      if (!ara::common::parse_unsigned(value, max, &v)) {
        std::cerr << arg << ": expected an integer from 0 to " << max
                  << ", got '" << value << "'\n";
        return 2;
      }
      if (arg == "--interval-ms") {
        interval_ms = static_cast<unsigned>(v);
      } else {
        count = v;
      }
    } else {
      std::cerr << "unknown option '" << arg << "' (see --help)\n";
      return 2;
    }
  }
  if (socket_path.empty()) {
    std::cerr << "error: --socket PATH is required (see --help)\n";
    return 2;
  }
  double scale = 0.25;
  if (!scale_text.empty() && !ara::common::parse_scale(scale_text, &scale)) {
    std::cerr << "--scale: scale must be finite and > 0, got '" << scale_text
              << "'\n";
    return 2;
  }
  if (!scale_text.empty() && mode != "--sweep") {
    std::cerr << "error: --scale only applies to --sweep (see --help)\n";
    return 2;
  }
  if (!watch_option.empty() && mode != "--watch") {
    std::cerr << "error: " << watch_option
              << " only applies to --watch (see --help)\n";
    return 2;
  }
  if (!client_name.empty() && (mode == "--json" || mode == "--watch")) {
    std::cerr << "error: --client does not apply to " << mode
              << " (see --help)\n";
    return 2;
  }
  if (mode == "--sweep") {
    std::ostringstream os;
    os << "{\"v\":" << serve::protocol::kProtocolVersion
       << ",\"type\":\"sweep\",\"workload\":\"";
    obs::json_escape(os, sweep_bench);
    os << "\",\"scale\":";
    obs::json_number(os, scale, 17);
    os << "}";
    request = os.str();
  }
  if (!client_name.empty()) {
    // Stamp the request with the protocol's optional "client" identity
    // field so server-side traces attribute it to this invocation.
    std::ostringstream os;
    os << "{\"client\":\"";
    obs::json_escape(os, client_name);
    os << "\",";
    request = os.str() + request.substr(request.find('{') + 1);
  }
  if (!raw) {
    // Same registry the server dispatches on: reject locally what the
    // server would reject, with the identical message.
    serve::protocol::Request parsed;
    std::string parse_error;
    if (!serve::protocol::parse_request(request, &parsed, &parse_error)) {
      std::cerr << "error: invalid request: " << parse_error << "\n";
      return 2;
    }
  }
  if (mode == "--watch") return watch(socket_path, interval_ms, count);

  const int fd = serve::protocol::connect_unix(socket_path);
  if (fd < 0) {
    std::cerr << "error: cannot connect to '" << socket_path << "'\n";
    return 1;
  }
  std::string response;
  const bool ok =
      serve::protocol::write_frame(fd, request) &&
      serve::protocol::read_frame(fd, &response) ==
          serve::protocol::ReadStatus::kOk;
  ::close(fd);
  if (!ok) {
    std::cerr << "error: request failed (server gone or frame damaged)\n";
    return 1;
  }
  std::cout << response << "\n";
  return 0;
}
