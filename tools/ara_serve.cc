// ara_serve: persistent sweep-as-a-service daemon.
//
// Keeps one warm dse::ResultCache (finished points and the claims on
// points in flight) across requests and serves length-prefixed JSON sweep
// requests over a local AF_UNIX socket (protocol in src/serve/protocol.h).
// Every sweep goes through dse::run, so served results are bit-identical
// to the ara_* CLI tools.
//
// Usage:
//   ara_serve --socket PATH [--handlers N] [--queue N] [--sessions N]
//             [--jobs N] [--cache DIR] [--check[=BOOL]]
//             [--log FILE] [--log-max-bytes N] [--slow-ms N]
//
// SIGTERM/SIGINT trigger a graceful drain: in-flight and queued sweeps
// finish (their responses are delivered), new sweeps are rejected with a
// typed "draining" error, and the process exits 0.
#include <csignal>

#include <atomic>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "check/check.h"
#include "common/cli_options.h"
#include "serve/server.h"

namespace {

std::atomic<int> g_signal{0};

void on_signal(int sig) { g_signal.store(sig, std::memory_order_release); }

void usage() {
  std::cout <<
      "ara_serve — persistent sweep service over a local socket\n"
      "  --socket PATH    AF_UNIX socket to listen on (required)\n"
      "  --handlers N     concurrent sweep handlers (default 2)\n"
      "  --queue N        waiting sweeps admitted beyond the executing\n"
      "                   ones; a full queue rejects with 'overloaded'\n"
      "                   (default 64)\n"
      "  --sessions N     concurrent client connections; one past the\n"
      "                   cap is rejected with 'overloaded' and closed\n"
      "                   (default 256)\n"
      "  --log-max-bytes N  rotate the --log file past this size\n"
      "                   (default 8 MiB; previous file kept as FILE.1)\n"
      "  --slow-ms N      flag requests slower than N ms with\n"
      "                   \"slow\":true in the log (default 0 = never)\n"
      << ara::common::CliOptions::help(ara::common::CliOptions::kJobs |
                                       ara::common::CliOptions::kCache |
                                       ara::common::CliOptions::kCheck |
                                       ara::common::CliOptions::kLog);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ara;

  const auto cli = common::CliOptions::parse(
      argc, argv,
      common::CliOptions::kJobs | common::CliOptions::kCache |
          common::CliOptions::kCheck | common::CliOptions::kLog);
  if (!cli.ok()) {
    std::cerr << "error: " << cli.error << "\n";
    return 2;
  }
  if (cli.check) check::set_enabled(true);

  serve::ServerOptions opts;
  opts.jobs = cli.jobs == 0 ? 1 : cli.jobs;
  opts.cache_dir = cli.cache_dir;
  opts.log_path = cli.log_file;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        exit(2);
      }
      return argv[++i];
    };
    auto count = [&](std::uint64_t max) -> std::uint64_t {
      const std::string value = next();
      std::uint64_t v = 0;
      if (!common::parse_unsigned(value, max, &v)) {
        std::cerr << arg << ": expected an integer from 0 to " << max
                  << ", got '" << value << "'\n";
        exit(2);
      }
      return v;
    };
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (arg == "--socket") {
      opts.socket_path = next();
    } else if (arg == "--handlers") {
      opts.handlers = static_cast<unsigned>(count(UINT_MAX));
    } else if (arg == "--queue") {
      opts.queue_capacity = count(SIZE_MAX);
    } else if (arg == "--sessions") {
      opts.max_sessions = count(SIZE_MAX);
    } else if (arg == "--log-max-bytes") {
      opts.log_max_bytes = count(UINT64_MAX);
    } else if (arg == "--slow-ms") {
      opts.slow_ms = count(UINT64_MAX);
    } else {
      std::cerr << "unknown option '" << arg << "' (see --help)\n";
      return 2;
    }
  }
  if (opts.socket_path.empty()) {
    std::cerr << "error: --socket PATH is required (see --help)\n";
    return 2;
  }

  struct sigaction sa{};
  sa.sa_handler = on_signal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  // A client that vanishes before reading its response must surface as a
  // failed write (EPIPE), never as a process-killing SIGPIPE.
  struct sigaction ign{};
  ign.sa_handler = SIG_IGN;
  sigaction(SIGPIPE, &ign, nullptr);

  serve::Server server(opts);
  std::string error;
  if (!server.listen(&error)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }
  server.start();
  if (!opts.log_path.empty() && server.request_log() != nullptr &&
      !server.request_log()->ok()) {
    std::cerr << "ara_serve: warning: cannot open request log '"
              << opts.log_path << "'; serving without a log\n";
  }
  std::cerr << "ara_serve: listening on " << opts.socket_path << " ("
            << opts.handlers << " handlers, " << opts.jobs
            << " jobs/sweep, queue " << opts.queue_capacity << ", cache "
            << (opts.cache_dir.empty() ? std::string("memory")
                                       : opts.cache_dir)
            << (opts.log_path.empty() ? std::string()
                                      : ", log " + opts.log_path)
            << ")\n";
  const int rc = server.serve(g_signal);
  std::cerr << "ara_serve: drained, exiting\n";
  return rc;
}
