// Unit tests for the ara_serve subsystem: wire protocol (framing, request
// parsing, response building), the fair admission queue, and the Server
// core — with the bit-identity contract pinned: a served point's "entry"
// object must be byte-for-byte the ResultCache JSON a local dse::run of
// the same design point produces. The socket front end is covered
// end-to-end by the serve_smoke ctest entry.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/config_error.h"
#include "core/config_digest.h"
#include "dse/result_cache.h"
#include "dse/sweep.h"
#include "obs/clock.h"
#include "obs/json_check.h"
#include "obs/json_io.h"
#include "obs/span.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "workloads/registry.h"

namespace ara::serve {
namespace {

using protocol::PointSpec;
using protocol::ReadStatus;
using protocol::Request;

// ------------------------------------------------------------- FairQueue

TEST(FairQueue, RoundRobinAcrossClients) {
  FairQueue<int> q(16);
  // A submits 3, then B submits 2, then C submits 1.
  EXPECT_TRUE(q.push("a", 1));
  EXPECT_TRUE(q.push("a", 2));
  EXPECT_TRUE(q.push("a", 3));
  EXPECT_TRUE(q.push("b", 4));
  EXPECT_TRUE(q.push("b", 5));
  EXPECT_TRUE(q.push("c", 6));
  EXPECT_EQ(q.size(), 6u);

  std::vector<int> order;
  int item = 0;
  while (q.pop(&item)) order.push_back(item);
  // One item per client per rotation: a,b,c then a,b then a.
  EXPECT_EQ(order, (std::vector<int>{1, 4, 6, 2, 5, 3}));
  EXPECT_TRUE(q.empty());
}

TEST(FairQueue, SingleClientStaysFifo) {
  FairQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.push("only", i));
  std::vector<int> order;
  int item = 0;
  while (q.pop(&item)) order.push_back(item);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(FairQueue, RejectsAtCapacityAndRecovers) {
  FairQueue<int> q(2);
  EXPECT_TRUE(q.push("a", 1));
  EXPECT_TRUE(q.push("b", 2));
  EXPECT_FALSE(q.push("a", 3));  // full, regardless of client
  EXPECT_FALSE(q.push("c", 4));
  int item = 0;
  EXPECT_TRUE(q.pop(&item));
  EXPECT_TRUE(q.push("c", 5));  // capacity freed
  EXPECT_EQ(q.size(), 2u);
}

TEST(FairQueue, ZeroCapacityRejectsEverything) {
  FairQueue<int> q(0);
  EXPECT_FALSE(q.push("a", 1));
  int item = 0;
  EXPECT_FALSE(q.pop(&item));
}

// -------------------------------------------------------------- framing

TEST(Protocol, FrameRoundTripOverPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string payload = "{\"type\":\"ping\"}";
  ASSERT_TRUE(protocol::write_frame(fds[1], payload));
  ASSERT_TRUE(protocol::write_frame(fds[1], ""));  // empty frame is legal
  std::string got;
  EXPECT_EQ(protocol::read_frame(fds[0], &got), ReadStatus::kOk);
  EXPECT_EQ(got, payload);
  EXPECT_EQ(protocol::read_frame(fds[0], &got), ReadStatus::kOk);
  EXPECT_EQ(got, "");
  ::close(fds[1]);
  EXPECT_EQ(protocol::read_frame(fds[0], &got), ReadStatus::kEof);
  ::close(fds[0]);
}

TEST(Protocol, TruncatedFrameIsAnErrorNotEof) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const unsigned char header[4] = {0, 0, 0, 10};  // promises 10 bytes
  ASSERT_EQ(::write(fds[1], header, 4), 4);
  ASSERT_EQ(::write(fds[1], "abc", 3), 3);  // delivers 3
  ::close(fds[1]);
  std::string got;
  EXPECT_EQ(protocol::read_frame(fds[0], &got), ReadStatus::kError);
  ::close(fds[0]);
}

TEST(Protocol, OversizedLengthPrefixIsRejectedUnread) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::uint32_t huge = protocol::kMaxFrameBytes + 1;
  const unsigned char header[4] = {
      static_cast<unsigned char>(huge >> 24),
      static_cast<unsigned char>(huge >> 16),
      static_cast<unsigned char>(huge >> 8),
      static_cast<unsigned char>(huge)};
  ASSERT_EQ(::write(fds[1], header, 4), 4);
  std::string got;
  EXPECT_EQ(protocol::read_frame(fds[0], &got), ReadStatus::kError);
  ::close(fds[0]);
  ::close(fds[1]);
  EXPECT_FALSE(protocol::write_frame(-1, std::string(
      protocol::kMaxFrameBytes + 1, 'x')));
}

TEST(Protocol, WriteToClosedPeerFailsInsteadOfRaisingSigpipe) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[0]);
  // The default SIGPIPE disposition is in effect in this process: a
  // plain ::write here would kill the test, so this EXPECT doubles as
  // proof that write_frame reports a dead peer as a clean failure.
  EXPECT_FALSE(protocol::write_frame(fds[1], "{\"type\":\"ping\"}"));
  ::close(fds[1]);
}

// ------------------------------------------------------- request parsing

TEST(Protocol, ParsesPingStatsAndSweep) {
  Request req;
  std::string error;
  ASSERT_TRUE(protocol::parse_request("{\"type\":\"ping\"}", &req, &error));
  EXPECT_EQ(req.kind, Request::Kind::kPing);
  ASSERT_TRUE(protocol::parse_request("{\"type\":\"stats\"}", &req, &error));
  EXPECT_EQ(req.kind, Request::Kind::kStats);

  ASSERT_TRUE(protocol::parse_request(
      "{\"type\":\"sweep\",\"client\":\"alice\",\"workload\":\"Denoise\","
      "\"scale\":0.05,\"points\":[{\"islands\":6,\"net\":\"proxy\"},"
      "{\"rings\":3,\"width\":16,\"mono\":true,\"policy\":\"sjf\"}]}",
      &req, &error))
      << error;
  EXPECT_EQ(req.kind, Request::Kind::kSweep);
  EXPECT_EQ(req.client, "alice");
  EXPECT_EQ(req.workload, "Denoise");
  EXPECT_DOUBLE_EQ(req.scale, 0.05);
  ASSERT_EQ(req.points.size(), 2u);
  EXPECT_EQ(req.points[0].islands, 6u);
  EXPECT_EQ(req.points[0].net, "proxy");
  EXPECT_EQ(req.points[1].rings, 3u);
  EXPECT_EQ(req.points[1].link_bytes, 16u);
  EXPECT_TRUE(req.points[1].mono);
  // "policy" is not a point field: the parser ignores it, and the point is
  // the same design point without it.
  EXPECT_EQ(req.points[1].to_config().gam_policy, abc::GamPolicy::kFifo);
}

TEST(Protocol, SweepDefaultsMirrorAraSim) {
  Request req;
  std::string error;
  ASSERT_TRUE(protocol::parse_request(
      "{\"type\":\"sweep\",\"workload\":\"Deblur\"}", &req, &error));
  EXPECT_EQ(req.client, "anon");
  EXPECT_DOUBLE_EQ(req.scale, 0.25);
  ASSERT_EQ(req.points.size(), 1u);  // one default point
  // The default PointSpec is ara_sim's default design point.
  EXPECT_EQ(core::canonical_text(req.points[0].to_config()),
            core::canonical_text(core::ArchConfig::ring_design(24, 2, 32)));
}

TEST(Protocol, RejectsMalformedRequests) {
  Request req;
  std::string error;
  const char* bad[] = {
      "not json",
      "[1,2,3]",
      "{\"type\":\"teapot\"}",
      "{\"type\":\"sweep\"}",                      // no workload
      "{\"type\":\"sweep\",\"workload\":\"D\",\"scale\":0}",
      "{\"type\":\"sweep\",\"workload\":\"D\",\"points\":[]}",
      "{\"type\":\"sweep\",\"workload\":\"D\",\"points\":[7]}",
      "{\"type\":\"sweep\",\"workload\":\"D\",\"points\":[{\"islands\":"
      "\"six\"}]}",
  };
  for (const char* text : bad) {
    error.clear();
    EXPECT_FALSE(protocol::parse_request(text, &req, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(Protocol, RejectsOutOfRangeAndNonIntegralPointFields) {
  Request req;
  std::string error;
  const char* bad[] = {
      // A u32 field past UINT32_MAX must reject, not truncate to a
      // small value and simulate a different design point.
      "{\"type\":\"sweep\",\"workload\":\"D\",\"points\":"
      "[{\"islands\":4294967320}]}",
      "{\"type\":\"sweep\",\"workload\":\"D\",\"points\":"
      "[{\"islands\":-3}]}",
      "{\"type\":\"sweep\",\"workload\":\"D\",\"points\":"
      "[{\"islands\":2.5}]}",
      "{\"type\":\"sweep\",\"workload\":\"D\",\"points\":"
      "[{\"islands\":1e2}]}",
      // A u64 field: negative would wrap through strtoull, and one past
      // UINT64_MAX overflows it.
      "{\"type\":\"sweep\",\"workload\":\"D\",\"points\":"
      "[{\"width\":-1}]}",
      "{\"type\":\"sweep\",\"workload\":\"D\",\"points\":"
      "[{\"width\":18446744073709551616}]}",
  };
  for (const char* text : bad) {
    error.clear();
    EXPECT_FALSE(protocol::parse_request(text, &req, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
  // Boundary: exactly UINT32_MAX is in range and parses unclipped.
  ASSERT_TRUE(protocol::parse_request(
      "{\"type\":\"sweep\",\"workload\":\"D\",\"points\":"
      "[{\"islands\":4294967295}]}",
      &req, &error))
      << error;
  EXPECT_EQ(req.points.at(0).islands, 4294967295u);
}

// v1 clients may still send "shards", a retired per-request worker count
// that never changed a served byte. The protocol ignores fields it does not
// read, so any value parses to the same request as the body without it.
TEST(Protocol, IgnoresRetiredShardsField) {
  // The parsed fields the bodies below set, in one comparable list.
  auto fields = [](const Request& r) {
    std::vector<std::string> out = {r.workload, std::to_string(r.scale)};
    for (const auto& p : r.points) {
      out.push_back(core::canonical_text(p.to_config()));
    }
    return out;
  };
  const std::string bodies[] = {
      "\"type\":\"sweep\",\"workload\":\"Denoise\",\"scale\":0.03,"
      "\"points\":[{\"islands\":6,\"net\":\"proxy\"},{\"islands\":12}]",
      "\"type\":\"sweep\",\"workload\":\"Deblur\",\"scale\":0.05",
  };
  for (const std::string& body : bodies) {
    Request want;
    std::string error;
    ASSERT_TRUE(protocol::parse_request("{" + body + "}", &want, &error))
        << error;
    for (const char* shards : {"4", "17", "2.5", "\"four\""}) {
      const std::string text = "{" + body + ",\"shards\":" + shards + "}";
      Request got;
      ASSERT_TRUE(protocol::parse_request(text, &got, &error))
          << text << ": " << error;
      EXPECT_EQ(got.kind, want.kind) << text;
      EXPECT_EQ(got.scale, want.scale) << text;
      EXPECT_EQ(fields(got), fields(want)) << text;
    }
  }
}

TEST(Protocol, PointSpecConfigMatchesCliConstruction) {
  // Mirror of ara_sim `--islands 6 --net chain --ports 2 --sharing
  // --mono`: same base design, same overrides, same canonical text.
  PointSpec spec;
  spec.islands = 6;
  spec.net = "chain";
  spec.ports = 2;
  spec.sharing = true;
  spec.mono = true;

  core::ArchConfig expected = core::ArchConfig::ring_design(24, 2, 32);
  expected.num_islands = 6;
  expected.island.net.topology = island::SpmDmaTopology::kChainingXbar;
  expected.island.spm_port_multiplier = 2;
  expected.island.spm_sharing = true;
  expected.mode = abc::ExecutionMode::kMonolithic;

  EXPECT_EQ(core::canonical_text(spec.to_config()),
            core::canonical_text(expected));

  PointSpec bad;
  bad.net = "torus";
  EXPECT_THROW(bad.to_config(), ConfigError);
}

// -------------------------------------------------- versioned envelope

TEST(Protocol, EnvelopeVersionDefaultsToOneAndAcceptsExplicitOne) {
  Request req;
  std::string error;
  // Absent "v" means v1: every pre-envelope client frame stays valid.
  ASSERT_TRUE(protocol::parse_request("{\"type\":\"ping\"}", &req, &error));
  EXPECT_EQ(req.v, protocol::kProtocolVersion);
  ASSERT_TRUE(
      protocol::parse_request("{\"v\":1,\"type\":\"ping\"}", &req, &error))
      << error;
  EXPECT_EQ(req.v, 1u);
  // Key order in the envelope is irrelevant.
  ASSERT_TRUE(
      protocol::parse_request("{\"type\":\"stats\",\"v\":1}", &req, &error))
      << error;
  EXPECT_EQ(req.kind, Request::Kind::kStats);
}

TEST(Protocol, EnvelopeRejectsUnsupportedVersionsListingSupportedOnes) {
  Request req;
  std::string error;
  EXPECT_FALSE(
      protocol::parse_request("{\"v\":2,\"type\":\"ping\"}", &req, &error));
  EXPECT_NE(error.find("unsupported protocol version '2'"),
            std::string::npos)
      << error;
  EXPECT_NE(error.find("supported: 1"), std::string::npos) << error;
  // Version 0 and non-integral versions are malformed, not "old".
  EXPECT_FALSE(
      protocol::parse_request("{\"v\":0,\"type\":\"ping\"}", &req, &error));
  for (const char* text : {"{\"v\":-1,\"type\":\"ping\"}",
                           "{\"v\":1.5,\"type\":\"ping\"}",
                           "{\"v\":\"1\",\"type\":\"ping\"}"}) {
    error.clear();
    EXPECT_FALSE(protocol::parse_request(text, &req, &error)) << text;
    EXPECT_NE(error.find("\"v\" must be an unsigned integer"),
              std::string::npos)
        << error;
  }
}

TEST(Protocol, UnknownTypeErrorListsTheSharedRegistry) {
  EXPECT_EQ(protocol::supported_types(), "ping|stats|sweep");
  for (const std::string type : {"teapot", "search"}) {
    Request req;
    std::string error;
    EXPECT_FALSE(protocol::parse_request("{\"type\":\"" + type + "\"}",
                                         &req, &error));
    EXPECT_NE(error.find("unknown request type '" + type + "'"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("(supported: ping|stats|sweep)"), std::string::npos)
        << error;
  }
}

TEST(Protocol, ErrorResponseCarriesTheTraceIdWhenMinted) {
  EXPECT_EQ(protocol::error_response("bad_request", "nope"),
            "{\"type\":\"error\",\"code\":\"bad_request\","
            "\"message\":\"nope\"}");
  EXPECT_EQ(protocol::error_response("bad_request", "nope", 7),
            "{\"type\":\"error\",\"code\":\"bad_request\","
            "\"message\":\"nope\",\"trace_id\":7}");
}

// A sweep_result frame's bytes, envelope included, are what clients parse.
// A warm sweep makes them deterministic (every point from_cache with
// wall_seconds 0), so the FNV-1a of the whole frame is pinned.
TEST(Protocol, SweepResponseBytesArePinned) {
  const auto wl = workloads::make_benchmark("Denoise", 0.03);
  dse::ResultCache cache;
  dse::SweepRequest sweep;
  sweep.add(core::ArchConfig::paper_baseline(3), wl)
      .add(core::ArchConfig::ring_design(6, 1, 16), wl)
      .with_cache(&cache);
  dse::run(sweep);  // cold: fills the cache
  const std::string frame =
      protocol::sweep_response(dse::run(sweep), cache.salt(), 42);
  EXPECT_TRUE(obs::validate_json(frame));
  EXPECT_EQ(frame.size(), 29178u);
  EXPECT_EQ(core::fnv1a64(frame), 0x2067447a5ccf2b0bull);
}

// ---------------------------------------------------------------- server

/// Byte-extract every "entry":{...} object embedded in a sweep response.
std::vector<std::string> extract_entries(const std::string& response) {
  std::vector<std::string> out;
  const std::string tag = "\"entry\":";
  std::size_t pos = 0;
  while ((pos = response.find(tag, pos)) != std::string::npos) {
    std::size_t i = pos + tag.size();
    const std::size_t start = i;
    int depth = 0;
    bool in_string = false;
    for (; i < response.size(); ++i) {
      const char c = response[i];
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
      } else if (c == '}') {
        if (--depth == 0) {
          ++i;
          break;
        }
      }
    }
    out.push_back(response.substr(start, i - start));
    pos = i;
  }
  return out;
}

std::string trimmed_entry_json(std::uint64_t key, std::uint64_t salt,
                               const dse::ResultCache::Entry& entry) {
  std::string text = dse::ResultCache::to_json(key, salt, entry);
  while (!text.empty() && text.back() == '\n') text.pop_back();
  return text;
}

std::uint64_t counter_value(const obs::MetricsSnapshot& snap,
                            const std::string& name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

double gauge_value(const obs::MetricsSnapshot& snap,
                   const std::string& name) {
  for (const auto& a : snap.accumulators) {
    if (a.name == name) return a.sum;  // scalar gauges encode value as sum
  }
  return -1;
}

Request small_sweep_request() {
  Request req;
  req.kind = Request::Kind::kSweep;
  req.client = "tester";
  req.workload = "Denoise";
  req.scale = 0.03;
  PointSpec a;
  a.islands = 3;
  a.rings = 1;
  a.link_bytes = 16;
  PointSpec b = a;
  b.islands = 6;
  req.points = {a, b};
  return req;
}

TEST(Server, ServedEntriesAreBitIdenticalToLocalDseRun) {
  ServerOptions opts;
  opts.jobs = 1;
  opts.handlers = 1;
  opts.queue_capacity = 4;
  Server server(opts);
  server.start();

  const Request req = small_sweep_request();
  const std::string response = server.handle(req);
  ASSERT_NE(response.find("\"type\":\"sweep_result\""), std::string::npos)
      << response;

  // Local reference through the exact same public API the CLI uses.
  const auto wl = workloads::make_benchmark(req.workload, req.scale);
  dse::SweepRequest sweep;
  std::vector<std::uint64_t> keys;
  for (const auto& spec : req.points) {
    const auto config = spec.to_config();
    keys.push_back(
        dse::ResultCache::key(config, wl, dse::kSimVersionSalt));
    sweep.add(config, wl);
  }
  const auto local = dse::run(sweep);

  const auto served = extract_entries(response);
  ASSERT_EQ(served.size(), req.points.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i],
              trimmed_entry_json(keys[i], dse::kSimVersionSalt, local[i]))
        << "served point " << i << " diverged from the local dse::run";
  }

  // Warm repeat: zero re-simulations, byte-identical entries, every
  // point flagged from_cache.
  const std::string warm = server.handle(req);
  EXPECT_EQ(extract_entries(warm), served);
  obs::JsonValue parsed;
  ASSERT_TRUE(obs::parse_json(warm, &parsed, nullptr));
  const obs::JsonValue* points = parsed.find("points");
  ASSERT_NE(points, nullptr);
  for (const auto& point : points->items) {
    ASSERT_NE(point.find("from_cache"), nullptr);
    EXPECT_TRUE(point.find("from_cache")->boolean);
  }
  const auto snap = server.stats_snapshot();
  EXPECT_EQ(counter_value(snap, "serve.server.points_simulated"), 2u);
  EXPECT_EQ(counter_value(snap, "serve.server.points_cached"), 2u);
  EXPECT_EQ(counter_value(snap, "serve.server.sweeps"), 2u);
  server.stop();
}

TEST(Server, PingStatsAndBadWorkload) {
  ServerOptions opts;
  opts.jobs = 1;
  opts.handlers = 1;
  opts.queue_capacity = 2;
  Server server(opts);
  server.start();

  Request ping;
  ping.kind = Request::Kind::kPing;
  EXPECT_EQ(server.handle(ping), "{\"type\":\"pong\"}");

  Request bad = small_sweep_request();
  bad.workload = "NoSuchBenchmark";
  const std::string err = server.handle(bad);
  EXPECT_NE(err.find("\"type\":\"error\""), std::string::npos) << err;
  EXPECT_NE(err.find("\"code\":\"bad_request\""), std::string::npos) << err;

  // "scale":1e12 passes the protocol's scale > 0 check, but its invocation
  // count does not fit in 32 bits: the handler refuses it instead of
  // wrapping it into a 2.77-billion-invocation simulation.
  Request huge;
  std::string error;
  ASSERT_TRUE(protocol::parse_request(
      "{\"type\":\"sweep\",\"workload\":\"Denoise\",\"scale\":1e12}", &huge,
      &error))
      << error;
  const std::string huge_err = server.handle(huge);
  EXPECT_NE(huge_err.find("\"code\":\"bad_request\""), std::string::npos)
      << huge_err;
  EXPECT_NE(huge_err.find("scale"), std::string::npos) << huge_err;

  Request stats;
  stats.kind = Request::Kind::kStats;
  const std::string response = server.handle(stats);
  obs::JsonValue parsed;
  std::string parse_error;
  ASSERT_TRUE(obs::parse_json(response, &parsed, &parse_error))
      << parse_error;
  EXPECT_EQ(parsed.find("type")->text, "stats");
  const obs::JsonValue* metrics = parsed.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_NE(metrics->find("counters"), nullptr);
  server.stop();
}

// write_frame refuses a payload over kMaxFrameBytes, so an oversized sweep
// response must come back as a typed error, not a dropped connection. 600
// copies of one 24-island point (one simulation, the rest aliases, about
// 35.7 KB per entry) cross the 16 MiB limit.
TEST(Server, OversizedSweepResponseIsATypedBadRequest) {
  const std::string dir = testing::TempDir() + "ara_serve_oversized";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ServerOptions opts;
  opts.jobs = 1;
  opts.handlers = 1;
  opts.log_path = dir + "/requests.jsonl";
  Server server(opts);
  server.start();

  Request req;
  req.kind = Request::Kind::kSweep;
  req.workload = "Denoise";
  req.scale = 0.01;
  PointSpec big;
  big.islands = 24;
  req.points.assign(600, big);
  const std::string response = server.handle(req);
  ASSERT_LE(response.size(), protocol::kMaxFrameBytes);
  obs::JsonValue parsed;
  ASSERT_TRUE(obs::parse_json(response, &parsed, nullptr)) << response;
  ASSERT_NE(parsed.find("code"), nullptr) << response;
  ASSERT_NE(parsed.find("trace_id"), nullptr) << response;
  ASSERT_NE(parsed.find("message"), nullptr) << response;
  EXPECT_EQ(parsed.find("code")->text, "bad_request");
  EXPECT_EQ(parsed.find("trace_id")->as_u64(), 1u);
  const std::string& message = parsed.find("message")->text;
  EXPECT_NE(message.find(std::to_string(protocol::kMaxFrameBytes)),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("cached"), std::string::npos) << message;

  Request ping;
  ping.kind = Request::Kind::kPing;
  EXPECT_EQ(server.handle(ping), "{\"type\":\"pong\"}");
  const auto snap = server.stats_snapshot();
  EXPECT_EQ(counter_value(snap, "serve.server.errors"), 1u);
  EXPECT_EQ(counter_value(snap, "serve.server.points_simulated"), 1u);
  server.stop();

  std::ifstream in(opts.log_path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  obs::JsonValue logged;
  ASSERT_TRUE(obs::parse_json(line, &logged, nullptr)) << line;
  EXPECT_EQ(logged.find("error")->text, "bad_request");
  EXPECT_EQ(logged.find("outcomes")->find("miss")->as_u64(), 1u);
  std::filesystem::remove_all(dir);
}

TEST(Server, ZeroQueueCapacityRejectsWithOverloaded) {
  ServerOptions opts;
  opts.queue_capacity = 0;  // nothing may wait -> synchronous reject
  Server server(opts);      // handlers never started: reject needs none

  const std::string response = server.handle(small_sweep_request());
  EXPECT_NE(response.find("\"code\":\"overloaded\""), std::string::npos)
      << response;
  const auto snap = server.stats_snapshot();
  EXPECT_EQ(counter_value(snap, "serve.server.rejected_overload"), 1u);
}

TEST(Server, DrainingRejectsNewSweepsButAnswersPing) {
  ServerOptions opts;
  opts.jobs = 1;
  opts.handlers = 1;
  Server server(opts);
  server.start();
  server.begin_drain();

  const std::string response = server.handle(small_sweep_request());
  EXPECT_NE(response.find("\"code\":\"draining\""), std::string::npos)
      << response;
  Request ping;
  ping.kind = Request::Kind::kPing;
  EXPECT_EQ(server.handle(ping), "{\"type\":\"pong\"}");
  server.stop();  // idempotent with the destructor's stop
}

TEST(Server, ConcurrentIdenticalRequestsSimulateEachPointOnce) {
  ServerOptions opts;
  opts.jobs = 1;
  opts.handlers = 4;  // enough for all submitters to run concurrently
  opts.queue_capacity = 8;
  Server server(opts);
  server.start();

  const Request req = small_sweep_request();
  constexpr int kClients = 4;
  std::vector<std::string> responses(kClients);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Request mine = req;
        mine.client = "client-" + std::to_string(c);
        responses[static_cast<std::size_t>(c)] = server.handle(mine);
      });
    }
    for (auto& t : clients) t.join();
  }

  // However the four requests interleaved (coalesced, cached, or leader),
  // each distinct point was simulated exactly once and every client got
  // byte-identical entry objects.
  const auto first = extract_entries(responses[0]);
  ASSERT_EQ(first.size(), req.points.size());
  for (const auto& response : responses) {
    EXPECT_EQ(extract_entries(response), first);
  }
  const auto snap = server.stats_snapshot();
  EXPECT_EQ(counter_value(snap, "serve.server.points_simulated"),
            req.points.size());
  EXPECT_EQ(counter_value(snap, "serve.server.points"),
            req.points.size() * kClients);
  server.stop();
}

TEST(Server, FakeClockTracingWindowAndJsonlLog) {
  const std::string dir = testing::TempDir() + "ara_serve_log";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string log_path = dir + "/requests.jsonl";

  obs::FakeClock clock(500000000ull);  // t = 0.5 s
  ServerOptions opts;
  opts.jobs = 1;
  opts.handlers = 1;
  opts.queue_capacity = 4;
  opts.clock = &clock;
  opts.log_path = log_path;
  Server server(opts);
  ASSERT_NE(server.request_log(), nullptr);
  ASSERT_TRUE(server.request_log()->ok());
  server.start();

  const Request req = small_sweep_request();
  const std::string cold = server.handle(req);
  clock.advance_ns(1000000000ull);  // warm request lands in the next bucket
  const std::string warm = server.handle(req);

  // Trace ids mint sequentially and ride the response envelope; tracing
  // never perturbs the served entry bytes.
  EXPECT_NE(cold.find("\"trace_id\":1"), std::string::npos) << cold;
  EXPECT_NE(warm.find("\"trace_id\":2"), std::string::npos) << warm;
  EXPECT_EQ(extract_entries(cold), extract_entries(warm));

  // serve.window.* aggregates both requests with FakeClock-exact values:
  // 4 points total, the warm request's 2 served without simulation, over
  // a span from bucket 0's start (t=0) to now (t=1.5s).
  const auto snap = server.stats_snapshot();
  EXPECT_EQ(counter_value(snap, "serve.window.requests"), 2u);
  EXPECT_EQ(counter_value(snap, "serve.window.points"), 4u);
  EXPECT_EQ(counter_value(snap, "serve.window.points_avoided"), 2u);
  EXPECT_EQ(counter_value(snap, "serve.window.span_ns"), 1500000000u);
  EXPECT_DOUBLE_EQ(gauge_value(snap, "serve.window.hit_ratio"), 0.5);
  EXPECT_DOUBLE_EQ(gauge_value(snap, "serve.window.req_per_sec"),
                   2e9 / 1.5e9);

  // Rejected requests are logged with their typed error but never feed
  // the completion window.
  server.stop();
  const std::string rejected = server.handle(req);
  EXPECT_NE(rejected.find("\"code\":\"draining\""), std::string::npos);
  EXPECT_EQ(counter_value(server.stats_snapshot(), "serve.window.requests"),
            2u);

  ASSERT_EQ(server.request_log()->lines(), 3u);
  std::ifstream in(log_path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  for (const auto& l : lines) {
    std::string err;
    EXPECT_TRUE(obs::validate_json(l, &err)) << err << "\n" << l;
  }
  obs::JsonValue first, second, third;
  ASSERT_TRUE(obs::parse_json(lines[0], &first, nullptr));
  ASSERT_TRUE(obs::parse_json(lines[1], &second, nullptr));
  ASSERT_TRUE(obs::parse_json(lines[2], &third, nullptr));
  EXPECT_EQ(first.find("trace_id")->as_u64(), 1u);
  EXPECT_EQ(second.find("trace_id")->as_u64(), 2u);
  EXPECT_EQ(first.find("client")->text, "tester");
  EXPECT_EQ(first.find("workload")->text, "Denoise");
  // Outcome classification end to end: cold = all misses, warm = all hits.
  EXPECT_EQ(first.find("outcomes")->find("miss")->as_u64(), 2u);
  EXPECT_EQ(first.find("outcomes")->find("hit")->as_u64(), 0u);
  EXPECT_EQ(second.find("outcomes")->find("hit")->as_u64(), 2u);
  EXPECT_EQ(second.find("outcomes")->find("miss")->as_u64(), 0u);
  EXPECT_EQ(third.find("error")->text, "draining");
  EXPECT_EQ(third.find("outcomes")->find("miss")->as_u64(), 0u);
  // With the clock frozen during each request every duration is exactly
  // zero — the span plumbing itself is deterministic.
  EXPECT_EQ(first.find("total_ns")->as_u64(), 0u);
  EXPECT_EQ(first.find("phases_ns")->find("simulate")->as_u64(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(Server, SessionCapRejectsThenReapingReadmits) {
  const std::string path = testing::TempDir() + "ara_serve_cap.sock";
  ServerOptions opts;
  opts.socket_path = path;
  opts.jobs = 1;
  opts.handlers = 1;
  opts.max_sessions = 1;
  Server server(opts);
  std::string error;
  ASSERT_TRUE(server.listen(&error)) << error;
  server.start();
  std::atomic<int> signal{0};
  std::thread loop([&] { server.serve(signal); });

  // First connection is admitted; the pong proves its session is live
  // (and therefore registered) before the second connect races it.
  const int a = protocol::connect_unix(path);
  ASSERT_GE(a, 0);
  ASSERT_TRUE(protocol::write_frame(a, "{\"type\":\"ping\"}"));
  std::string got;
  ASSERT_EQ(protocol::read_frame(a, &got), ReadStatus::kOk);
  EXPECT_EQ(got, "{\"type\":\"pong\"}");

  // Second concurrent connection is one past the cap: it receives a
  // typed "overloaded" frame and the server closes it.
  const int b = protocol::connect_unix(path);
  ASSERT_GE(b, 0);
  ASSERT_EQ(protocol::read_frame(b, &got), ReadStatus::kOk);
  EXPECT_NE(got.find("\"code\":\"overloaded\""), std::string::npos) << got;
  EXPECT_EQ(protocol::read_frame(b, &got), ReadStatus::kEof);
  ::close(b);

  // After the first session closes and the accept loop reaps it, a new
  // connection fits under the cap again — this only succeeds if finished
  // session threads are actually joined and removed, not accumulated.
  ::close(a);
  for (;;) {
    const int c = protocol::connect_unix(path);
    ASSERT_GE(c, 0);
    const bool wrote = protocol::write_frame(c, "{\"type\":\"ping\"}");
    const ReadStatus status =
        wrote ? protocol::read_frame(c, &got) : ReadStatus::kError;
    ::close(c);
    if (status == ReadStatus::kOk && got == "{\"type\":\"pong\"}") break;
    std::this_thread::yield();  // still over the cap; retry until reaped
  }

  signal.store(SIGTERM, std::memory_order_release);
  loop.join();
}

}  // namespace
}  // namespace ara::serve
