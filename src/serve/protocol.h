// ara_serve wire protocol: length-prefixed JSON over a local stream socket.
//
// Framing: every message (either direction) is a 4-byte big-endian payload
// length followed by that many bytes of UTF-8 JSON. Frames above
// kMaxFrameBytes are rejected without reading the payload, so a corrupt
// length prefix cannot make the server allocate gigabytes.
//
// Requests (client -> server) are a versioned tagged union: one JSON
// object per frame, dispatched on "type", versioned by "v". "v" defaults
// to 1 — every pre-envelope (PR-6/7) client frame is a valid v1 frame —
// and the only version so far is kProtocolVersion. Unknown "type" or "v"
// values produce a typed bad_request whose message lists the supported
// types/versions. The set of types lives in one registry
// (request_registry) shared by the server's parser and the client's
// validator, so a new query type is added in exactly one place.
//
//   {"v":1,"type":"ping"}
//   {"type":"stats"}
//   {"type":"sweep", "client":"alice", "workload":"Denoise",
//    "scale":0.05, "points":[{"islands":6,"net":"ring","rings":2,
//    "width":32,"ports":1,"sharing":false,"mono":false}]}
//
// Every point field is optional; the defaults are dse::PointSpec's (the
// shared spec module — they mirror the ara_sim CLI: 24-island 2-ring 32B
// design, no sharing, 1x ports). "points" itself defaults to one default
// point, "client" (the fairness bucket) to "anon". Fields the parser does
// not read are ignored, so an older client's "policy" or "shards" still
// parses to the same point.
// PointSpec::to_config builds the ArchConfig exactly the way ara_sim's
// flag parser does, so a served point and a CLI run of the same spec are
// the same design point — and therefore, through dse::run, the same bits.
//
// Responses (server -> client):
//   {"type":"pong"}
//   {"type":"stats","metrics":{...obs::MetricsExporter JSON...}}
//   {"type":"sweep_result","trace_id":N,"points":[{"from_cache":B,
//    "coalesced":B,"wall_seconds":S,"entry":{...}}]}
//   {"type":"error","code":"bad_request|overloaded|draining|failed",
//    "message":"...","trace_id":N}
//
// Each sweep point's "entry" object is byte-for-byte the on-disk
// ResultCache entry format (dse::ResultCache::to_json): deterministic
// fields only, 17-significant-digit doubles, embedded key + salt; the
// sibling fields carry the warmth-dependent telemetry. Identical requests
// therefore produce byte-identical "entry" objects whether served fresh,
// from cache, or by coalescing — the serving contract the smoke test pins.
// "trace_id" on an error frame is present whenever the server minted a
// trace at admission (i.e. the request parsed), so failures join against
// the --log JSONL exactly like successes. A sweep whose response frame
// would exceed kMaxFrameBytes is answered with a bad_request naming the
// size and the limit (its points are cached by then, so the same points
// in smaller sweeps hit).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/arch_config.h"
#include "dse/spec.h"
#include "dse/sweep.h"
#include "obs/metrics_export.h"

namespace ara::serve::protocol {

/// Hard ceiling on one frame's payload (requests and responses).
inline constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

/// The one wire-protocol version so far. Requests without "v" are v1.
inline constexpr std::uint32_t kProtocolVersion = 1;

// ---------------------------------------------------------------- framing

/// Result of read_frame: distinguishes clean end-of-stream from damage.
enum class ReadStatus { kOk, kEof, kError };

/// Read one length-prefixed frame from `fd` into `*payload`. kEof means
/// the peer closed between frames (the clean case); kError covers
/// truncated frames, oversized lengths, and transport errors.
ReadStatus read_frame(int fd, std::string* payload);

/// Write one length-prefixed frame. False on transport error or an
/// oversized payload.
bool write_frame(int fd, std::string_view payload);

/// Connect to a listening AF_UNIX stream socket; -1 on failure.
int connect_unix(const std::string& path);

// ---------------------------------------------------------------- request

/// One design point of a sweep request. Lives in the shared dse spec
/// module since PR 8; the alias keeps protocol users compiling unchanged.
using PointSpec = dse::PointSpec;

struct Request {
  enum class Kind { kPing, kStats, kSweep };
  Kind kind = Kind::kPing;
  /// Envelope version the frame declared (or defaulted to).
  std::uint32_t v = kProtocolVersion;
  /// Fairness bucket for per-client round-robin scheduling.
  std::string client = "anon";
  std::string workload;  // benchmark name (sweep only)
  double scale = 0.25;   // invocation scale factor (sweep only)
  std::vector<PointSpec> points;  // sweep only
};

/// One row of the request-type registry: the wire name, the parsed kind,
/// and the body parser invoked after the envelope (v/type/client) is
/// validated. The table drives both parse_request and the client's
/// request validation, so server and client can never disagree on the
/// supported set.
struct RequestTypeInfo {
  const char* name;
  Request::Kind kind;
  bool (*parse_body)(const obs::JsonValue& root, Request* out,
                     std::string* error);
};

/// The registry, sorted by name.
const std::vector<RequestTypeInfo>& request_registry();

/// "ping|stats|sweep" — for error messages and client help.
std::string supported_types();

/// Parse one request frame through the registry. False (with *error
/// filled) on malformed JSON, an unsupported "v", an unknown "type", or a
/// body the type's parser rejects.
bool parse_request(const std::string& text, Request* out, std::string* error);

// --------------------------------------------------------------- response

std::string pong_response();
/// Typed error frame. A non-zero `trace_id` (minted at admission) is
/// echoed so the failure can be joined against the server's request log.
std::string error_response(std::string_view code, std::string_view message,
                           std::uint64_t trace_id = 0);
/// {"type":"stats","metrics":{...}} via MetricsExporter::write_json.
std::string stats_response(const obs::MetricsSnapshot& snapshot);
/// Sweep response: per-point flags plus the ResultCache entry object for
/// each result, keyed by the SweepResult::key dse::run computed; `salt`
/// is the cache salt the keys were computed under. A non-zero `trace_id`
/// is echoed as "trace_id" so a client can correlate its response with
/// the server's request log; it never affects the entry objects (the
/// bit-identity contract covers entries, not envelope).
std::string sweep_response(const std::vector<dse::SweepResult>& results,
                           std::uint64_t salt, std::uint64_t trace_id = 0);

}  // namespace ara::serve::protocol
