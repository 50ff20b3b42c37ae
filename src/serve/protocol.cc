#include "serve/protocol.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <sstream>

#include "common/cli_options.h"
#include "common/config_error.h"
#include "dse/result_cache.h"
#include "obs/json_io.h"

namespace ara::serve::protocol {

namespace {

bool read_exact(int fd, char* buf, std::size_t n, bool* clean_eof) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, buf + got, n - got);
    if (r == 0) {
      if (clean_eof != nullptr) *clean_eof = got == 0;
      return false;
    }
    if (r < 0) {
      if (errno == EINTR) continue;
      if (clean_eof != nullptr) *clean_eof = false;
      return false;
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

bool write_all(int fd, const char* buf, std::size_t n) {
  std::size_t put = 0;
  while (put < n) {
    // MSG_NOSIGNAL: a peer that closed its socket before reading the
    // response surfaces as EPIPE instead of raising SIGPIPE, whose
    // default action would kill the whole daemon. Non-socket fds (tests
    // frame over pipes) report ENOTSOCK and take the plain-write path.
    ssize_t w = ::send(fd, buf + put, n - put, MSG_NOSIGNAL);
    if (w < 0 && errno == ENOTSOCK) w = ::write(fd, buf + put, n - put);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    put += static_cast<std::size_t>(w);
  }
  return true;
}

// JSON field accessors over the obs DOM; each returns false when the
// member is present but has the wrong type (absence is fine — every
// request field beyond "type" has a default).
bool take_string(const obs::JsonValue& obj, const char* name,
                 std::string* out) {
  const obs::JsonValue* v = obj.find(name);
  if (v == nullptr) return true;
  if (!v->is_string()) return false;
  *out = v->text;
  return true;
}

// Strict unsigned conversion over the number's source text: plain digits
// only (no sign, fraction, or exponent) and within [0, max]. as_u64()'s
// strtoull would silently wrap "islands": 4294967320 or "-1" into a
// small value and simulate a different design point than requested.
bool number_to_u64(const obs::JsonValue& v, std::uint64_t max,
                   std::uint64_t* out) {
  return v.is_number() && common::parse_unsigned(v.text, max, out);
}

bool take_u32(const obs::JsonValue& obj, const char* name,
              std::uint32_t* out) {
  const obs::JsonValue* v = obj.find(name);
  if (v == nullptr) return true;
  std::uint64_t val = 0;
  if (!number_to_u64(*v, UINT32_MAX, &val)) return false;
  *out = static_cast<std::uint32_t>(val);
  return true;
}

bool take_u64(const obs::JsonValue& obj, const char* name,
              std::uint64_t* out) {
  const obs::JsonValue* v = obj.find(name);
  if (v == nullptr) return true;
  return number_to_u64(*v, UINT64_MAX, out);
}

bool take_double(const obs::JsonValue& obj, const char* name, double* out) {
  const obs::JsonValue* v = obj.find(name);
  if (v == nullptr) return true;
  if (!v->is_number()) return false;
  *out = v->as_double();
  return true;
}

bool take_bool(const obs::JsonValue& obj, const char* name, bool* out) {
  const obs::JsonValue* v = obj.find(name);
  if (v == nullptr) return true;
  if (v->kind != obs::JsonValue::Kind::kBool) return false;
  *out = v->boolean;
  return true;
}

bool parse_point(const obs::JsonValue& obj, PointSpec* out,
                 std::string* error) {
  if (!obj.is_object()) {
    *error = "every entry of \"points\" must be an object";
    return false;
  }
  PointSpec p;
  const bool ok = take_u32(obj, "islands", &p.islands) &&
                  take_string(obj, "net", &p.net) &&
                  take_u32(obj, "rings", &p.rings) &&
                  take_u64(obj, "width", &p.link_bytes) &&
                  take_u32(obj, "ports", &p.ports) &&
                  take_bool(obj, "sharing", &p.sharing) &&
                  take_bool(obj, "mono", &p.mono) &&
                  take_string(obj, "policy", &p.policy);
  if (!ok) {
    *error = "point field has the wrong JSON type or is out of range";
    return false;
  }
  *out = std::move(p);
  return true;
}

// Search-space lists: present => non-empty, correctly typed, and bounded
// (the space is a cross product; per-list caps keep it enumerable).
constexpr std::size_t kMaxSpaceValues = 24;

bool take_u32_list(const obs::JsonValue& obj, const char* name,
                   std::vector<std::uint32_t>* out) {
  const obs::JsonValue* v = obj.find(name);
  if (v == nullptr) return true;
  if (!v->is_array() || v->items.empty() ||
      v->items.size() > kMaxSpaceValues) {
    return false;
  }
  std::vector<std::uint32_t> vals;
  for (const auto& item : v->items) {
    std::uint64_t x = 0;
    if (!number_to_u64(item, UINT32_MAX, &x)) return false;
    vals.push_back(static_cast<std::uint32_t>(x));
  }
  *out = std::move(vals);
  return true;
}

bool take_u64_list(const obs::JsonValue& obj, const char* name,
                   std::vector<std::uint64_t>* out) {
  const obs::JsonValue* v = obj.find(name);
  if (v == nullptr) return true;
  if (!v->is_array() || v->items.empty() ||
      v->items.size() > kMaxSpaceValues) {
    return false;
  }
  std::vector<std::uint64_t> vals;
  for (const auto& item : v->items) {
    std::uint64_t x = 0;
    if (!number_to_u64(item, UINT64_MAX, &x)) return false;
    vals.push_back(x);
  }
  *out = std::move(vals);
  return true;
}

bool take_bool_list(const obs::JsonValue& obj, const char* name,
                    std::vector<bool>* out) {
  const obs::JsonValue* v = obj.find(name);
  if (v == nullptr) return true;
  if (!v->is_array() || v->items.empty() ||
      v->items.size() > kMaxSpaceValues) {
    return false;
  }
  std::vector<bool> vals;
  for (const auto& item : v->items) {
    if (item.kind != obs::JsonValue::Kind::kBool) return false;
    vals.push_back(item.boolean);
  }
  *out = std::move(vals);
  return true;
}

bool take_string_list(const obs::JsonValue& obj, const char* name,
                      std::vector<std::string>* out) {
  const obs::JsonValue* v = obj.find(name);
  if (v == nullptr) return true;
  if (!v->is_array() || v->items.empty() ||
      v->items.size() > kMaxSpaceValues) {
    return false;
  }
  std::vector<std::string> vals;
  for (const auto& item : v->items) {
    if (!item.is_string()) return false;
    vals.push_back(item.text);
  }
  *out = std::move(vals);
  return true;
}

// ------------------------------------------- registry body parsers
// Each runs after the envelope (v / type / client) is validated; the
// registry row picked by "type" selects which one.

bool parse_empty_body(const obs::JsonValue& root, Request* out,
                      std::string* error) {
  (void)root;
  (void)out;
  (void)error;
  return true;
}

bool parse_sweep_body(const obs::JsonValue& root, Request* out,
                      std::string* error) {
  if (!take_string(root, "workload", &out->workload) ||
      out->workload.empty()) {
    *error = "sweep request needs a string \"workload\"";
    return false;
  }
  if (!take_double(root, "scale", &out->scale) || out->scale <= 0) {
    *error = "\"scale\" must be a positive number";
    return false;
  }
  const obs::JsonValue* points = root.find("points");
  if (points == nullptr) {
    out->points.push_back(PointSpec{});
    return true;
  }
  if (!points->is_array() || points->items.empty()) {
    *error = "\"points\" must be a non-empty array";
    return false;
  }
  if (points->items.size() > 4096) {
    *error = "\"points\" is limited to 4096 entries per request";
    return false;
  }
  for (const auto& item : points->items) {
    PointSpec spec;
    if (!parse_point(item, &spec, error)) return false;
    out->points.push_back(std::move(spec));
  }
  return true;
}

bool parse_search_body(const obs::JsonValue& root, Request* out,
                       std::string* error) {
  dse::SearchSpec spec;
  if (!take_string(root, "workload", &spec.workload) ||
      spec.workload.empty()) {
    *error = "search request needs a string \"workload\"";
    return false;
  }
  if (!take_double(root, "scale", &spec.scale) || spec.scale <= 0) {
    *error = "\"scale\" must be a positive number";
    return false;
  }
  std::string objective = dse::objective_name(spec.objective);
  if (!take_string(root, "objective", &objective) ||
      !dse::objective_from_name(objective, &spec.objective)) {
    *error =
        "\"objective\" must be one of perf|perf_per_energy|perf_per_area";
    return false;
  }
  if (!take_u64(root, "budget", &spec.budget) || spec.budget == 0) {
    *error = "\"budget\" must be a positive integer";
    return false;
  }
  if (spec.budget > 4096) {
    *error = "\"budget\" is limited to 4096 evaluations per request";
    return false;
  }
  if (!take_u64(root, "seed", &spec.seed)) {
    *error = "\"seed\" must be an unsigned integer";
    return false;
  }
  const obs::JsonValue* space = root.find("space");
  if (space != nullptr) {
    if (!space->is_object()) {
      *error = "\"space\" must be an object of per-dimension value lists";
      return false;
    }
    const bool ok = take_u32_list(*space, "islands", &spec.space.islands) &&
                    take_string_list(*space, "nets", &spec.space.nets) &&
                    take_u32_list(*space, "rings", &spec.space.rings) &&
                    take_u64_list(*space, "widths", &spec.space.widths) &&
                    take_u32_list(*space, "ports", &spec.space.ports) &&
                    take_bool_list(*space, "sharing", &spec.space.sharing) &&
                    take_bool_list(*space, "mono", &spec.space.mono) &&
                    take_string_list(*space, "policies",
                                     &spec.space.policies);
    if (!ok) {
      *error = "search space list has the wrong JSON type, is empty, or "
               "exceeds 24 entries";
      return false;
    }
  }
  out->workload = spec.workload;
  out->scale = spec.scale;
  out->search = std::move(spec);
  return true;
}

}  // namespace

ReadStatus read_frame(int fd, std::string* payload) {
  unsigned char header[4];
  bool clean_eof = false;
  if (!read_exact(fd, reinterpret_cast<char*>(header), sizeof header,
                  &clean_eof)) {
    return clean_eof ? ReadStatus::kEof : ReadStatus::kError;
  }
  const std::uint32_t len = (static_cast<std::uint32_t>(header[0]) << 24) |
                            (static_cast<std::uint32_t>(header[1]) << 16) |
                            (static_cast<std::uint32_t>(header[2]) << 8) |
                            static_cast<std::uint32_t>(header[3]);
  if (len > kMaxFrameBytes) return ReadStatus::kError;
  payload->assign(len, '\0');
  if (len > 0 && !read_exact(fd, payload->data(), len, nullptr)) {
    return ReadStatus::kError;
  }
  return ReadStatus::kOk;
}

bool write_frame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) return false;
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  const unsigned char header[4] = {
      static_cast<unsigned char>(len >> 24),
      static_cast<unsigned char>(len >> 16),
      static_cast<unsigned char>(len >> 8),
      static_cast<unsigned char>(len),
  };
  return write_all(fd, reinterpret_cast<const char*>(header), sizeof header) &&
         write_all(fd, payload.data(), payload.size());
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() + 1 > sizeof addr.sun_path) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

const std::vector<RequestTypeInfo>& request_registry() {
  // Sorted by name; parse_request, supported_types(), and the client's
  // validator all walk this one table.
  static const std::vector<RequestTypeInfo> kRegistry = {
      {"ping", Request::Kind::kPing, &parse_empty_body},
      {"search", Request::Kind::kSearch, &parse_search_body},
      {"stats", Request::Kind::kStats, &parse_empty_body},
      {"sweep", Request::Kind::kSweep, &parse_sweep_body},
  };
  return kRegistry;
}

std::string supported_types() {
  std::string out;
  for (const RequestTypeInfo& t : request_registry()) {
    if (!out.empty()) out += "|";
    out += t.name;
  }
  return out;
}

bool parse_request(const std::string& text, Request* out,
                   std::string* error) {
  obs::JsonValue root;
  if (!obs::parse_json(text, &root, error)) return false;
  if (!root.is_object()) {
    *error = "request must be a JSON object";
    return false;
  }

  // Envelope: version first ("v", absent = v1 so every pre-envelope
  // client frame stays valid), then the type tag, then the fairness
  // bucket. Body parsing is the registry row's job.
  Request req;
  const obs::JsonValue* v = root.find("v");
  if (v != nullptr) {
    std::uint64_t val = 0;
    if (!number_to_u64(*v, UINT32_MAX, &val)) {
      *error = "\"v\" must be an unsigned integer";
      return false;
    }
    req.v = static_cast<std::uint32_t>(val);
  }
  if (req.v != kProtocolVersion) {
    *error = "unsupported protocol version '" + std::to_string(req.v) +
             "' (supported: " + std::to_string(kProtocolVersion) + ")";
    return false;
  }
  std::string type;
  if (!take_string(root, "type", &type) || type.empty()) {
    *error = "request needs a string \"type\"";
    return false;
  }
  const RequestTypeInfo* info = nullptr;
  for (const RequestTypeInfo& t : request_registry()) {
    if (type == t.name) {
      info = &t;
      break;
    }
  }
  if (info == nullptr) {
    *error = "unknown request type '" + type +
             "' (supported: " + supported_types() + ")";
    return false;
  }
  req.kind = info->kind;
  if (!take_string(root, "client", &req.client)) {
    *error = "\"client\" must be a string";
    return false;
  }
  if (req.client.empty()) req.client = "anon";
  if (!info->parse_body(root, &req, error)) return false;
  *out = std::move(req);
  return true;
}

std::string pong_response() { return "{\"type\":\"pong\"}"; }

std::string error_response(std::string_view code, std::string_view message,
                           std::uint64_t trace_id) {
  std::ostringstream os;
  os << "{\"type\":\"error\",\"code\":\"";
  obs::json_escape(os, code);
  os << "\",\"message\":\"";
  obs::json_escape(os, message);
  os << "\"";
  // 0 = no trace was minted (the frame never parsed); otherwise the id
  // joins this failure against the server's request log.
  if (trace_id != 0) os << ",\"trace_id\":" << trace_id;
  os << "}";
  return os.str();
}

std::string stats_response(const obs::MetricsSnapshot& snapshot) {
  std::ostringstream os;
  os << "{\"type\":\"stats\",\"metrics\":";
  obs::MetricsExporter::write_json(os, snapshot);
  os << "}";
  return os.str();
}

std::string sweep_response(const std::vector<dse::SweepResult>& results,
                           std::uint64_t salt, std::uint64_t trace_id) {
  std::string out = "{\"type\":\"sweep_result\",";
  // 0 = untraced (direct protocol users); the server always mints one.
  if (trace_id != 0) {
    out += "\"trace_id\":";
    obs::append_number(out, trace_id);
    out += ',';
  }
  out += "\"points\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const dse::SweepResult& r = results[i];
    if (i > 0) out += ',';
    out += r.from_cache ? "{\"from_cache\":true" : "{\"from_cache\":false";
    out += r.coalesced ? ",\"coalesced\":true" : ",\"coalesced\":false";
    out += ",\"wall_seconds\":";
    obs::append_number(out, r.wall_seconds, 17);
    out += ",\"entry\":";
    dse::ResultCache::append_json(out, r.key, salt, r);
    out += '}';
    // Reserve the frame once, sized from the first point, instead of
    // growing it through every entry.
    if (i == 0) out.reserve(out.size() * results.size() + 2);
  }
  out += "]}";
  return out;
}

std::string search_response(const dse::SearchResult& result,
                            std::uint64_t trace_id) {
  std::ostringstream os;
  os << "{\"type\":\"search_result\",";
  // 0 = untraced (direct protocol users); the server always mints one.
  if (trace_id != 0) os << "\"trace_id\":" << trace_id << ",";
  os << "\"simulated\":" << result.simulated
     << ",\"cache_hits\":" << result.cache_hits
     << ",\"coalesced\":" << result.coalesced << ",\"wall_seconds\":";
  obs::json_number(os, result.wall_seconds, 17);
  os << ",\"result\":" << dse::search_result_json(result) << "}";
  return os.str();
}

}  // namespace ara::serve::protocol
