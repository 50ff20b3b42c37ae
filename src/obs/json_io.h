// Minimal JSON reader (DOM) + shared writer helpers, zero dependencies.
//
// The exporters in this module only ever needed to WRITE JSON; the DSE
// result cache also needs to READ it back (RunResult + MetricsSnapshot
// round-trip through the on-disk cache tier). parse_json() accepts the
// strict RFC 8259 grammar and builds a small DOM; validate_json()
// (json_check.h) is this parser with the DOM discarded.
// Numbers keep their raw source token so 64-bit counters (which do not fit
// a double) and 17-digit doubles both round-trip exactly.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ara::obs {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  /// String contents (unescaped) for kString; the raw numeric token for
  /// kNumber.
  std::string text;
  std::vector<JsonValue> items;                            // kArray
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }

  /// Object member lookup (first match); null when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  /// Numeric conversions (0 when not a number).
  double as_double() const;
  std::uint64_t as_u64() const;
};

/// Parse exactly one JSON value (plus surrounding whitespace). On failure
/// returns false and fills `*error` (if non-null) with "offset N: ...".
bool parse_json(std::string_view text, JsonValue* out,
                std::string* error = nullptr);

/// Writer helpers shared by MetricsExporter, TraceCollector-adjacent code
/// and the result cache.
void json_escape(std::ostream& os, std::string_view s);
/// `digits` significant digits; 17 round-trips doubles exactly. NaN/Inf
/// (invalid JSON) degrade to 0.
void json_number(std::ostream& os, double v, int digits);

}  // namespace ara::obs
