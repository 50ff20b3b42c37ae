// Strict JSON validation with zero external dependencies.
//
// validate_json() accepts exactly the RFC 8259 grammar: one top-level value,
// no trailing content, no comments, no trailing commas, no bare NaN/Inf, no
// raw control characters inside strings. It exists so exporter regressions
// (TraceCollector, MetricsExporter) fail tests and the CLI smoke ctest
// instead of surfacing later as a Perfetto "could not parse" error. It is
// obs::parse_json with the DOM thrown away, so the two can never disagree
// on what is valid JSON.
#pragma once

#include <string>
#include <string_view>

namespace ara::obs {

/// True when `text` is exactly one valid JSON value (plus whitespace).
/// On failure, `*error` (if non-null) gets a short "offset N: ..." message.
bool validate_json(std::string_view text, std::string* error = nullptr);

}  // namespace ara::obs
