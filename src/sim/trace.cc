#include "sim/trace.h"

#include <cmath>
#include <cstdio>

namespace ara::sim {

namespace {

void json_escape(std::ostream& os, const std::string& s) {
  for (const char raw : s) {
    const auto c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\b':
        os << "\\b";
        break;
      case '\f':
        os << "\\f";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\r':
        os << "\\r";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (c < 0x20) {
          // Remaining control characters have no short escape; JSON strings
          // may not contain them raw.
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << raw;
        }
    }
  }
}

void json_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << 0;  // JSON has no NaN/Inf; clamp rather than corrupt the file
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  os << buf;
}

}  // namespace

void TraceCollector::push(Event e) {
  const bool meta =
      e.phase == Phase::kMetaProcess || e.phase == Phase::kMetaThread;
  if (!meta && events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(e));
}

void TraceCollector::record_span(const std::string& name, std::uint32_t pid,
                                 std::uint32_t tid, Tick start, Tick end,
                                 const std::string& category) {
  Event e;
  e.phase = Phase::kSpan;
  e.name = name;
  e.category = category;
  e.pid = pid;
  e.tid = tid;
  e.start = start;
  e.end = end < start ? start : end;
  push(std::move(e));
}

void TraceCollector::record_instant(const std::string& name, std::uint32_t pid,
                                    std::uint32_t tid, Tick at,
                                    const std::string& category) {
  Event e;
  e.phase = Phase::kInstant;
  e.name = name;
  e.category = category;
  e.pid = pid;
  e.tid = tid;
  e.start = e.end = at;
  push(std::move(e));
}

void TraceCollector::record_counter(const std::string& track,
                                    std::uint32_t pid, Tick at,
                                    const std::string& series, double value) {
  Event e;
  e.phase = Phase::kCounter;
  e.name = track;
  e.category = "counter";
  e.pid = pid;
  e.start = e.end = at;
  e.arg_name = series;
  e.arg_value = value;
  push(std::move(e));
}

std::uint64_t TraceCollector::begin_flow(const std::string& name,
                                         std::uint32_t pid, std::uint32_t tid,
                                         Tick at,
                                         const std::string& category) {
  const std::uint64_t id = next_flow_++;
  Event e;
  e.phase = Phase::kFlowStart;
  e.name = name;
  e.category = category;
  e.pid = pid;
  e.tid = tid;
  e.start = e.end = at;
  e.flow_id = id;
  push(std::move(e));
  return id;
}

void TraceCollector::step_flow(std::uint64_t flow, const std::string& name,
                               std::uint32_t pid, std::uint32_t tid, Tick at,
                               const std::string& category) {
  Event e;
  e.phase = Phase::kFlowStep;
  e.name = name;
  e.category = category;
  e.pid = pid;
  e.tid = tid;
  e.start = e.end = at;
  e.flow_id = flow;
  push(std::move(e));
}

void TraceCollector::end_flow(std::uint64_t flow, const std::string& name,
                              std::uint32_t pid, std::uint32_t tid, Tick at,
                              const std::string& category) {
  Event e;
  e.phase = Phase::kFlowEnd;
  e.name = name;
  e.category = category;
  e.pid = pid;
  e.tid = tid;
  e.start = e.end = at;
  e.flow_id = flow;
  push(std::move(e));
}

void TraceCollector::name_process(std::uint32_t pid, const std::string& name) {
  Event e;
  e.phase = Phase::kMetaProcess;
  e.name = "process_name";
  e.pid = pid;
  e.arg_name = name;
  push(std::move(e));
}

void TraceCollector::name_thread(std::uint32_t pid, std::uint32_t tid,
                                 const std::string& name) {
  Event e;
  e.phase = Phase::kMetaThread;
  e.name = "thread_name";
  e.pid = pid;
  e.tid = tid;
  e.arg_name = name;
  push(std::move(e));
}

void TraceCollector::write_json(std::ostream& os) const {
  os << "[\n";
  bool first = true;
  auto begin_event = [&](const Event& e) {
    if (!first) os << ",\n";
    first = false;
    os << R"({"name":")";
    json_escape(os, e.name);
    os << R"(","cat":")";
    json_escape(os, e.category.empty() ? "meta" : e.category);
    os << R"(","pid":)" << e.pid << R"(,"tid":)" << e.tid;
  };

  for (const auto& e : events_) {
    switch (e.phase) {
      case Phase::kSpan:
        begin_event(e);
        os << R"(,"ph":"X","ts":)" << e.start << R"(,"dur":)"
           << (e.end - e.start) << "}";
        break;
      case Phase::kInstant:
        begin_event(e);
        os << R"(,"ph":"i","ts":)" << e.start << R"(,"s":"t"})";
        break;
      case Phase::kCounter:
        begin_event(e);
        os << R"(,"ph":"C","ts":)" << e.start << R"(,"args":{")";
        json_escape(os, e.arg_name);
        os << R"(":)";
        json_number(os, e.arg_value);
        os << "}}";
        break;
      case Phase::kFlowStart:
        begin_event(e);
        os << R"(,"ph":"s","id":)" << e.flow_id << R"(,"ts":)" << e.start
           << "}";
        break;
      case Phase::kFlowStep:
        begin_event(e);
        os << R"(,"ph":"t","id":)" << e.flow_id << R"(,"ts":)" << e.start
           << "}";
        break;
      case Phase::kFlowEnd:
        begin_event(e);
        os << R"(,"ph":"f","bp":"e","id":)" << e.flow_id << R"(,"ts":)"
           << e.start << "}";
        break;
      case Phase::kMetaProcess:
      case Phase::kMetaThread:
        begin_event(e);
        os << R"(,"ph":"M","args":{"name":")";
        json_escape(os, e.arg_name);
        os << R"("}})";
        break;
    }
  }

  if (dropped_ > 0) {
    if (!first) os << ",\n";
    first = false;
    os << R"({"name":"trace_buffer_full","cat":"trace","pid":)" << kTracePidSim
       << R"(,"tid":0,"ph":"i","ts":0,"s":"g","args":{"dropped_events":)"
       << dropped_ << "}}";
  }
  os << "\n]\n";
}

}  // namespace ara::sim
