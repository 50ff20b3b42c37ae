#include "lint_core.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>

#include "analyze_core.h"

namespace ara::lint {

namespace {

// The comment/string/raw-string-aware views come from the shared
// whole-program lexer (tools/analyze_core.h), so ara_lint and ara_analyze
// agree exactly on what is code, what is comment, and what is literal —
// including backslash-newline splices and all raw-string prefixes, which
// the old per-line scanner here got wrong.
using FileView = ara::analyze::SourceView;
using ara::analyze::known_layers;
using ara::analyze::layer_deps;
using ara::analyze::split_path;

// ------------------------------------------------------------------ catalog

const std::vector<RuleInfo> kRules = {
    {"bad-suppression",
     "an ara-lint allow() comment names a rule id that does not exist"},
    {"layering",
     "#include crosses a layer boundary not in the dependency allowlist"},
    {"no-deprecated-api",
     "references a removed API (run_point/run_sweep); use dse::run"},
    {"no-naked-lock",
     "direct mutex .lock()/.unlock(); RAII guards (common::MutexLock) only"},
    {"no-rand",
     "nondeterministic or non-portable randomness; use sim::Rng"},
    {"no-raw-new-delete",
     "raw new/delete outside the sanctioned slab allocators"},
    {"no-unordered-iter",
     "iteration over an unordered container (order feeds results/stats)"},
    {"no-wall-clock",
     "host wall-clock read in simulator code outside sanctioned telemetry"},
    {"stat-naming",
     "StatRegistry registration not named <subsystem>.<id>.<stat>"},
};

bool known_rule(const std::string& id) {
  for (const auto& r : kRules) {
    if (r.id == id) return true;
  }
  return false;
}

// ------------------------------------------------- comment/string stripping

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// ----------------------------------------------------------- suppressions

/// Rule ids allowed on a raw line, from allow() markers — e.g.
/// "// ara-lint: allow(no-rand, layering)". Unknown ids are reported
/// through `out` as bad-suppression findings.
std::set<std::string> line_suppressions(const std::string& raw,
                                        const std::string& path, int line,
                                        std::vector<Finding>* out) {
  std::set<std::string> ids;
  static const std::string kMarker = std::string("ara-lint") + ":";
  std::size_t pos = raw.find(kMarker);
  while (pos != std::string::npos) {
    std::size_t open = raw.find("allow" + std::string("("), pos);
    if (open == std::string::npos) break;
    open += 6;
    const std::size_t close = raw.find(')', open);
    if (close == std::string::npos) break;
    std::string id;
    for (std::size_t i = open; i <= close; ++i) {
      const char c = raw[i];
      if (c == ',' || c == ')') {
        if (!id.empty()) {
          if (known_rule(id)) {
            ids.insert(id);
          } else {
            out->push_back({path, line, "bad-suppression",
                            "suppression names unknown rule '" + id + "'"});
          }
          id.clear();
        }
      } else if (!std::isspace(static_cast<unsigned char>(c))) {
        id += c;
      }
    }
    pos = raw.find(kMarker, close);
  }
  return ids;
}

// ------------------------------------------------------------ path scoping
// split_path / known_layers / layer_deps now live in analyze_core (the
// single source of truth for the layer architecture, shared with the
// transitive analysis in ara_analyze).

/// Where a file sits for rule-scoping purposes.
struct Scope {
  bool in_src = false;     // under a src/ tree (simulator library code)
  std::string layer;       // src/<layer>/... when in_src
};

Scope classify(const std::string& path) {
  Scope s;
  s.layer = ara::analyze::layer_of(path);
  s.in_src = !s.layer.empty();
  return s;
}

// ------------------------------------------------------------ match helpers

/// Call `fn(line_index)` for every whole-word occurrence of `word`.
template <typename Fn>
void for_each_word(const std::vector<std::string>& lines,
                   const std::string& word, Fn fn) {
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string& s = lines[li];
    std::size_t pos = s.find(word);
    while (pos != std::string::npos) {
      const bool lb = pos == 0 || !ident_char(s[pos - 1]);
      const bool rb = pos + word.size() >= s.size() ||
                      !ident_char(s[pos + word.size()]);
      if (lb && rb) fn(li, pos);
      pos = s.find(word, pos + 1);
    }
  }
}

char prev_nonspace(const std::string& s, std::size_t pos) {
  while (pos > 0) {
    --pos;
    if (!std::isspace(static_cast<unsigned char>(s[pos]))) return s[pos];
  }
  return '\0';
}

char next_nonspace(const std::string& s, std::size_t pos) {
  while (pos < s.size()) {
    if (!std::isspace(static_cast<unsigned char>(s[pos]))) return s[pos];
    ++pos;
  }
  return '\0';
}

// ------------------------------------------------------------------- rules

void rule_no_rand(const Scope& scope, const FileView& v,
                  const std::string& path, std::vector<Finding>* out) {
  if (!scope.in_src) return;
  static const char* const kBanned[] = {
      "rand",          "srand",       "drand48",
      "lrand48",       "random_device", "mt19937",
      "mt19937_64",    "minstd_rand", "default_random_engine",
      "random_shuffle", "uniform_int_distribution",
      "uniform_real_distribution"};
  for (const char* word : kBanned) {
    for_each_word(v.code, word, [&](std::size_t li, std::size_t) {
      out->push_back({path, static_cast<int>(li + 1), "no-rand",
                      std::string("'") + word +
                          "' is a banned nondeterminism source; use sim::Rng "
                          "(portable xoshiro256**, seeded per stream)"});
    });
  }
}

/// The one sanctioned wall-clock site: obs::MonotonicClock::host() in
/// src/obs/clock.cc. Everything else that wants real time takes a
/// MonotonicClock& (tests inject obs::FakeClock), so the allowlist is a
/// single path rather than per-line allow comments scattered through the
/// telemetry layer. Matched on the trailing components so fixture trees
/// (tests/lint_fixtures/src/obs/clock.cc) exercise the same exemption.
bool sanctioned_clock_site(const std::string& path) {
  const auto parts = split_path(path);
  const std::size_t n = parts.size();
  return n >= 3 && parts[n - 3] == "src" && parts[n - 2] == "obs" &&
         parts[n - 1] == "clock.cc";
}

void rule_no_wall_clock(const Scope& scope, const FileView& v,
                        const std::string& path, std::vector<Finding>* out) {
  if (!scope.in_src) return;
  if (sanctioned_clock_site(path)) return;
  static const char* const kBanned[] = {
      "system_clock", "steady_clock",  "high_resolution_clock",
      "gettimeofday", "clock_gettime", "localtime",
      "gmtime",       "timespec_get"};
  auto report = [&](std::size_t li, const std::string& what) {
    out->push_back({path, static_cast<int>(li + 1), "no-wall-clock",
                    "'" + what +
                        "' reads host wall-clock in simulator code; "
                        "simulated time comes from Simulator::now() and "
                        "real-time telemetry from obs::MonotonicClock "
                        "(src/obs/clock.cc is the sole exempt site). Other "
                        "sanctioned sites carry an explicit ara-lint allow "
                        "comment"});
  };
  for (const char* word : kBanned) {
    for_each_word(v.code, word,
                  [&](std::size_t li, std::size_t) { report(li, word); });
  }
  // Bare time(...) / clock(...) calls: flag only non-member uses so a
  // method named time() on a simulator type stays legal.
  for (const char* word : {"time", "clock"}) {
    for_each_word(v.code, word, [&](std::size_t li, std::size_t pos) {
      const std::string& s = v.code[li];
      if (next_nonspace(s, pos + std::string(word).size()) != '(') return;
      const char before = pos == 0 ? '\0' : s[pos - 1];
      if (before == '.' || before == '>') return;  // member call
      report(li, word);
    });
  }
}

void rule_no_unordered_iter(const Scope& scope, const FileView& v,
                            const std::string& path,
                            std::vector<Finding>* out) {
  if (!scope.in_src) return;
  // Pass 1: names declared with an unordered container type in this file.
  std::set<std::string> names;
  static const std::regex kDecl(
      R"(unordered_(?:map|set|multimap|multiset)\s*<)");
  for (const auto& line : v.code) {
    for (std::sregex_iterator it(line.begin(), line.end(), kDecl), end;
         it != end; ++it) {
      // Match the template argument list's angle brackets, then read the
      // declared name (skipping &, * and const-ness).
      std::size_t i = static_cast<std::size_t>(it->position()) + it->length();
      int depth = 1;
      while (i < line.size() && depth > 0) {
        if (line[i] == '<') ++depth;
        if (line[i] == '>') --depth;
        ++i;
      }
      if (depth != 0) continue;  // declaration spans lines; heuristic bails
      while (i < line.size() &&
             (std::isspace(static_cast<unsigned char>(line[i])) ||
              line[i] == '&' || line[i] == '*')) {
        ++i;
      }
      std::string name;
      while (i < line.size() && ident_char(line[i])) name += line[i++];
      if (name == "iterator" || name == "const_iterator") continue;
      if (!name.empty()) names.insert(name);
    }
  }
  if (names.empty()) return;

  // Pass 2: range-for over, or .begin() on, any of those names.
  static const std::regex kRangeFor(
      R"(\bfor\s*\([^;()]*[^:\s]\s*:\s*(?:\*|&)?\s*((?:[A-Za-z_]\w*\s*(?:\.|->)\s*)*[A-Za-z_]\w*)\s*\))");
  static const std::regex kBegin(
      R"(([A-Za-z_]\w*)\s*\.\s*(?:c|r|cr)?begin\s*\()");
  for (std::size_t li = 0; li < v.code.size(); ++li) {
    const std::string& line = v.code[li];
    auto flag = [&](const std::string& name) {
      out->push_back(
          {path, static_cast<int>(li + 1), "no-unordered-iter",
           "iterating unordered container '" + name +
               "': bucket order is implementation-defined, so anything "
               "derived from it (stats, exports, scheduling) loses "
               "determinism. Iterate a sorted copy or use std::map"});
    };
    for (std::sregex_iterator it(line.begin(), line.end(), kRangeFor), end;
         it != end; ++it) {
      std::string expr = (*it)[1].str();
      const std::size_t dot = expr.find_last_of(".>");
      const std::string last =
          dot == std::string::npos ? expr : expr.substr(dot + 1);
      if (names.count(last) != 0) flag(last);
    }
    for (std::sregex_iterator it(line.begin(), line.end(), kBegin), end;
         it != end; ++it) {
      if (names.count((*it)[1].str()) != 0) flag((*it)[1].str());
    }
  }
}

void rule_no_raw_new_delete(const FileView& v, const std::string& path,
                            std::vector<Finding>* out) {
  for_each_word(v.code, "new", [&](std::size_t li, std::size_t pos) {
    const std::string& s = v.code[li];
    if (next_nonspace(s, 0) == '#') return;  // #include <new> etc.
    // `operator new` overloads declare the allocator itself.
    if (pos >= 9 && s.compare(pos - 9, 8, "operator") == 0) return;
    out->push_back({path, static_cast<int>(li + 1), "no-raw-new-delete",
                    "raw 'new' outside a slab allocator; simulator "
                    "allocations go through the kernel slab / free-list "
                    "(sim/event_queue.h) or value containers"});
  });
  for_each_word(v.code, "delete", [&](std::size_t li, std::size_t pos) {
    const std::string& s = v.code[li];
    if (next_nonspace(s, 0) == '#') return;
    if (prev_nonspace(s, pos) == '=') return;  // = delete; (deleted member)
    if (pos >= 9 && s.compare(pos - 9, 8, "operator") == 0) return;
    out->push_back({path, static_cast<int>(li + 1), "no-raw-new-delete",
                    "raw 'delete' outside a slab allocator; pair every "
                    "allocation with RAII ownership instead"});
  });
}

void rule_stat_naming(const Scope& scope, const FileView& v,
                      const std::string& path, std::vector<Finding>* out) {
  if (!scope.in_src) return;
  static const std::regex kReg(
      R"re((?:\.|->)\s*(counter|accumulator|histogram|set_counter)\s*\(\s*"([^"]*)"\s*(\+?))re");
  static const std::regex kFull(R"([a-z][a-z0-9_]*(\.[a-z0-9_]+)+)");
  static const std::regex kPartial(R"([a-z][a-z0-9_.]*)");
  for (std::size_t li = 0; li < v.text.size(); ++li) {
    const std::string& line = v.text[li];
    for (std::sregex_iterator it(line.begin(), line.end(), kReg), end;
         it != end; ++it) {
      const std::string literal = (*it)[2].str();
      const bool concatenated = (*it)[3].str() == "+";
      const bool ok = concatenated ? std::regex_match(literal, kPartial)
                                   : std::regex_match(literal, kFull);
      if (!ok) {
        out->push_back(
            {path, static_cast<int>(li + 1), "stat-naming",
             "stat registration \"" + literal +
                 "\" must follow <subsystem>.<id>.<stat> (lowercase "
                 "dot-separated segments, e.g. \"noc.router.3.flits\")"});
      }
    }
  }
}

void rule_layering(const Scope& scope, const FileView& v,
                   const std::string& path, std::vector<Finding>* out) {
  if (!scope.in_src || scope.layer.empty()) return;
  const auto deps_it = layer_deps().find(scope.layer);
  if (deps_it == layer_deps().end()) return;
  static const std::regex kInclude(R"(^\s*#\s*include\s*"([^"/]+)/)");
  for (std::size_t li = 0; li < v.text.size(); ++li) {
    std::smatch m;
    if (!std::regex_search(v.text[li], m, kInclude)) continue;
    const std::string target = m[1].str();
    if (target == scope.layer || known_layers().count(target) == 0) continue;
    if (deps_it->second.count(target) == 0) {
      out->push_back(
          {path, static_cast<int>(li + 1), "layering",
           "src/" + scope.layer + "/ must not include \"" + target +
               "/...\": the edge is outside the layer dependency allowlist "
               "(tools/analyze_core.cc layer_deps; amend it deliberately or "
               "invert the dependency)"});
    }
  }
}

void rule_no_naked_lock(const FileView& v, const std::string& path,
                        std::vector<Finding>* out) {
  static const std::regex kLock(
      R"((?:\.|->)\s*((?:try_)?(?:un)?lock)\s*\()");
  for (std::size_t li = 0; li < v.code.size(); ++li) {
    const std::string& line = v.code[li];
    for (std::sregex_iterator it(line.begin(), line.end(), kLock), end;
         it != end; ++it) {
      out->push_back({path, static_cast<int>(li + 1), "no-naked-lock",
                      "naked ." + (*it)[1].str() +
                          "() call; take mutexes through an RAII guard "
                          "(common::MutexLock) so no exit path leaks the "
                          "lock"});
    }
  }
}

void rule_no_deprecated_api(const FileView& v, const std::string& path,
                            std::vector<Finding>* out) {
  for (const char* word : {"run_point", "run_sweep"}) {
    for_each_word(v.code, word, [&](std::size_t li, std::size_t) {
      out->push_back({path, static_cast<int>(li + 1), "no-deprecated-api",
                      std::string("'") + word +
                          "' was removed in favour of dse::run(SweepRequest) "
                          "— see DESIGN.md \"SweepRequest migration\""});
    });
  }
}

// ---------------------------------------------------------------- plumbing

void json_escape(std::string* out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

}  // namespace

const std::vector<RuleInfo>& rules() { return kRules; }

std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& content,
                                 std::size_t* suppressed) {
  const FileView v = ara::analyze::lex(content).view;
  const Scope scope = classify(path);

  std::vector<Finding> raw_findings;
  rule_no_rand(scope, v, path, &raw_findings);
  rule_no_wall_clock(scope, v, path, &raw_findings);
  rule_no_unordered_iter(scope, v, path, &raw_findings);
  rule_no_raw_new_delete(v, path, &raw_findings);
  rule_stat_naming(scope, v, path, &raw_findings);
  rule_layering(scope, v, path, &raw_findings);
  rule_no_naked_lock(v, path, &raw_findings);
  rule_no_deprecated_api(v, path, &raw_findings);

  // Suppressions: same-line allow(), or an allow() alone on the previous
  // line (for statements too long to share a line with the comment).
  // Unknown rule ids become bad-suppression findings (never suppressible).
  std::vector<Finding> bad;
  std::vector<std::set<std::string>> allow(v.raw.size());
  for (std::size_t li = 0; li < v.raw.size(); ++li) {
    allow[li] = line_suppressions(v.raw[li], path, static_cast<int>(li + 1),
                                  &bad);
  }
  auto is_comment_only = [&](std::size_t li) {
    const std::string& code = v.code[li];
    return std::all_of(code.begin(), code.end(), [](char c) {
      return std::isspace(static_cast<unsigned char>(c)) != 0;
    });
  };

  std::vector<Finding> out;
  for (auto& f : raw_findings) {
    const std::size_t li = static_cast<std::size_t>(f.line - 1);
    bool silenced = li < allow.size() && allow[li].count(f.rule) != 0;
    if (!silenced && li > 0 && is_comment_only(li - 1) &&
        allow[li - 1].count(f.rule) != 0) {
      silenced = true;
    }
    if (silenced) {
      if (suppressed != nullptr) ++*suppressed;
    } else {
      out.push_back(std::move(f));
    }
  }
  out.insert(out.end(), bad.begin(), bad.end());
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return out;
}

LintResult lint_paths(const std::vector<std::string>& roots) {
  namespace fs = std::filesystem;
  LintResult result;

  std::vector<std::string> files;
  auto consider = [&](const fs::path& p) {
    const std::string ext = p.extension().string();
    if (ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp") {
      files.push_back(p.generic_string());
    }
  };
  for (const auto& root : roots) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (fs::recursive_directory_iterator it(root, ec), end;
           !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file(ec)) consider(it->path());
      }
    } else if (fs::is_regular_file(root, ec)) {
      consider(fs::path(root));
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  for (const auto& file : files) {
    std::ifstream in(file);
    if (!in) continue;
    std::ostringstream buf;
    buf << in.rdbuf();
    ++result.files_scanned;
    auto findings = lint_source(file, buf.str(), &result.suppressed);
    result.findings.insert(result.findings.end(),
                           std::make_move_iterator(findings.begin()),
                           std::make_move_iterator(findings.end()));
  }
  return result;
}

std::string to_text(const LintResult& result) {
  std::string out;
  for (const auto& f : result.findings) {
    out += f.file + ":" + std::to_string(f.line) + ": " + f.rule + ": " +
           f.message + "\n";
  }
  out += "ara_lint: " + std::to_string(result.findings.size()) +
         " finding(s) in " + std::to_string(result.files_scanned) +
         " file(s) scanned, " + std::to_string(result.suppressed) +
         " suppressed\n";
  return out;
}

std::string to_json(const LintResult& result) {
  std::string out = "{\"findings\":[";
  bool first = true;
  for (const auto& f : result.findings) {
    if (!first) out += ",";
    first = false;
    out += "{\"file\":\"";
    json_escape(&out, f.file);
    out += "\",\"line\":" + std::to_string(f.line) + ",\"rule\":\"";
    json_escape(&out, f.rule);
    out += "\",\"message\":\"";
    json_escape(&out, f.message);
    out += "\"}";
  }
  out += "],\"files_scanned\":" + std::to_string(result.files_scanned) +
         ",\"suppressed\":" + std::to_string(result.suppressed) + "}\n";
  return out;
}

}  // namespace ara::lint
