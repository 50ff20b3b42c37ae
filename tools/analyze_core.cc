#include "analyze_core.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <regex>
#include <sstream>
#include <utility>

namespace ara::analyze {

namespace {

// ------------------------------------------------------------------ catalog

const std::vector<RuleInfo> kRules = {
    {"bad-suppression",
     "an ara-lint allow() comment names an id that is not a per-file rule",
     true},
    {"include-cycle", "the #include graph contains a cycle"},
    {"layering",
     "#include crosses a layer boundary not in the dependency allowlist",
     true},
    {"lock-order",
     "the global mutex acquisition-order graph contains a cycle (potential "
     "static deadlock)"},
    {"no-deprecated-api",
     "references a removed API (run_point/run_sweep); use dse::run", true},
    {"no-naked-lock",
     "direct mutex .lock()/.unlock(); RAII guards (common::MutexLock) only",
     true},
    {"no-rand", "nondeterministic or non-portable randomness; use sim::Rng",
     true},
    {"no-raw-new-delete",
     "raw new/delete; own allocations through RAII types and containers",
     true},
    {"no-unordered-iter",
     "iteration over an unordered container (order feeds results/stats)",
     true},
    {"no-wall-clock",
     "host wall-clock read in simulator code outside the obs clock seam",
     true},
    {"proto-unparsed",
     "a JSON field a client/label site exposes that the serve protocol "
     "never produces or parses back"},
    {"proto-unproduced",
     "a JSON request field the serve protocol parses that no in-repo "
     "producer (client request builder, PointSpec label) ever emits"},
    {"stale-baseline",
     "a baseline entry matches no current finding; delete it"},
    {"stat-grammar",
     "a StatRegistry registration literal violates the "
     "<subsystem>.<id>.<stat> grammar"},
    {"stat-phantom",
     "the documentation names a stat that nothing in src/ emits"},
    {"stat-undocumented",
     "a stat name emitted by src/ never appears in the documentation set"},
    {"transitive-layering",
     "a file's include closure reaches a layer outside its layer's "
     "transitive allowlist"},
};

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// ----------------------------------------------------------------- lexer

bool raw_string_prefix(const std::string& ident) {
  return ident == "R" || ident == "u8R" || ident == "uR" || ident == "UR" ||
         ident == "LR";
}

char decode_escape(char c) {
  switch (c) {
    case 'n':
      return '\n';
    case 't':
      return '\t';
    case 'r':
      return '\r';
    case '0':
      return '\0';
    default:
      return c;  // \" \\ \' and everything exotic: keep the char itself
  }
}

}  // namespace

LexedSource lex(const std::string& content) {
  enum class St { kNormal, kLine, kBlock, kString, kChar, kRawString };
  St st = St::kNormal;
  std::string raw_delim;  // raw-string delimiter incl. the closing quote

  LexedSource out;
  SourceView& v = out.view;
  std::string raw, code, text;
  int line_no = 1;
  auto flush_line = [&] {
    v.raw.push_back(raw);
    v.code.push_back(code);
    v.text.push_back(text);
    raw.clear();
    code.clear();
    text.clear();
    ++line_no;
  };

  // Token accumulation. Ident/number tokens grow across line splices;
  // string/char tokens accumulate their decoded contents.
  Token cur;
  bool cur_active = false;
  auto begin_token = [&](Token::Kind kind) {
    cur = Token{kind, "", line_no};
    cur_active = true;
  };
  auto end_token = [&] {
    if (cur_active) out.tokens.push_back(cur);
    cur_active = false;
  };
  auto punct = [&](const std::string& p) {
    out.tokens.push_back(Token{Token::Kind::kPunct, p, line_no});
  };

  const std::size_t n = content.size();
  for (std::size_t i = 0; i < n; ++i) {
    const char c = content[i];
    const char nx = i + 1 < n ? content[i + 1] : '\0';

    // Backslash-newline line splice: the logical line (and the current
    // lexical state) continues on the next physical line. Raw strings are
    // the one context where the splice is literal text.
    if (st != St::kRawString && c == '\\' &&
        (nx == '\n' || (nx == '\r' && i + 2 < n && content[i + 2] == '\n'))) {
      raw += c;
      if (st == St::kString || st == St::kChar) {
        text += c;  // literal view keeps the continuation marker
        code += ' ';
      } else {
        code += ' ';
        text += ' ';
      }
      if (nx == '\r') ++i;  // swallow the CR of a CRLF splice
      ++i;                  // swallow the newline; state persists
      flush_line();
      continue;
    }

    if (c == '\n') {
      // Ordinary string/char literals cannot span lines; recover instead
      // of poisoning the rest of the file on malformed input.
      if (st == St::kLine || st == St::kString || st == St::kChar) {
        if (st == St::kString || st == St::kChar) end_token();
        st = St::kNormal;
      }
      if (st == St::kNormal) end_token();
      flush_line();
      continue;
    }
    raw += c;

    switch (st) {
      case St::kNormal:
        if (c == '/' && nx == '/') {
          end_token();
          st = St::kLine;
          code += ' ';
          text += ' ';
        } else if (c == '/' && nx == '*') {
          end_token();
          st = St::kBlock;
          raw += nx;
          code += "  ";
          text += "  ";
          ++i;
        } else if (c == '"') {
          // R"delim( ... )delim" with any encoding prefix. The prefix, if
          // present, is the identifier token currently being accumulated.
          if (cur_active && cur.kind == Token::Kind::kIdent &&
              raw_string_prefix(cur.text)) {
            cur_active = false;  // the prefix is part of the literal
            raw_delim = ")";
            std::size_t j = i + 1;
            while (j < n && content[j] != '(' && content[j] != '\n') {
              raw_delim += content[j];
              raw += content[j];
              code += ' ';
              text += content[j];
              ++j;
            }
            if (j < n && content[j] == '(') {
              raw += '(';
              code += ' ';
              text += '(';
              i = j;
              raw_delim += '"';
              st = St::kRawString;
              code += '"';  // keep the structural quote in the code view
              begin_token(Token::Kind::kString);
            } else {
              i = j - 1;  // malformed; fall back to normal scanning
            }
          } else {
            end_token();
            st = St::kString;
            code += '"';
            text += '"';
            begin_token(Token::Kind::kString);
          }
        } else if (c == '\'' && cur_active &&
                   cur.kind == Token::Kind::kNumber) {
          code += c;  // digit separator, e.g. 1'000'000
          text += c;
          cur.text += c;
        } else if (c == '\'') {
          end_token();
          st = St::kChar;
          code += '\'';
          text += '\'';
          begin_token(Token::Kind::kChar);
        } else if (ident_char(c)) {
          const bool digit = std::isdigit(static_cast<unsigned char>(c)) != 0;
          if (!cur_active) {
            begin_token(digit ? Token::Kind::kNumber : Token::Kind::kIdent);
          }
          cur.text += c;
          code += c;
          text += c;
        } else {
          end_token();
          code += c;
          text += c;
          if (!std::isspace(static_cast<unsigned char>(c))) {
            // Combine the two-char puncts analyses care about.
            if ((c == ':' && nx == ':') || (c == '-' && nx == '>')) {
              raw += nx;
              code += nx;
              text += nx;
              punct(std::string(1, c) + nx);
              ++i;
            } else {
              punct(std::string(1, c));
            }
          }
        }
        break;
      case St::kLine:
        code += ' ';
        text += ' ';
        break;
      case St::kBlock:
        if (c == '*' && nx == '/') {
          raw += nx;
          code += "  ";
          text += "  ";
          ++i;
          st = St::kNormal;
        } else {
          code += ' ';
          text += ' ';
        }
        break;
      case St::kString:
      case St::kChar: {
        const char quote = st == St::kString ? '"' : '\'';
        if (c == '\\' && nx != '\0' && nx != '\n') {
          raw += nx;
          code += "  ";
          text += c;
          text += nx;
          if (cur_active) cur.text += decode_escape(nx);
          ++i;
        } else if (c == quote) {
          code += quote;
          text += quote;
          end_token();
          st = St::kNormal;
        } else {
          code += ' ';
          text += c;
          if (cur_active) cur.text += c;
        }
        break;
      }
      case St::kRawString:
        if (c == ')' && content.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t k = 1; k < raw_delim.size(); ++k) {
            raw += content[i + k];
            text += content[i + k];
          }
          code += '"';
          i += raw_delim.size() - 1;
          end_token();
          st = St::kNormal;
        } else {
          code += ' ';
          text += c;
          if (cur_active) cur.text += c;
        }
        break;
    }
  }
  if (st == St::kNormal || st == St::kString || st == St::kChar ||
      st == St::kRawString) {
    end_token();
  }
  if (!raw.empty() || !code.empty()) flush_line();
  return out;
}

// -------------------------------------------------------- layering model

namespace {

std::vector<std::string> split_path(const std::string& path) {
  std::vector<std::string> parts;
  std::string cur;
  for (const char c : path) {
    if (c == '/' || c == '\\') {
      if (!cur.empty()) parts.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) parts.push_back(cur);
  return parts;
}

/// The known src/<layer>/ directory names.
const std::set<std::string>& known_layers() {
  static const std::set<std::string> layers = {
      "abb",  "abc",  "check", "cmp",   "common", "core",      "dataflow",
      "dse",  "island", "mem", "noc",   "obs",    "power",     "serve",
      "sim",  "workloads"};
  return layers;
}

/// Layer dependency allowlist: src/<key>/ may #include "dep/..." for
/// every dep in its set (plus itself and std headers). This is the
/// project's architecture, frozen: adding an edge is a deliberate
/// one-line amendment reviewed together with DESIGN.md "Static analysis".
const std::map<std::string, std::set<std::string>>& layer_deps() {
  static const std::map<std::string, std::set<std::string>> deps = {
      {"common", {}},
      {"sim", {"common"}},
      {"obs", {"common", "sim"}},
      {"noc", {"common", "sim"}},
      {"mem", {"common", "sim", "noc"}},
      {"abb", {"common", "sim"}},
      {"dataflow", {"common", "sim", "abb"}},
      {"workloads", {"common", "sim", "abb", "dataflow"}},
      {"island", {"common", "sim", "noc", "mem", "abb", "power"}},
      {"power", {"common", "sim", "noc", "mem", "abb", "island", "abc",
                 "core"}},
      {"abc", {"common", "sim", "noc", "mem", "abb", "dataflow", "island"}},
      {"cmp", {"common", "sim", "workloads"}},
      {"core", {"common", "sim", "noc", "mem", "island", "abc", "power",
                "workloads", "check"}},
      {"check", {"common", "sim", "core", "dse", "obs", "workloads"}},
      {"dse", {"common", "sim", "core", "island", "noc", "obs", "workloads"}},
      {"serve", {"common", "sim", "core", "obs", "dse", "workloads"}},
  };
  return deps;
}

/// The layer a path belongs to ("" when not under a src/<layer>/ tree).
/// The last src/<layer> match wins so fixture trees nest correctly.
std::string layer_of(const std::string& path) {
  std::string layer;
  const auto parts = split_path(path);
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    if (parts[i] == "src" && known_layers().count(parts[i + 1]) != 0) {
      layer = parts[i + 1];  // last match wins (fixture trees nest one)
    }
  }
  return layer;
}

/// True when `path`'s trailing components equal `parts` (e.g.
/// {"src","obs","clock.cc"}) — how file-scoped exemptions match both the
/// real tree and fixture corpora.
bool path_ends_with(const std::string& path,
                    const std::vector<std::string>& parts) {
  const auto p = split_path(path);
  if (p.size() < parts.size()) return false;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (p[p.size() - parts.size() + i] != parts[i]) return false;
  }
  return true;
}

/// Path suffix starting at the last src/tools/bench/examples component —
/// identical for a real checkout and a fixture tree, so baseline keys and
/// finding messages never embed absolute paths.
std::string rel_key(const std::string& path) {
  static const std::set<std::string> roots = {"src", "tools", "bench",
                                              "examples"};
  const auto parts = split_path(path);
  std::size_t start = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (roots.count(parts[i]) != 0) start = i;
  }
  std::string out;
  for (std::size_t i = start; i < parts.size(); ++i) {
    if (!out.empty()) out += "/";
    out += parts[i];
  }
  return out;
}

}  // namespace

// --------------------------------------------------------------- corpus

void add_source(Corpus* corpus, const std::string& path,
                const std::string& content) {
  SourceFile f;
  f.path = path;
  f.layer = layer_of(path);
  f.lexed = lex(content);
  static const std::regex kInclude(R"(^\s*#\s*include\s*"([^"]+)\")");
  for (std::size_t li = 0; li < f.lexed.view.text.size(); ++li) {
    std::smatch m;
    if (std::regex_search(f.lexed.view.text[li], m, kInclude)) {
      f.includes.emplace_back(m[1].str(), static_cast<int>(li + 1));
    }
  }
  corpus->files.push_back(std::move(f));
}

Corpus load_corpus(const std::vector<std::string>& roots,
                   const std::vector<std::string>& doc_paths) {
  namespace fs = std::filesystem;
  Corpus corpus;

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
    add_source(&corpus, file, buf.str());
  }
  for (const auto& doc : doc_paths) {
    std::ifstream in(doc);
    if (!in) continue;
    std::ostringstream buf;
    buf << in.rdbuf();
    corpus.docs.push_back({doc, buf.str()});
  }
  return corpus;
}

// -------------------------------------------------------- per-file rules

namespace {

/// The ids an allow() comment may name.
bool per_file_rule(const std::string& id) {
  for (const auto& r : kRules) {
    if (r.id == id) return r.per_file;
  }
  return false;
}

/// Appends a per-file finding for 0-based line `li`. It carries no
/// baseline key: only an allow() comment can silence it.
void report(const SourceFile& f, std::size_t li, const char* rule,
            std::string message, std::vector<Finding>* out) {
  out->push_back(
      {f.path, static_cast<int>(li + 1), rule, "", std::move(message)});
}

/// Call `fn(line_index, column)` for every whole-word occurrence of
/// `word`.
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

void rule_no_rand(const SourceFile& f, std::vector<Finding>* out) {
  static const char* const kBanned[] = {
      "rand",          "srand",       "drand48",
      "lrand48",       "random_device", "mt19937",
      "mt19937_64",    "minstd_rand", "default_random_engine",
      "random_shuffle", "uniform_int_distribution",
      "uniform_real_distribution"};
  for (const char* word : kBanned) {
    for_each_word(f.lexed.view.code, word, [&](std::size_t li, std::size_t) {
      report(f, li, "no-rand",
             std::string("'") + word +
                 "' is a banned nondeterminism source; use sim::Rng "
                 "(portable xoshiro256**, seeded per stream)",
             out);
    });
  }
}

void rule_no_wall_clock(const SourceFile& f, std::vector<Finding>* out) {
  // obs::MonotonicClock::host() in src/obs/clock.cc is the one sanctioned
  // wall-clock site. Everything else that wants real time takes a
  // MonotonicClock& (tests inject obs::FakeClock), so the exemption is a
  // single path rather than allow() comments scattered through the
  // telemetry layer. Matched on the trailing components so fixture trees
  // (tests/lint_fixtures/src/obs/clock.cc) exercise the same exemption.
  if (path_ends_with(f.path, {"src", "obs", "clock.cc"})) return;
  const std::vector<std::string>& code = f.lexed.view.code;
  static const char* const kBanned[] = {
      "system_clock", "steady_clock",  "high_resolution_clock",
      "gettimeofday", "clock_gettime", "localtime",
      "gmtime",       "timespec_get"};
  auto flag = [&](std::size_t li, const std::string& what) {
    report(f, li, "no-wall-clock",
           "'" + what +
               "' reads host wall-clock in simulator code; simulated time "
               "comes from Simulator::now() and real-time telemetry from "
               "obs::MonotonicClock (src/obs/clock.cc is the sole exempt "
               "site). Other sanctioned sites carry an explicit ara-lint "
               "allow comment",
           out);
  };
  for (const char* word : kBanned) {
    for_each_word(code, word,
                  [&](std::size_t li, std::size_t) { flag(li, word); });
  }
  // Bare time(...) / clock(...) calls: flag only non-member uses so a
  // method named time() on a simulator type stays legal.
  for (const char* word : {"time", "clock"}) {
    for_each_word(code, word, [&](std::size_t li, std::size_t pos) {
      const std::string& s = code[li];
      if (next_nonspace(s, pos + std::string(word).size()) != '(') return;
      const char before = pos == 0 ? '\0' : s[pos - 1];
      if (before == '.' || before == '>') return;  // member call
      flag(li, word);
    });
  }
}

void rule_no_unordered_iter(const SourceFile& f, std::vector<Finding>* out) {
  const std::vector<std::string>& code = f.lexed.view.code;
  // Pass 1: names declared with an unordered container type in this file.
  std::set<std::string> names;
  static const std::regex kDecl(
      R"(unordered_(?:map|set|multimap|multiset)\s*<)");
  for (const auto& line : code) {
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
  for (std::size_t li = 0; li < code.size(); ++li) {
    const std::string& line = code[li];
    auto flag = [&](const std::string& name) {
      report(f, li, "no-unordered-iter",
             "iterating unordered container '" + name +
                 "': bucket order is implementation-defined, so anything "
                 "derived from it (stats, exports, scheduling) loses "
                 "determinism. Iterate a sorted copy or use std::map",
             out);
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

void rule_no_raw_new_delete(const SourceFile& f, std::vector<Finding>* out) {
  const std::vector<std::string>& code = f.lexed.view.code;
  for_each_word(code, "new", [&](std::size_t li, std::size_t pos) {
    const std::string& s = code[li];
    if (next_nonspace(s, 0) == '#') return;  // #include <new> etc.
    // `operator new` overloads declare the allocator itself.
    if (pos >= 9 && s.compare(pos - 9, 8, "operator") == 0) return;
    report(f, li, "no-raw-new-delete",
           "raw 'new'; own allocations through RAII types "
           "(std::make_unique) or value containers",
           out);
  });
  for_each_word(code, "delete", [&](std::size_t li, std::size_t pos) {
    const std::string& s = code[li];
    if (next_nonspace(s, 0) == '#') return;
    if (prev_nonspace(s, pos) == '=') return;  // = delete; (deleted member)
    if (pos >= 9 && s.compare(pos - 9, 8, "operator") == 0) return;
    report(f, li, "no-raw-new-delete",
           "raw 'delete'; pair every allocation with RAII ownership instead",
           out);
  });
}

void rule_layering(const SourceFile& f, std::vector<Finding>* out) {
  const auto deps_it = layer_deps().find(f.layer);
  if (deps_it == layer_deps().end()) return;
  for (const auto& [inc, line] : f.includes) {
    const std::size_t slash = inc.find('/');
    if (slash == std::string::npos) continue;
    const std::string target = inc.substr(0, slash);
    if (target == f.layer || known_layers().count(target) == 0) continue;
    if (deps_it->second.count(target) != 0) continue;
    report(f, static_cast<std::size_t>(line - 1), "layering",
           "src/" + f.layer + "/ must not include \"" + target +
               "/...\": the edge is outside the layer dependency allowlist "
               "(tools/analyze_core.cc layer_deps; amend it deliberately or "
               "invert the dependency)",
           out);
  }
}

void rule_no_naked_lock(const SourceFile& f, std::vector<Finding>* out) {
  static const std::regex kLock(
      R"((?:\.|->)\s*((?:try_)?(?:un)?lock)\s*\()");
  const std::vector<std::string>& code = f.lexed.view.code;
  for (std::size_t li = 0; li < code.size(); ++li) {
    const std::string& line = code[li];
    for (std::sregex_iterator it(line.begin(), line.end(), kLock), end;
         it != end; ++it) {
      report(f, li, "no-naked-lock",
             "naked ." + (*it)[1].str() +
                 "() call; take mutexes through an RAII guard "
                 "(common::MutexLock) so no exit path leaks the lock",
             out);
    }
  }
}

void rule_no_deprecated_api(const SourceFile& f, std::vector<Finding>* out) {
  for (const char* word : {"run_point", "run_sweep"}) {
    for_each_word(f.lexed.view.code, word, [&](std::size_t li, std::size_t) {
      report(f, li, "no-deprecated-api",
             std::string("'") + word +
                 "' was removed in favour of dse::run(SweepRequest) — see "
                 "DESIGN.md \"SweepRequest migration\"",
             out);
    });
  }
}

/// Rule ids allowed on raw line `li` by allow() markers — e.g.
/// "// ara-lint: allow(no-rand, layering)". An id that names no per-file
/// rule is reported through `out` as a bad-suppression finding.
std::set<std::string> line_suppressions(const SourceFile& f, std::size_t li,
                                        std::vector<Finding>* out) {
  // Built by concatenation so this file never carries the marker itself.
  static const std::string kMarker = std::string("ara-lint") + ":";
  static const std::string kAllow = std::string("allow") + "(";
  const std::string& raw = f.lexed.view.raw[li];
  std::set<std::string> ids;
  std::size_t pos = raw.find(kMarker);
  while (pos != std::string::npos) {
    std::size_t open = raw.find(kAllow, pos);
    if (open == std::string::npos) break;
    open += kAllow.size();
    const std::size_t close = raw.find(')', open);
    if (close == std::string::npos) break;
    std::string id;
    for (std::size_t i = open; i <= close; ++i) {
      const char c = raw[i];
      if (c == ',' || c == ')') {
        if (!id.empty()) {
          if (per_file_rule(id)) {
            ids.insert(id);
          } else {
            report(f, li, "bad-suppression",
                   "suppression names unknown rule '" + id + "'", out);
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

/// Run every per-file rule over `f`. A finding is silenced (and counted
/// in `suppressed`) by an allow() for its rule on the same line, or on a
/// comment-only line directly above; the rest go to `out`, together with
/// the bad-suppression findings, which nothing silences.
void check_file(const SourceFile& f, std::vector<Finding>* out,
                std::size_t* suppressed) {
  std::vector<Finding> found;
  if (!f.layer.empty()) {  // simulator code under src/<layer>/
    rule_no_rand(f, &found);
    rule_no_wall_clock(f, &found);
    rule_no_unordered_iter(f, &found);
    rule_layering(f, &found);
  }
  rule_no_raw_new_delete(f, &found);
  rule_no_naked_lock(f, &found);
  rule_no_deprecated_api(f, &found);

  const SourceView& v = f.lexed.view;
  std::vector<std::set<std::string>> allow(v.raw.size());
  for (std::size_t li = 0; li < v.raw.size(); ++li) {
    allow[li] = line_suppressions(f, li, out);
  }
  auto comment_only = [&](std::size_t li) {
    return std::all_of(v.code[li].begin(), v.code[li].end(), [](char c) {
      return std::isspace(static_cast<unsigned char>(c)) != 0;
    });
  };
  for (Finding& finding : found) {
    const std::size_t li = static_cast<std::size_t>(finding.line - 1);
    const bool silenced =
        allow[li].count(finding.rule) != 0 ||
        (li > 0 && comment_only(li - 1) &&
         allow[li - 1].count(finding.rule) != 0);
    if (silenced) {
      ++*suppressed;
    } else {
      out->push_back(std::move(finding));
    }
  }
}

}  // namespace

// ------------------------------------------------------ include analysis

namespace {

/// file index -> [(target file index, include line)]
using IncludeGraph = std::vector<std::vector<std::pair<std::size_t, int>>>;

IncludeGraph build_include_graph(const Corpus& corpus) {
  IncludeGraph g(corpus.files.size());
  for (std::size_t i = 0; i < corpus.files.size(); ++i) {
    const SourceFile& f = corpus.files[i];
    for (const auto& [inc, line] : f.includes) {
      // Resolve the quoted path against the corpus by suffix; prefer the
      // candidate sharing the longest path prefix with the includer (so
      // fixture trees resolve within themselves).
      std::size_t best = corpus.files.size();
      std::size_t best_common = 0;
      for (std::size_t j = 0; j < corpus.files.size(); ++j) {
        if (j == i) continue;
        const std::string& p = corpus.files[j].path;
        const std::string suffix = "/" + inc;
        const bool match =
            p == inc ||
            (p.size() > suffix.size() &&
             p.compare(p.size() - suffix.size(), suffix.size(), suffix) == 0);
        if (!match) continue;
        std::size_t common = 0;
        while (common < p.size() && common < f.path.size() &&
               p[common] == f.path[common]) {
          ++common;
        }
        if (best == corpus.files.size() || common > best_common) {
          best = j;
          best_common = common;
        }
      }
      if (best < corpus.files.size()) g[i].emplace_back(best, line);
    }
  }
  return g;
}

/// Tarjan strongly-connected components over the include graph.
std::vector<std::vector<std::size_t>> sccs(const IncludeGraph& g) {
  const std::size_t n = g.size();
  std::vector<int> index(n, -1), low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<std::size_t> stack;
  std::vector<std::vector<std::size_t>> out;
  int next = 0;

  // Iterative Tarjan (explicit frame stack; fixture cycles are tiny but
  // the real tree is ~200 nodes deep in places).
  struct Frame {
    std::size_t v;
    std::size_t edge = 0;
  };
  for (std::size_t root = 0; root < n; ++root) {
    if (index[root] != -1) continue;
    std::vector<Frame> frames{{root}};
    index[root] = low[root] = next++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!frames.empty()) {
      Frame& fr = frames.back();
      if (fr.edge < g[fr.v].size()) {
        const std::size_t w = g[fr.v][fr.edge].first;
        ++fr.edge;
        if (index[w] == -1) {
          index[w] = low[w] = next++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back({w});
        } else if (on_stack[w]) {
          low[fr.v] = std::min(low[fr.v], index[w]);
        }
      } else {
        if (low[fr.v] == index[fr.v]) {
          std::vector<std::size_t> comp;
          while (true) {
            const std::size_t w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            comp.push_back(w);
            if (w == fr.v) break;
          }
          if (comp.size() > 1) out.push_back(std::move(comp));
        }
        const std::size_t done = fr.v;
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().v] = std::min(low[frames.back().v], low[done]);
        }
      }
    }
  }
  return out;
}

/// Transitive closure of the layer allowlist: every layer legally
/// reachable from `layer` through any chain of allowed direct edges.
std::set<std::string> layer_closure(const std::string& layer) {
  std::set<std::string> out;
  std::vector<std::string> work{layer};
  while (!work.empty()) {
    const std::string l = work.back();
    work.pop_back();
    const auto it = layer_deps().find(l);
    if (it == layer_deps().end()) continue;
    for (const auto& dep : it->second) {
      if (out.insert(dep).second) work.push_back(dep);
    }
  }
  return out;
}

}  // namespace

void analyze_includes(const Corpus& corpus, std::vector<Finding>* out) {
  const IncludeGraph g = build_include_graph(corpus);

  // 1. Include cycles: one finding per non-trivial SCC.
  for (const auto& comp : sccs(g)) {
    std::vector<std::string> members;
    for (const std::size_t idx : comp) {
      members.push_back(rel_key(corpus.files[idx].path));
    }
    std::sort(members.begin(), members.end());
    std::string joined;
    for (const auto& m : members) {
      if (!joined.empty()) joined += " <-> ";
      joined += m;
    }
    const std::size_t anchor =
        *std::min_element(comp.begin(), comp.end(),
                          [&](std::size_t a, std::size_t b) {
                            return corpus.files[a].path < corpus.files[b].path;
                          });
    int line = 1;
    for (const auto& [tgt, l] : g[anchor]) {
      if (std::find(comp.begin(), comp.end(), tgt) != comp.end()) {
        line = l;
        break;
      }
    }
    out->push_back({corpus.files[anchor].path, line, "include-cycle",
                    "include-cycle:" + joined,
                    "#include cycle: " + joined +
                        " — headers must form a DAG; break the cycle with a "
                        "forward declaration or by splitting the header"});
  }

  // 2. Transitive layering: the include *closure* of every layered file
  // must stay inside its layer's transitive allowlist. Per-edge legality
  // is the per-file layering rule's job; this catches paths through
  // unlayered intermediates (tools/, bench/).
  std::map<std::string, std::set<std::string>> closures;
  for (std::size_t i = 0; i < corpus.files.size(); ++i) {
    const SourceFile& f = corpus.files[i];
    if (f.layer.empty()) continue;
    auto cit = closures.find(f.layer);
    if (cit == closures.end()) {
      cit = closures.emplace(f.layer, layer_closure(f.layer)).first;
    }
    std::set<std::string> allowed = cit->second;
    allowed.insert(f.layer);

    // BFS with parents for chain reconstruction.
    std::vector<std::size_t> parent(corpus.files.size(), corpus.files.size());
    std::vector<bool> seen(corpus.files.size(), false);
    std::vector<std::size_t> queue{i};
    seen[i] = true;
    std::set<std::string> reported;  // one finding per (file, layer)
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      const std::size_t u = queue[qi];
      for (const auto& [w, line] : g[u]) {
        (void)line;
        if (seen[w]) continue;
        seen[w] = true;
        parent[w] = u;
        queue.push_back(w);
        const std::string& target_layer = corpus.files[w].layer;
        if (target_layer.empty() || allowed.count(target_layer) != 0 ||
            !reported.insert(target_layer).second) {
          continue;
        }
        // Reconstruct the include chain i -> ... -> w.
        std::vector<std::size_t> chain{w};
        for (std::size_t p = u; p != corpus.files.size() && chain.back() != i;
             p = parent[p]) {
          chain.push_back(p);
          if (p == i) break;
        }
        std::reverse(chain.begin(), chain.end());
        std::string via;
        for (const std::size_t idx : chain) {
          if (!via.empty()) via += " -> ";
          via += rel_key(corpus.files[idx].path);
        }
        int first_line = 1;
        if (chain.size() > 1) {
          for (const auto& [tgt, l] : g[i]) {
            if (tgt == chain[1]) {
              first_line = l;
              break;
            }
          }
        }
        out->push_back(
            {f.path, first_line, "transitive-layering",
             "transitive-layering:" + rel_key(f.path) + ":" + target_layer,
             "src/" + f.layer + "/ transitively reaches src/" + target_layer +
                 "/ (outside its layer closure) via " + via +
                 "; every include path must stay inside the layer_deps() "
                 "closure (tools/analyze_core.cc)"});
      }
    }
  }
}

// --------------------------------------------------- lock-order analysis

namespace {

struct LockEdge {
  std::string file;
  int line = 0;
};

bool guard_type(const std::string& ident) {
  return ident == "MutexLock" || ident == "lock_guard" ||
         ident == "unique_lock" || ident == "scoped_lock";
}

const std::set<std::string>& control_keywords() {
  static const std::set<std::string> kw = {
      "if",     "for",    "while",    "switch",        "catch",
      "return", "sizeof", "alignof",  "decltype",      "static_assert",
      "new",    "delete", "noexcept", "static_cast",   "dynamic_cast",
      "assert", "throw",  "co_await", "reinterpret_cast"};
  return kw;
}

std::string file_stem(const std::string& path) {
  const auto parts = split_path(path);
  std::string stem = parts.empty() ? path : parts.back();
  const std::size_t dot = stem.find_last_of('.');
  if (dot != std::string::npos) stem = stem.substr(0, dot);
  return stem;
}

}  // namespace

void analyze_lock_order(const Corpus& corpus, std::vector<Finding>* out) {
  // mutex-key -> mutex-key -> first acquisition site producing that edge.
  std::map<std::string, std::map<std::string, LockEdge>> edges;

  for (const SourceFile& f : corpus.files) {
    const std::vector<Token>& toks = f.lexed.tokens;
    const std::string stem = file_stem(f.path);

    int depth = 0;
    bool in_fn = false;
    int fn_entry = 0;
    std::string fn_class;
    bool pending_fn = false;
    std::string pending_class;
    struct Guard {
      std::string key;
      int depth;
    };
    std::vector<Guard> held;

    auto is_punct = [&](std::size_t i, const char* p) {
      return i < toks.size() && toks[i].kind == Token::Kind::kPunct &&
             toks[i].text == p;
    };
    auto is_ident = [&](std::size_t i) {
      return i < toks.size() && toks[i].kind == Token::Kind::kIdent;
    };

    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind == Token::Kind::kPunct) {
        if (t.text == "{") {
          ++depth;
          if (pending_fn) {
            in_fn = true;
            fn_entry = depth;
            fn_class = pending_class;
            pending_fn = false;
            held.clear();
          }
        } else if (t.text == "}") {
          --depth;
          while (!held.empty() && held.back().depth > depth) held.pop_back();
          if (in_fn && depth < fn_entry) {
            in_fn = false;
            held.clear();
          }
        } else if (t.text == ";" && pending_fn) {
          pending_fn = false;  // declaration, not a definition
        }
        continue;
      }

      // Function-definition heuristic: <Class>::<name>(...) followed
      // (after trailing qualifiers / member initializers) by '{'.
      if (!in_fn && !pending_fn && is_ident(i) && is_punct(i + 1, "(") &&
          control_keywords().count(t.text) == 0) {
        std::string cls;
        if (i >= 2 && is_punct(i - 1, "::") && is_ident(i - 2)) {
          cls = toks[i - 2].text;
        }
        // Skip the parameter list.
        std::size_t j = i + 1;
        int pdepth = 0;
        for (; j < toks.size(); ++j) {
          if (toks[j].kind != Token::Kind::kPunct) continue;
          if (toks[j].text == "(") ++pdepth;
          if (toks[j].text == ")" && --pdepth == 0) break;
        }
        pending_fn = j < toks.size();
        pending_class = cls.empty() ? stem : cls;
        // pending_fn is confirmed by the next '{' and cancelled by ';'.
        continue;
      }

      // Guard acquisition: [common:: / std::] <GuardType> [<...>]
      // [name] ( expr [, expr]* )
      if (in_fn && t.kind == Token::Kind::kIdent && guard_type(t.text)) {
        std::size_t j = i + 1;
        if (is_punct(j, "<")) {  // lock_guard<std::mutex> ...
          int adepth = 0;
          for (; j < toks.size(); ++j) {
            if (toks[j].kind != Token::Kind::kPunct) continue;
            if (toks[j].text == "<") ++adepth;
            if (toks[j].text == ">" && --adepth == 0) {
              ++j;
              break;
            }
          }
        }
        if (is_ident(j)) ++j;  // the guard variable name (absent: temporary)
        if (!is_punct(j, "(")) continue;
        // Collect the top-level comma-separated argument expressions and
        // take the last identifier of each as the mutex name.
        std::vector<std::string> mutexes;
        std::string last_ident;
        int adepth = 1;
        int site_line = toks[j].line;
        for (++j; j < toks.size() && adepth > 0; ++j) {
          const Token& a = toks[j];
          if (a.kind == Token::Kind::kPunct) {
            if (a.text == "(" || a.text == "[" || a.text == "{") ++adepth;
            if (a.text == ")" || a.text == "]" || a.text == "}") --adepth;
            if ((a.text == "," && adepth == 1) || adepth == 0) {
              if (!last_ident.empty()) mutexes.push_back(last_ident);
              last_ident.clear();
            }
          } else if (a.kind == Token::Kind::kIdent) {
            last_ident = a.text;
          }
        }
        for (const std::string& name : mutexes) {
          const std::string key = fn_class + "::" + name;
          for (const Guard& h : held) {
            if (h.key == key) continue;
            auto& slot = edges[h.key][key];
            if (slot.file.empty()) slot = {f.path, site_line};
          }
          held.push_back({key, depth});
        }
      }
    }
  }

  // Cycle detection over the acquisition-order graph (DFS, since the
  // graph is keyed by strings and tiny).
  std::vector<std::string> nodes;
  for (const auto& [from, tos] : edges) {
    nodes.push_back(from);
    for (const auto& [to, site] : tos) {
      (void)site;
      nodes.push_back(to);
    }
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());

  std::set<std::string> reported;
  std::function<bool(const std::string&, std::vector<std::string>*)> dfs =
      [&](const std::string& node, std::vector<std::string>* path) -> bool {
    const auto cyc =
        std::find(path->begin(), path->end(), node);
    if (cyc != path->end()) {
      // Canonicalize: rotate so the smallest key leads, dedupe.
      std::vector<std::string> cycle(cyc, path->end());
      const auto smallest = std::min_element(cycle.begin(), cycle.end());
      std::rotate(cycle.begin(), smallest, cycle.end());
      std::string joined;
      for (const auto& n : cycle) {
        if (!joined.empty()) joined += " -> ";
        joined += n;
      }
      joined += " -> " + cycle.front();
      if (reported.insert(joined).second) {
        const LockEdge& site = edges[cycle.front()].begin()->second;
        std::string sites;
        for (std::size_t k = 0; k < cycle.size(); ++k) {
          const std::string& a = cycle[k];
          const std::string& b = cycle[(k + 1) % cycle.size()];
          const LockEdge& e = edges[a][b];
          sites += "\n    " + a + " held while taking " + b + " at " +
                   rel_key(e.file) + ":" + std::to_string(e.line);
        }
        out->push_back(
            {site.file, site.line, "lock-order", "lock-order:" + joined,
             "potential deadlock: mutex acquisition order forms a cycle " +
                 joined + sites +
                 "\n  pick one global order and acquire in it everywhere"});
      }
      return true;
    }
    path->push_back(node);
    const auto it = edges.find(node);
    if (it != edges.end()) {
      for (const auto& [to, site] : it->second) {
        (void)site;
        dfs(to, path);
      }
    }
    path->pop_back();
    return false;
  };
  for (const auto& n : nodes) {
    std::vector<std::string> path;
    dfs(n, &path);
  }
}

// --------------------------------------------------------- stat analysis

namespace {

/// Do two '*'-wildcard patterns have a common instantiation?
bool globs_overlap_impl(const std::string& a, std::size_t i,
                        const std::string& b, std::size_t j,
                        std::vector<std::vector<signed char>>* memo) {
  signed char& m = (*memo)[i][j];
  if (m != -1) return m != 0;
  bool ok = false;
  if (i == a.size() && j == b.size()) {
    ok = true;
  } else if (i < a.size() && a[i] == '*') {
    ok = globs_overlap_impl(a, i + 1, b, j, memo) ||
         (j < b.size() && globs_overlap_impl(a, i, b, j + 1, memo));
  } else if (j < b.size() && b[j] == '*') {
    ok = globs_overlap_impl(a, i, b, j + 1, memo) ||
         (i < a.size() && globs_overlap_impl(a, i + 1, b, j, memo));
  } else if (i < a.size() && j < b.size() && a[i] == b[j]) {
    ok = globs_overlap_impl(a, i + 1, b, j + 1, memo);
  }
  m = ok ? 1 : 0;
  return ok;
}

bool globs_overlap(const std::string& a, const std::string& b) {
  std::vector<std::vector<signed char>> memo(
      a.size() + 1, std::vector<signed char>(b.size() + 1, -1));
  return globs_overlap_impl(a, 0, b, 0, &memo);
}

struct StatSite {
  std::string pattern;  // literal fragments, '*' for runtime segments
  std::string file;
  int line = 0;
};

struct DocClaim {
  std::string name;  // may contain '*' wildcards
  std::string file;
  int line = 0;
};

const std::set<std::string>& doc_ext_blacklist() {
  // Backticked dotted tokens ending in these are file names, not stats.
  static const std::set<std::string> ext = {
      "h",   "hpp",  "cc",  "cpp", "md",   "json", "jsonl", "txt",
      "cmake", "csv", "yml", "yaml", "py", "sock", "html",  "sh",
      "dev", "com",  "org", "io",  "cfg",  "clang_tidy", "gitignore"};
  return ext;
}

/// Registration call names whose first argument is a stat name.
bool stat_register_fn(const std::string& ident) {
  return ident == "counter" || ident == "accumulator" ||
         ident == "histogram" || ident == "set_counter" || ident == "gauge";
}

const std::regex& stat_full_grammar() {
  static const std::regex re(R"([a-z][a-z0-9_]*(\.[a-z0-9_]+)+)");
  return re;
}

const std::regex& stat_glob_grammar() {
  static const std::regex re(R"([a-z*][a-z0-9_.*]*(\.[a-z0-9_*]+)*)");
  return re;
}

/// Harvest the name expression of one registration call starting at the
/// token after its '('. Returns the glob pattern ("" when the first
/// argument carries no string literal at all).
std::string harvest_name_expr(const std::vector<Token>& toks,
                              std::size_t start, int* line) {
  std::string pattern;
  bool any_string = false;
  int depth = 1;
  int string_depth = -1;
  for (std::size_t j = start; j < toks.size() && depth > 0; ++j) {
    const Token& a = toks[j];
    if (a.kind == Token::Kind::kPunct) {
      if (a.text == "(" || a.text == "[" || a.text == "{") ++depth;
      if (a.text == ")" || a.text == "]" || a.text == "}") --depth;
      if (a.text == "," && depth == (string_depth == -1 ? 1 : string_depth)) {
        break;  // end of the name argument
      }
      continue;
    }
    if (a.kind == Token::Kind::kString) {
      if (!any_string) {
        *line = a.line;
        string_depth = depth;
      }
      any_string = true;
      pattern += a.text;
    } else {
      // Runtime segment (variable, std::to_string(...), ...).
      if (pattern.empty() || pattern.back() != '*') pattern += '*';
    }
  }
  return any_string ? pattern : "";
}

std::vector<StatSite> harvest_stats(const Corpus& corpus,
                                    std::vector<Finding>* grammar_out) {
  std::vector<StatSite> sites;
  for (const SourceFile& f : corpus.files) {
    if (f.layer.empty()) continue;  // registrations live in src/ layers
    const std::vector<Token>& toks = f.lexed.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != Token::Kind::kIdent) continue;
      if (toks[i + 1].kind != Token::Kind::kPunct ||
          toks[i + 1].text != "(") {
        continue;
      }
      const bool reg = stat_register_fn(toks[i].text);
      const bool push = toks[i].text == "push_back";
      if (!reg && !push) continue;
      int line = toks[i].line;
      const std::string pattern = harvest_name_expr(toks, i + 2, &line);
      if (pattern.empty()) continue;
      const bool is_glob = pattern.find('*') != std::string::npos;
      const bool well_formed =
          is_glob ? std::regex_match(pattern, stat_glob_grammar())
                  : std::regex_match(pattern, stat_full_grammar());
      if (push) {
        // push_back({"...", v}) is only a stat site when the literal
        // already reads as a stat name (snapshot counter pushes); other
        // vectors of labeled things are none of our business.
        if (well_formed) sites.push_back({pattern, f.path, line});
        continue;
      }
      if (!well_formed && grammar_out != nullptr) {
        grammar_out->push_back(
            {f.path, line, "stat-grammar", "stat-grammar:" + pattern,
             "stat registration \"" + pattern +
                 "\" must follow <subsystem>.<id>.<stat> (lowercase "
                 "dot-separated segments, e.g. \"noc.router.3.flits\")"});
        continue;
      }
      sites.push_back({pattern, f.path, line});
    }
  }
  return sites;
}

std::vector<DocClaim> harvest_doc_claims(const Corpus& corpus) {
  std::vector<DocClaim> claims;
  static const std::regex kClaim(R"([a-z][a-z0-9_*]*(\.[a-z0-9_*]+)+)");
  for (const DocFile& doc : corpus.docs) {
    std::istringstream in(doc.content);
    std::string line;
    int line_no = 0;
    bool fenced = false;
    while (std::getline(in, line)) {
      ++line_no;
      if (line.find("```") != std::string::npos) {
        fenced = !fenced;
        continue;
      }
      if (fenced) continue;
      // Inline `span` extraction; the whole span must be a stat name.
      std::size_t pos = 0;
      while ((pos = line.find('`', pos)) != std::string::npos) {
        const std::size_t end = line.find('`', pos + 1);
        if (end == std::string::npos) break;
        const std::string span = line.substr(pos + 1, end - pos - 1);
        pos = end + 1;
        if (!std::regex_match(span, kClaim)) continue;
        const std::size_t last_dot = span.find_last_of('.');
        const std::string last_seg = span.substr(last_dot + 1);
        if (doc_ext_blacklist().count(last_seg) != 0) continue;
        claims.push_back({span, doc.path, line_no});
      }
    }
  }
  return claims;
}

}  // namespace

void analyze_stats(const Corpus& corpus, std::vector<Finding>* out) {
  std::vector<StatSite> sites = harvest_stats(corpus, out);
  const std::vector<DocClaim> claims = harvest_doc_claims(corpus);
  if (corpus.docs.empty()) return;  // grammar-only mode (unit tests)

  // Emitted but never documented. One finding per distinct pattern.
  std::set<std::string> seen_patterns;
  for (const StatSite& s : sites) {
    if (!seen_patterns.insert(s.pattern).second) continue;
    bool documented = false;
    for (const DocClaim& c : claims) {
      if (globs_overlap(s.pattern, c.name)) {
        documented = true;
        break;
      }
    }
    if (!documented) {
      out->push_back(
          {s.file, s.line, "stat-undocumented",
           "stat-undocumented:" + s.pattern,
           "stat \"" + s.pattern +
               "\" is emitted here but never documented; add it to the "
               "stat inventory (DESIGN.md \"Observability\") or remove the "
               "registration"});
    }
  }

  // Documented but never emitted — only for claims whose root subsystem
  // is one the code actually registers under (so prose about unrelated
  // dotted names can't trip the gate).
  std::set<std::string> roots;
  for (const StatSite& s : sites) {
    const std::size_t dot = s.pattern.find('.');
    const std::string root =
        dot == std::string::npos ? s.pattern : s.pattern.substr(0, dot);
    if (root.find('*') == std::string::npos) roots.insert(root);
  }
  std::set<std::string> seen_claims;
  for (const DocClaim& c : claims) {
    if (!seen_claims.insert(c.name).second) continue;
    const std::size_t dot = c.name.find('.');
    const std::string root =
        dot == std::string::npos ? c.name : c.name.substr(0, dot);
    if (roots.count(root) == 0) continue;
    bool emitted = false;
    for (const StatSite& s : sites) {
      if (globs_overlap(s.pattern, c.name)) {
        emitted = true;
        break;
      }
    }
    if (!emitted) {
      out->push_back({c.file, c.line, "stat-phantom",
                      "stat-phantom:" + c.name,
                      "documentation names stat \"" + c.name +
                          "\" but nothing in src/ emits it; fix the doc or "
                          "restore the registration"});
    }
  }
}

// ----------------------------------------------------- protocol analysis

namespace {

struct ProtoSite {
  const SourceFile* file = nullptr;
  /// key -> first line it appears on
  std::map<std::string, int> parsed;    // take_*/find("key") call sites
  std::map<std::string, int> produced;  // "key": inside built JSON text
};

const std::regex& json_key_regex() {
  static const std::regex re(R"re("([A-Za-z_][A-Za-z0-9_]*)"\s*:)re");
  return re;
}

ProtoSite harvest_proto(const SourceFile& f, bool label_keys) {
  ProtoSite site;
  site.file = &f;
  const std::vector<Token>& toks = f.lexed.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == Token::Kind::kIdent &&
        (t.text == "find" || t.text.rfind("take_", 0) == 0) &&
        i + 1 < toks.size() && toks[i + 1].kind == Token::Kind::kPunct &&
        toks[i + 1].text == "(") {
      // First string literal inside the call is the field name.
      int depth = 1;
      for (std::size_t j = i + 2; j < toks.size() && depth > 0; ++j) {
        const Token& a = toks[j];
        if (a.kind == Token::Kind::kPunct) {
          if (a.text == "(") ++depth;
          if (a.text == ")") --depth;
        } else if (a.kind == Token::Kind::kString) {
          if (site.parsed.find(a.text) == site.parsed.end()) {
            site.parsed[a.text] = a.line;
          }
          break;
        }
      }
    }
    if (t.kind == Token::Kind::kString) {
      for (std::sregex_iterator it(t.text.begin(), t.text.end(),
                                   json_key_regex()),
           end;
           it != end; ++it) {
        const std::string key = (*it)[1].str();
        if (site.produced.find(key) == site.produced.end()) {
          site.produced[key] = t.line;
        }
      }
      if (label_keys) {
        // PointSpec::label() writes "islands=..,net=.." — every key= is a
        // produced point field.
        static const std::regex kLabel(R"(([a-z_][a-z0-9_]*)=)");
        for (std::sregex_iterator it(t.text.begin(), t.text.end(), kLabel),
             end;
             it != end; ++it) {
          const std::string key = (*it)[1].str();
          if (site.produced.find(key) == site.produced.end()) {
            site.produced[key] = t.line;
          }
        }
      }
    }
  }
  return site;
}

/// "widths" produces "width", "policies" produces "policy": search-space
/// list fields are the plural of the point field they enumerate.
bool deplural_match(const std::string& key,
                    const std::set<std::string>& produced) {
  if (produced.count(key) != 0) return true;
  if (key.size() > 3 && key.compare(key.size() - 3, 3, "ies") == 0 &&
      produced.count(key.substr(0, key.size() - 3) + "y") != 0) {
    return true;
  }
  if (key.size() > 1 && key.back() == 's' &&
      produced.count(key.substr(0, key.size() - 1)) != 0) {
    return true;
  }
  return false;
}

}  // namespace

void analyze_protocol(const Corpus& corpus, std::vector<Finding>* out) {
  const SourceFile* protocol = nullptr;
  const SourceFile* client = nullptr;
  const SourceFile* spec = nullptr;
  for (const SourceFile& f : corpus.files) {
    if (path_ends_with(f.path, {"src", "serve", "protocol.cc"})) {
      protocol = &f;
    } else if (path_ends_with(f.path, {"tools", "ara_serve_client.cc"})) {
      client = &f;
    } else if (path_ends_with(f.path, {"src", "dse", "spec.cc"})) {
      spec = &f;
    }
  }
  // The drift check needs both ends of the wire; partial corpora (unit
  // tests over one subtree) stay silent rather than reporting the absent
  // half as drift.
  if (protocol == nullptr || client == nullptr) return;

  const ProtoSite server_site = harvest_proto(*protocol, false);
  const ProtoSite client_site = harvest_proto(*client, false);
  ProtoSite spec_site;
  if (spec != nullptr) spec_site = harvest_proto(*spec, true);

  // 1. Request fields the server parses must be producible by an in-repo
  // producer: the client's request builders or the PointSpec label
  // surface (plural space lists map to their singular point field).
  std::set<std::string> producers;
  for (const auto& [k, l] : client_site.produced) {
    (void)l;
    producers.insert(k);
  }
  for (const auto& [k, l] : spec_site.produced) {
    (void)l;
    producers.insert(k);
  }
  for (const auto& [key, line] : server_site.parsed) {
    if (deplural_match(key, producers)) continue;
    out->push_back(
        {protocol->path, line, "proto-unproduced", "proto-unproduced:" + key,
         "protocol field \"" + key +
             "\" is parsed here but never produced by " +
             rel_key(client->path) + " or " +
             (spec != nullptr ? rel_key(spec->path)
                              : std::string("the PointSpec label surface")) +
             "; wire it through the client (or baseline it with a reason)"});
  }

  // 2. Response fields the client reads must be produced by the server.
  for (const auto& [key, line] : client_site.parsed) {
    if (server_site.produced.count(key) != 0) continue;
    out->push_back(
        {client->path, line, "proto-unparsed", "proto-unparsed:" + key,
         "client reads response field \"" + key + "\" that " +
             rel_key(protocol->path) +
             " never produces; fix whichever side drifted (or baseline it "
             "with a reason)"});
  }

  // 3. Every point field the label surface exposes must be parseable.
  for (const auto& [key, line] : spec_site.parsed) {
    (void)line;
    (void)key;  // labels parse nothing today; kept for symmetry
  }
  if (spec != nullptr) {
    for (const auto& [key, line] : spec_site.produced) {
      if (server_site.parsed.count(key) != 0) continue;
      out->push_back(
          {spec->path, line, "proto-unparsed", "proto-unparsed:" + key,
           "PointSpec label field \"" + key + "\" has no parser in " +
               rel_key(protocol->path) +
               "; requests cannot express this dimension"});
    }
  }
}

// ------------------------------------------------------------- plumbing

namespace {

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

std::set<std::string> parse_baseline(const std::string& content) {
  std::set<std::string> out;
  std::istringstream in(content);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    while (!line.empty() &&
           std::isspace(static_cast<unsigned char>(line.back()))) {
      line.pop_back();
    }
    std::size_t start = 0;
    while (start < line.size() &&
           std::isspace(static_cast<unsigned char>(line[start]))) {
      ++start;
    }
    line = line.substr(start);
    if (!line.empty()) out.insert(line);
  }
  return out;
}

AnalyzeResult analyze(const Corpus& corpus,
                      const std::set<std::string>& baseline,
                      const std::string& baseline_path) {
  AnalyzeResult result;
  result.files_scanned = corpus.files.size();
  result.docs_scanned = corpus.docs.size();

  // Per-file findings answer to allow() comments only; they skip the
  // baseline below.
  for (const SourceFile& f : corpus.files) {
    check_file(f, &result.findings, &result.suppressed);
  }

  std::vector<Finding> raw;
  analyze_includes(corpus, &raw);
  analyze_lock_order(corpus, &raw);
  analyze_stats(corpus, &raw);
  analyze_protocol(corpus, &raw);

  std::set<std::string> used;
  for (Finding& f : raw) {
    if (baseline.count(f.key) != 0) {
      used.insert(f.key);
      ++result.baselined;
    } else {
      result.findings.push_back(std::move(f));
    }
  }
  // Baseline entries matching nothing are themselves findings (the
  // bad-suppression analog): stale entries can't rot silently.
  for (const std::string& key : baseline) {
    if (used.count(key) != 0) continue;
    result.findings.push_back(
        {baseline_path.empty() ? "<baseline>" : baseline_path, 1,
         "stale-baseline", "stale-baseline:" + key,
         "baseline entry '" + key +
             "' matches no current finding; delete it"});
  }

  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              if (a.key != b.key) return a.key < b.key;
              return a.message < b.message;
            });
  return result;
}

std::string to_text(const AnalyzeResult& result) {
  std::string out;
  for (const auto& f : result.findings) {
    out += f.file + ":" + std::to_string(f.line) + ": " + f.rule + ": " +
           f.message + "\n";
    if (!f.key.empty()) out += "  baseline key: " + f.key + "\n";
  }
  out += "ara_analyze: " + std::to_string(result.findings.size()) +
         " finding(s) in " + std::to_string(result.files_scanned) +
         " file(s) + " + std::to_string(result.docs_scanned) + " doc(s), " +
         std::to_string(result.baselined) + " baselined, " +
         std::to_string(result.suppressed) + " suppressed\n";
  return out;
}

std::string to_json(const AnalyzeResult& result) {
  std::string out = "{\"findings\":[";
  bool first = true;
  for (const auto& f : result.findings) {
    if (!first) out += ",";
    first = false;
    out += "{\"file\":\"";
    json_escape(&out, f.file);
    out += "\",\"line\":" + std::to_string(f.line) + ",\"rule\":\"";
    json_escape(&out, f.rule);
    out += "\",\"key\":\"";
    json_escape(&out, f.key);
    out += "\",\"message\":\"";
    json_escape(&out, f.message);
    out += "\"}";
  }
  out += "],\"files_scanned\":" + std::to_string(result.files_scanned) +
         ",\"docs_scanned\":" + std::to_string(result.docs_scanned) +
         ",\"baselined\":" + std::to_string(result.baselined) +
         ",\"suppressed\":" + std::to_string(result.suppressed) + "}\n";
  return out;
}

std::string to_baseline(const AnalyzeResult& result) {
  std::set<std::string> keys;
  for (const auto& f : result.findings) {
    if (!f.key.empty() && f.rule != "stale-baseline") keys.insert(f.key);
  }
  std::string out =
      "# ara_analyze baseline — one finding key per line, '#' comments.\n"
      "# Every entry needs a comment saying WHY it is sanctioned; stale\n"
      "# entries are themselves findings (stale-baseline), so this file\n"
      "# can only shrink unless a new exemption is deliberately added.\n";
  for (const auto& k : keys) out += k + "\n";
  return out;
}

}  // namespace ara::analyze
