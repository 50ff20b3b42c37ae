// ara_analyze — the static analyzer CLI (engine: tools/analyze_core.h).
//
//   ara_analyze [--json] [--baseline FILE] [--write-baseline FILE]
//               [--doc FILE]... [--list-rules] <path>...
//
// Exit codes: 0 clean, 1 findings, 2 usage/IO error.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze_core.h"

namespace {

void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s [--json] [--baseline FILE] [--write-baseline FILE]"
               " [--doc FILE]... [--list-rules] <path>...\n"
               "  <path>     file or directory scanned recursively for"
               " .h/.hpp/.cc/.cpp\n"
               "  --doc      documentation file cross-referenced by the"
               " stat-name analysis\n"
               "  --baseline cross-file findings whose key is listed are"
               " counted, not reported\n"
               "  --write-baseline  write the current cross-file finding keys"
               " and exit 0\n",
               argv0);
}

int usage(const char* argv0) {
  print_usage(stderr, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool list_rules = false;
  std::string baseline_path;
  std::string write_baseline_path;
  std::vector<std::string> docs;
  std::vector<std::string> roots;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--help" || arg == "-h") {
      print_usage(stdout, argv[0]);
      return 0;
    } else if (arg == "--baseline") {
      if (++i >= argc) return usage(argv[0]);
      baseline_path = argv[i];
    } else if (arg == "--write-baseline") {
      if (++i >= argc) return usage(argv[0]);
      write_baseline_path = argv[i];
    } else if (arg == "--doc") {
      if (++i >= argc) return usage(argv[0]);
      docs.push_back(argv[i]);
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else {
      roots.push_back(arg);
    }
  }

  if (list_rules) {
    for (const auto& rule : ara::analyze::rules()) {
      std::printf("%-22s %s\n", rule.id.c_str(), rule.summary.c_str());
    }
    return 0;
  }
  if (roots.empty()) return usage(argv[0]);

  std::set<std::string> baseline;
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "ara_analyze: cannot read baseline %s\n",
                   baseline_path.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    baseline = ara::analyze::parse_baseline(buf.str());
  }

  const ara::analyze::Corpus corpus = ara::analyze::load_corpus(roots, docs);
  if (corpus.files.empty()) {
    std::fprintf(stderr, "ara_analyze: no source files under given paths\n");
    return 2;
  }

  const ara::analyze::AnalyzeResult result = ara::analyze::analyze(
      corpus, write_baseline_path.empty() ? baseline : std::set<std::string>{},
      baseline_path);

  if (!write_baseline_path.empty()) {
    std::ofstream out(write_baseline_path);
    if (!out) {
      std::fprintf(stderr, "ara_analyze: cannot write %s\n",
                   write_baseline_path.c_str());
      return 2;
    }
    const std::string body = ara::analyze::to_baseline(result);
    out << body;
    std::fprintf(stderr, "ara_analyze: wrote %zu key(s) to %s\n",
                 ara::analyze::parse_baseline(body).size(),
                 write_baseline_path.c_str());
    return 0;
  }

  std::cout << (json ? ara::analyze::to_json(result)
                     : ara::analyze::to_text(result));
  return result.findings.empty() ? 0 : 1;
}
