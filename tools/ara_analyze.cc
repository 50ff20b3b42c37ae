// ara_analyze — the static analyzer CLI (engine: tools/analyze_core.h).
//
//   ara_analyze [--json] [--doc FILE]... [--list-rules] <path>...
//
// Exit codes: 0 clean, 1 findings, 2 usage/IO error.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "analyze_core.h"

namespace {

void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s [--json] [--doc FILE]... [--list-rules] <path>...\n"
               "  <path>     file or directory scanned recursively for"
               " .h/.hpp/.cc/.cpp\n"
               "  --doc      documentation file cross-referenced by the"
               " stat-name analysis\n",
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

  const ara::analyze::Corpus corpus = ara::analyze::load_corpus(roots, docs);
  if (corpus.files.empty()) {
    std::fprintf(stderr, "ara_analyze: no source files under given paths\n");
    return 2;
  }

  const ara::analyze::AnalyzeResult result = ara::analyze::analyze(corpus);
  std::cout << (json ? ara::analyze::to_json(result)
                     : ara::analyze::to_text(result));
  return result.findings.empty() ? 0 : 1;
}
