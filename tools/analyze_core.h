// ara_analyze — the static analyzer for the ara tree.
//
// The engine lexes every first-party file once into a shared token/line
// model (the Corpus) and runs two kinds of checks over it.
//
// Per-file rules judge one translation unit at a time and enforce the
// source conventions the simulator's determinism and threading
// guarantees rest on:
//
//   bad-suppression      an allow() comment names an unknown per-file rule
//   layering             a direct #include leaves the layer dependency
//                        allowlist
//   no-naked-lock        a direct mutex .lock()/.unlock() call
//   no-rand              host or non-portable randomness in src/
//   no-raw-new-delete    raw new/delete instead of RAII/containers
//   no-unordered-iter    iteration over an unordered container in src/
//   no-wall-clock        a host clock read in src/ outside the clock seam
//
// A per-file finding is silenced only by a comment on the same line, or
// alone on the line above:
//
//     int x = rand();  // ara-lint: allow(no-rand)
//
// allow() accepts per-file rule ids only; any other id is a
// bad-suppression finding, which is itself never suppressible.
//
// Cross-file analyses need the whole corpus:
//
//   include-cycle        the #include graph contains a cycle
//   transitive-layering  a file's include *closure* escapes the layer
//                        matrix even though every individual edge looks
//                        legal to the per-file layering rule (e.g. a sim/
//                        file reaching serve/ through an unlayered tools/
//                        header)
//   stat-grammar         a StatRegistry registration literal violates the
//                        <subsystem>.<id>.<stat> grammar
//   stat-undocumented    a stat name is emitted by src/ but never appears
//                        in the documentation set (DESIGN.md / README.md)
//   stat-phantom         the documentation names a stat that nothing in
//                        src/ emits (doc drift)
//
// Nothing silences a cross-file finding: it is fixed, not exempted.
//
// The engine is deliberately dependency-free (no libclang, no link
// against the simulator library) so it builds and runs even while the
// tree it analyses is broken. tools/ara_analyze.cc is the CLI;
// tests/lint_test.cc + tests/lint_fixtures/ pin the exact (rule, line)
// set of every per-file rule, and tests/analyze_test.cc +
// tests/analyze_fixtures/ pin each cross-file analysis both firing on a
// seeded violation and staying silent on the corrected twin.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace ara::analyze {

// --------------------------------------------------------------- lexer

/// Per-physical-line views of one file. `raw` is the input verbatim;
/// `code` has comments AND string/char-literal contents blanked (pattern
/// matching never sees prose); `text` has only comments blanked (rules
/// that must read literals use this one).
struct SourceView {
  std::vector<std::string> raw;
  std::vector<std::string> code;
  std::vector<std::string> text;
};

/// One lexical token. String/char tokens carry their *decoded* contents
/// (simple escapes resolved, raw-string bodies verbatim) so analyses can
/// pattern-match the value the program actually sees.
struct Token {
  enum class Kind { kIdent, kNumber, kString, kChar, kPunct };
  Kind kind = Kind::kPunct;
  std::string text;
  int line = 0;  // 1-based physical line the token starts on
};

struct LexedSource {
  SourceView view;
  std::vector<Token> tokens;
};

/// Lex one translation unit. Handles //- and /**/-comments, string and
/// char literals (with escapes and digit separators), raw strings with
/// any encoding prefix (R, u8R, uR, UR, LR), and backslash-newline line
/// splices in every state except raw strings — so a `// comment \`
/// swallows its continuation line exactly as the real preprocessor does.
LexedSource lex(const std::string& content);

// ------------------------------------------------------------- corpus

struct SourceFile {
  std::string path;
  std::string layer;  // "" when unlayered (tools/, bench/, examples/)
  LexedSource lexed;
  /// Quoted #include targets with their 1-based line numbers.
  std::vector<std::pair<std::string, int>> includes;
};

struct DocFile {
  std::string path;
  std::string content;
};

/// The whole-program model: every .h/.cc/.cpp under `roots` (files or
/// directories, recursive), lexed once, in sorted path order, plus the
/// documentation set the stat analysis cross-references.
struct Corpus {
  std::vector<SourceFile> files;
  std::vector<DocFile> docs;
};

Corpus load_corpus(const std::vector<std::string>& roots,
                   const std::vector<std::string>& doc_paths);

/// In-memory corpus entry point for tests.
void add_source(Corpus* corpus, const std::string& path,
                const std::string& content);

// ----------------------------------------------------------- findings

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  /// Stable identity of a cross-file finding: rule + canonical detail, no
  /// line numbers and no absolute paths, so it compares across line churn
  /// and checkout locations (--json carries it). Empty for a per-file
  /// finding.
  std::string key;
  std::string message;
};

struct RuleInfo {
  std::string id;
  std::string summary;
  /// A per-file rule: an allow() comment may name it, and its findings
  /// carry no key.
  bool per_file = false;
};

/// Every per-file rule and cross-file analysis, id-sorted.
const std::vector<RuleInfo>& rules();

struct AnalyzeResult {
  std::vector<Finding> findings;  // unsilenced, file/line ordered
  std::size_t files_scanned = 0;
  std::size_t docs_scanned = 0;
  std::size_t suppressed = 0;  // per-file findings allow() silenced
};

// The two cross-file analyses, individually callable (tests exercise them
// in isolation); analyze() runs both next to the per-file rules.
void analyze_includes(const Corpus& corpus, std::vector<Finding>* out);
void analyze_stats(const Corpus& corpus, std::vector<Finding>* out);

/// Run the per-file rules over every file and every cross-file analysis.
/// Per-file findings under an allow() comment are counted as suppressed.
AnalyzeResult analyze(const Corpus& corpus);

/// "file:line: rule: message" per finding + a one-line summary.
std::string to_text(const AnalyzeResult& result);

/// Machine-readable findings (strict RFC 8259; tests validate through
/// obs::validate_json).
std::string to_json(const AnalyzeResult& result);

}  // namespace ara::analyze
