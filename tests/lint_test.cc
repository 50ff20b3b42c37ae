// Per-file rule tests: the fixture corpus under tests/lint_fixtures/
// pins the exact (rule, line) set every per-file rule produces — including
// the false-positive traps in clean.cc — and the in-memory cases pin the
// comment/string stripping, suppression, and path-scoping mechanics.
// Every case runs in-process through analyze_core.h's corpus and
// analyze() (tests/analyze_smoke.cmake covers the ara_analyze CLI).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analyze_core.h"

namespace ara::analyze {
namespace {

std::string fixture_path(const std::string& rel) {
  return std::string(ARA_LINT_FIXTURE_DIR) + "/" + rel;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

using RuleLine = std::pair<std::string, int>;

/// Analyze one in-memory file on its own; `suppressed` (optional)
/// receives the allow()-silenced count.
std::vector<Finding> analyze_source(const std::string& path,
                                    const std::string& content,
                                    std::size_t* suppressed = nullptr) {
  Corpus corpus;
  add_source(&corpus, path, content);
  AnalyzeResult result = analyze(corpus);
  if (suppressed != nullptr) *suppressed = result.suppressed;
  return std::move(result.findings);
}

/// Analyze one fixture file and return its (rule, line) pairs in order.
std::vector<RuleLine> lint_fixture(const std::string& rel,
                                   std::size_t* suppressed = nullptr) {
  const std::string path = fixture_path(rel);
  std::vector<RuleLine> out;
  for (const auto& f : analyze_source(path, slurp(path), suppressed)) {
    EXPECT_EQ(f.file, path);
    EXPECT_FALSE(f.message.empty()) << f.rule;
    out.emplace_back(f.rule, f.line);
  }
  return out;
}

TEST(LintFixtures, RandRule) {
  const std::vector<RuleLine> expected = {
      {"no-rand", 6}, {"no-rand", 7}, {"no-rand", 8}, {"no-rand", 9}};
  EXPECT_EQ(lint_fixture("src/sim/rand.cc"), expected);
}

TEST(LintFixtures, WallClockRuleWithInlineAllow) {
  std::size_t suppressed = 0;
  const std::vector<RuleLine> expected = {
      {"no-wall-clock", 7}, {"no-wall-clock", 8}, {"no-wall-clock", 9}};
  EXPECT_EQ(lint_fixture("src/sim/wall_clock.cc", &suppressed), expected);
  EXPECT_EQ(suppressed, 1u);  // the sanctioned telemetry line
}

TEST(LintFixtures, SanctionedClockSiteIsExemptWithoutAllowComments) {
  // src/obs/clock.cc (obs::MonotonicClock::host()) is the one path the
  // no-wall-clock rule exempts; the fixture carries no allow() comments,
  // so a clean result proves the allowlist (not a suppression) admits it.
  std::size_t suppressed = 0;
  EXPECT_TRUE(lint_fixture("src/obs/clock.cc", &suppressed).empty());
  EXPECT_EQ(suppressed, 0u);
}

TEST(LintFixtures, ObsWallClockOutsideSanctionedFileStillFires) {
  const std::vector<RuleLine> expected = {{"no-wall-clock", 6}};
  EXPECT_EQ(lint_fixture("src/obs/wall_clock_probe.cc"), expected);
}

TEST(LintFixtures, UnorderedIterRule) {
  const std::vector<RuleLine> expected = {{"no-unordered-iter", 9},
                                          {"no-unordered-iter", 12}};
  EXPECT_EQ(lint_fixture("src/obs/unordered_iter.cc"), expected);
}

TEST(LintFixtures, StatNamingRule) {
  const std::vector<RuleLine> expected = {
      {"stat-grammar", 12}, {"stat-grammar", 13}, {"stat-grammar", 15}};
  EXPECT_EQ(lint_fixture("src/noc/stat_naming.cc"), expected);
}

TEST(LintFixtures, LayeringRule) {
  const std::vector<RuleLine> expected = {{"layering", 7}, {"layering", 8}};
  EXPECT_EQ(lint_fixture("src/sim/layering.cc"), expected);
}

TEST(LintFixtures, SeededViolationInDseTreeFailsTheGate) {
  const std::vector<RuleLine> expected = {{"no-rand", 6}};
  EXPECT_EQ(lint_fixture("src/dse/seeded_rand.cc"), expected);
}

TEST(LintFixtures, DseCheckIncludeOutsideSanctionedFileStillFires) {
  const std::vector<RuleLine> expected = {{"layering", 4}};
  EXPECT_EQ(lint_fixture("src/dse/sampler_probe.cc"), expected);
}

TEST(LintFixtures, RawNewDeleteRule) {
  const std::vector<RuleLine> expected = {{"no-raw-new-delete", 9},
                                          {"no-raw-new-delete", 10},
                                          {"no-raw-new-delete", 11},
                                          {"no-raw-new-delete", 12}};
  EXPECT_EQ(lint_fixture("raw_new.cc"), expected);
}

TEST(LintFixtures, NakedLockRule) {
  const std::vector<RuleLine> expected = {{"no-naked-lock", 6},
                                          {"no-naked-lock", 8},
                                          {"no-naked-lock", 11},
                                          {"no-naked-lock", 12}};
  EXPECT_EQ(lint_fixture("naked_lock.cc"), expected);
}

TEST(LintFixtures, SuppressedFileIsCleanAndCounted) {
  std::size_t suppressed = 0;
  EXPECT_TRUE(lint_fixture("src/mem/suppressed.cc", &suppressed).empty());
  // Line 6 silences two findings inline; line 9's delete is silenced by
  // the standalone allow() on line 8.
  EXPECT_EQ(suppressed, 3u);
}

TEST(LintFixtures, BadSuppressionRule) {
  const std::vector<RuleLine> expected = {{"bad-suppression", 4},
                                          {"bad-suppression", 5}};
  EXPECT_EQ(lint_fixture("bad_suppression.cc"), expected);
}

TEST(LintFixtures, CleanFileWithTrapsHasNoFindings) {
  std::size_t suppressed = 0;
  EXPECT_TRUE(lint_fixture("src/sim/clean.cc", &suppressed).empty());
  EXPECT_EQ(suppressed, 0u);
}

TEST(LintFixtures, CommentAndLiteralTrapsNeverFire) {
  // Regression corpus for the shared lexer: std::rand/new/delete/lock
  // mentions inside a block comment, a string, a prefixed raw string and
  // a backslash-spliced // comment. The old per-line scanner lexed the
  // spliced continuation line as code and fired no-rand on it.
  std::size_t suppressed = 0;
  EXPECT_TRUE(lint_fixture("src/sim/comment_trap.cc", &suppressed).empty());
  EXPECT_EQ(suppressed, 0u);
}

// ----------------------------------------------------- engine mechanics

TEST(LintEngine, CommentsAndStringsNeverMatch) {
  const std::string src =
      "/* rand() srand new delete\n"
      "   spans lines */\n"
      "const char* s = \"rand() delete p\";\n"
      "const char* r = R\"xx(new int rand())xx\";\n"
      "int ok = 0;  // mu.lock() run_point()\n";
  EXPECT_TRUE(analyze_source("src/sim/x.cc", src).empty());
}

TEST(LintEngine, SplicedLineCommentSwallowsItsContinuation) {
  const std::string src =
      "// note \\\n"
      "int x = rand();\n"
      "int y = rand();\n";
  const auto findings = analyze_source("src/sim/x.cc", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3);  // line 2 is still inside the comment
}

TEST(LintEngine, PrefixedRawStringsStayStripped) {
  const std::string src =
      "const char* r = u8R\"(rand() delete new)\";\n"
      "const char* s = LR\"q(mu.lock() run_sweep)q\";\n";
  EXPECT_TRUE(analyze_source("src/sim/x.cc", src).empty());
}

TEST(LintEngine, RawStringSpanningLinesStaysStripped) {
  const std::string src =
      "const char* r = R\"(first\n"
      "rand() delete new mu.lock()\n"
      ")\";\n"
      "int* p = new int;\n";
  const auto findings = analyze_source("src/sim/x.cc", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "no-raw-new-delete");
  EXPECT_EQ(findings[0].line, 4);
}

TEST(LintEngine, SrcScopedRulesIgnoreToolsAndBench) {
  const std::string src = "int x = rand();\n";
  EXPECT_EQ(analyze_source("src/sim/x.cc", src).size(), 1u);
  EXPECT_TRUE(analyze_source("tools/x.cc", src).empty());
  EXPECT_TRUE(analyze_source("bench/x.cc", src).empty());
}

TEST(LintEngine, ClockSeamAllowlistAdmitsOnlyTheExactPath) {
  const std::string src = "auto t = std::chrono::steady_clock::now();\n";
  EXPECT_TRUE(analyze_source("src/obs/clock.cc", src).empty());
  EXPECT_TRUE(analyze_source("/abs/repo/src/obs/clock.cc", src).empty());
  // Same layer, different file; same name, different layer; a clock.cc
  // header-sibling — none inherit the exemption.
  EXPECT_EQ(analyze_source("src/obs/window.cc", src).size(), 1u);
  EXPECT_EQ(analyze_source("src/sim/clock.cc", src).size(), 1u);
  EXPECT_EQ(analyze_source("src/obs/clock.h", src).size(), 1u);
  // The allowlist only bypasses no-wall-clock, not the other rules.
  EXPECT_EQ(analyze_source("src/obs/clock.cc", "int x = rand();\n").size(), 1u);
}

TEST(LintEngine, PrecedingAllowOnlyCountsWhenStandalone) {
  // The allow() shares a line with code, so it does not extend downward.
  const std::string src =
      "int a = 1;  // ara-lint: allow(no-rand)\n"
      "int b = rand();\n";
  const auto findings = analyze_source("src/sim/x.cc", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 2);
}

TEST(LintEngine, LayeringAllowsDeclaredEdgesOnly) {
  EXPECT_TRUE(
      analyze_source("src/mem/x.cc", "#include \"noc/link.h\"\n").empty());
  const auto up =
      analyze_source("src/noc/x.cc", "#include \"mem/dram_model.h\"\n");
  ASSERT_EQ(up.size(), 1u);
  EXPECT_EQ(up[0].rule, "layering");
}

TEST(LintEngine, RuleCatalogIsSortedAndComplete) {
  // The per-file rules, in catalog order, are exactly the ids an allow()
  // comment accepts: each one silences cleanly, and every cross-file id
  // is a bad-suppression.
  std::vector<std::string> per_file;
  for (const RuleInfo& rule : rules()) {
    EXPECT_FALSE(rule.summary.empty()) << rule.id;
    const auto findings = analyze_source(
        "src/sim/x.cc", "int x = 0;  // ara-lint: allow(" + rule.id + ")\n");
    if (rule.per_file) {
      per_file.push_back(rule.id);
      EXPECT_TRUE(findings.empty()) << rule.id;
    } else {
      ASSERT_EQ(findings.size(), 1u) << rule.id;
      EXPECT_EQ(findings[0].rule, "bad-suppression") << rule.id;
    }
  }
  EXPECT_EQ(per_file,
            (std::vector<std::string>{
                "bad-suppression", "layering", "no-naked-lock", "no-rand",
                "no-raw-new-delete", "no-unordered-iter", "no-wall-clock"}));
}

TEST(LintEngine, WholeCorpusThroughLintPaths) {
  const AnalyzeResult result =
      analyze(load_corpus({std::string(ARA_LINT_FIXTURE_DIR)}, {}));
  EXPECT_EQ(result.files_scanned, 15u);
  EXPECT_EQ(result.suppressed, 4u);
  // Sum of every fixture's expected findings above (clock.cc and
  // comment_trap.cc add zero; wall_clock_probe.cc and sampler_probe.cc add
  // one each).
  EXPECT_EQ(result.findings.size(),
            4u + 3u + 2u + 3u + 2u + 1u + 4u + 4u + 2u + 1u + 1u);
  // Deterministic: sorted by path, then line.
  for (std::size_t i = 1; i < result.findings.size(); ++i) {
    const auto& a = result.findings[i - 1];
    const auto& b = result.findings[i];
    EXPECT_LE(a.file, b.file);
    if (a.file == b.file) {
      EXPECT_LE(a.line, b.line);
    }
  }
}

}  // namespace
}  // namespace ara::analyze
