// ara_analyze engine tests. The in-memory cases pin the lexer (comments,
// raw strings with prefixes, backslash-newline splices), each cross-file
// analysis in isolation and allow()'s reach (per-file rules only); the
// fixture cases prove every analysis both fires on the seeded violation
// in tests/analyze_fixtures/bad/ and stays silent on the corrected twin in
// good/ (tests/lint_test.cc covers the per-file rules,
// tests/analyze_smoke.cmake the CLI contract).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "analyze_core.h"
#include "obs/json_check.h"

namespace ara::analyze {
namespace {

std::string fixture_root(const std::string& twin) {
  return std::string(ARA_ANALYZE_FIXTURE_DIR) + "/" + twin;
}

std::set<std::string> finding_keys(const std::vector<Finding>& findings) {
  std::set<std::string> keys;
  for (const auto& f : findings) keys.insert(f.key);
  return keys;
}

std::set<std::string> finding_rules(const std::vector<Finding>& findings) {
  std::set<std::string> rules;
  for (const auto& f : findings) rules.insert(f.rule);
  return rules;
}

// ------------------------------------------------------------- lexer

TEST(AnalyzeLexer, BlockCommentIsBlankedAcrossLines) {
  const auto lexed = lex(
      "int a; /* std::rand()\n"
      "   still comment */ int b;\n");
  ASSERT_EQ(lexed.view.code.size(), 2u);
  EXPECT_EQ(lexed.view.code[0].find("rand"), std::string::npos);
  EXPECT_NE(lexed.view.code[1].find("int b"), std::string::npos);
  // No identifier token from inside the comment either.
  for (const auto& t : lexed.tokens) EXPECT_NE(t.text, "rand");
}

TEST(AnalyzeLexer, LineSpliceContinuesALineComment) {
  // The continuation line is part of the comment (C++ phase-2 splicing).
  const auto lexed = lex(
      "// comment \\\n"
      "std::rand();\n"
      "int x;\n");
  ASSERT_EQ(lexed.view.code.size(), 3u);
  EXPECT_EQ(lexed.view.code[1].find("rand"), std::string::npos);
  EXPECT_NE(lexed.view.code[2].find("int x"), std::string::npos);
}

TEST(AnalyzeLexer, LineSpliceContinuesAStringLiteral) {
  const auto lexed = lex("const char* s = \"ab\\\ncd\";\n");
  ASSERT_EQ(lexed.tokens.size(), 7u);  // const char * s = "abcd" ;
  const Token& str = lexed.tokens[5];
  EXPECT_EQ(str.kind, Token::Kind::kString);
  EXPECT_EQ(str.text, "abcd");
}

TEST(AnalyzeLexer, RawStringsWithEveryPrefixAreLiterals) {
  for (const std::string prefix : {"R", "u8R", "uR", "UR", "LR"}) {
    const auto lexed =
        lex("const char* r = " + prefix + "\"xy(rand() \\ \"quote\")xy\";\n");
    bool found = false;
    for (const auto& t : lexed.tokens) {
      EXPECT_NE(t.text, "rand") << prefix;
      if (t.kind == Token::Kind::kString) {
        found = true;
        EXPECT_EQ(t.text, "rand() \\ \"quote\"") << prefix;
      }
    }
    EXPECT_TRUE(found) << prefix;
    // The code view blanks the contents but keeps structural quotes.
    EXPECT_EQ(lexed.view.code[0].find("rand"), std::string::npos) << prefix;
  }
}

TEST(AnalyzeLexer, StringEscapesAreDecodedInTokens) {
  const auto lexed = lex("const char* s = \"a\\n\\\"b\\\"\";\n");
  const Token* str = nullptr;
  for (const auto& t : lexed.tokens) {
    if (t.kind == Token::Kind::kString) str = &t;
  }
  ASSERT_NE(str, nullptr);
  EXPECT_EQ(str->text, "a\n\"b\"");
}

TEST(AnalyzeLexer, DigitSeparatorsStayOneNumberToken) {
  const auto lexed = lex("int n = 1'000'000;\n");
  bool seen = false;
  for (const auto& t : lexed.tokens) {
    if (t.kind == Token::Kind::kNumber) {
      EXPECT_EQ(t.text, "1'000'000");
      seen = true;
    }
  }
  EXPECT_TRUE(seen);
}

// -------------------------------------------------------- include graph

TEST(AnalyzeIncludes, DetectsACycle) {
  Corpus corpus;
  add_source(&corpus, "src/sim/a.h", "#include \"sim/b.h\"\n");
  add_source(&corpus, "src/sim/b.h", "#include \"sim/a.h\"\n");
  std::vector<Finding> findings;
  analyze_includes(corpus, &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "include-cycle");
  EXPECT_EQ(findings[0].key, "include-cycle:src/sim/a.h <-> src/sim/b.h");
}

TEST(AnalyzeIncludes, AcyclicGraphIsSilent) {
  Corpus corpus;
  add_source(&corpus, "src/sim/a.h", "#include \"sim/b.h\"\n");
  add_source(&corpus, "src/sim/b.h", "int b;\n");
  std::vector<Finding> findings;
  analyze_includes(corpus, &findings);
  EXPECT_TRUE(findings.empty());
}

TEST(AnalyzeIncludes, TransitiveBreachThroughUnlayeredHeaderFires) {
  // sim -> tools header -> serve: each edge is invisible to the per-file
  // layering rule, the closure is not.
  Corpus corpus;
  add_source(&corpus, "src/sim/engine.cc", "#include \"bridge.h\"\n");
  add_source(&corpus, "tools/bridge.h", "#include \"serve/api.h\"\n");
  add_source(&corpus, "src/serve/api.h", "int v;\n");
  std::vector<Finding> findings;
  analyze_includes(corpus, &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "transitive-layering");
  EXPECT_EQ(findings[0].key,
            "transitive-layering:src/sim/engine.cc:serve");
  EXPECT_EQ(findings[0].file, "src/sim/engine.cc");
}

TEST(AnalyzeIncludes, ClosureOfTheLayerMatrixIsLegal) {
  // serve -> dse is a direct edge; dse -> island is transitive through
  // the matrix closure, so reaching island from serve is NOT a finding.
  Corpus corpus;
  add_source(&corpus, "src/serve/server.cc", "#include \"dse/sweep.h\"\n");
  add_source(&corpus, "src/dse/sweep.h", "#include \"island/island.h\"\n");
  add_source(&corpus, "src/island/island.h", "int i;\n");
  std::vector<Finding> findings;
  analyze_includes(corpus, &findings);
  EXPECT_TRUE(findings.empty());
}

// ---------------------------------------------------------------- stats

TEST(AnalyzeStats, GrammarViolationsFire) {
  Corpus corpus;
  add_source(&corpus, "src/core/stats.cc",
             "void f(StatRegistry& s) {\n"
             "  s.counter(\"BadStatName\", 1);\n"
             "  s.counter(\"sim.good.name\", 2);\n"
             "  s.histogram(\"also_no_dots\", 3);\n"
             "}\n");
  std::vector<Finding> findings;
  analyze_stats(corpus, &findings);  // no docs: grammar-only mode
  EXPECT_EQ(finding_keys(findings),
            (std::set<std::string>{"stat-grammar:BadStatName",
                                   "stat-grammar:also_no_dots"}));
}

TEST(AnalyzeStats, ConcatenatedNamesBecomeGlobsAndStayLegal) {
  Corpus corpus;
  add_source(&corpus, "src/noc/mesh.cc",
             "void f(StatRegistry& s, int n) {\n"
             "  s.counter(\"noc.router.\" + std::to_string(n) + \".flits\","
             " 1);\n"
             "}\n");
  corpus.docs.push_back(
      {"DESIGN.md", "Routers export `noc.router.*.flits` counters.\n"});
  std::vector<Finding> findings;
  analyze_stats(corpus, &findings);
  EXPECT_TRUE(findings.empty());
}

TEST(AnalyzeStats, UndocumentedAndPhantomBothFire) {
  Corpus corpus;
  add_source(&corpus, "src/core/stats.cc",
             "void f(StatRegistry& s) {\n"
             "  s.counter(\"sim.fixture.documented\", 1);\n"
             "  s.counter(\"sim.fixture.ghostly\", 2);\n"
             "}\n");
  corpus.docs.push_back({"DESIGN.md",
                         "Exports `sim.fixture.documented`; also claims\n"
                         "`sim.fixture.phantom` which nothing emits.\n"});
  std::vector<Finding> findings;
  analyze_stats(corpus, &findings);
  EXPECT_EQ(finding_keys(findings),
            (std::set<std::string>{"stat-undocumented:sim.fixture.ghostly",
                                   "stat-phantom:sim.fixture.phantom"}));
}

TEST(AnalyzeStats, FencedCodeBlocksAndFilenamesAreNotClaims) {
  Corpus corpus;
  add_source(&corpus, "src/core/stats.cc",
             "void f(StatRegistry& s) {\n"
             "  s.counter(\"sim.fixture.documented\", 1);\n"
             "}\n");
  corpus.docs.push_back(
      {"DESIGN.md",
       "Exports `sim.fixture.documented` (see `src/core/stats.cc` and\n"
       "`tools/analyze_core.h`).\n"
       "```\n"
       "`sim.fenced.away` never counts as a claim\n"
       "```\n"});
  std::vector<Finding> findings;
  analyze_stats(corpus, &findings);
  EXPECT_TRUE(findings.empty());
}

// ------------------------------------------------------ allow + renderers

// allow() accepts per-file rule ids only: naming a cross-file analysis is
// a bad-suppression, and the cross-file finding stays.
TEST(AnalyzeBaseline, AllowNamingACrossFileRuleIsABadSuppression) {
  Corpus corpus;
  add_source(&corpus, "src/core/stats.cc",
             "void f(StatRegistry& s) {\n"
             "  s.counter(\"BadName\", 1);  // ara-lint: allow(stat-grammar)\n"
             "}\n");
  const AnalyzeResult result = analyze(corpus);
  EXPECT_EQ(finding_rules(result.findings),
            (std::set<std::string>{"bad-suppression", "stat-grammar"}));
  ASSERT_EQ(result.findings.size(), 2u);
  for (const auto& f : result.findings) EXPECT_EQ(f.line, 2);
  EXPECT_EQ(result.suppressed, 0u);
}

TEST(AnalyzeRender, JsonIsStrictRfc8259) {
  Corpus corpus;
  add_source(&corpus, "src/core/stats.cc",
             "void f(StatRegistry& s) {\n"
             "  s.counter(\"Bad\\\"Quoted\\nName\", 1);\n"
             "}\n");
  add_source(&corpus, "src/sim/a.h", "#include \"sim/b.h\"\n");
  add_source(&corpus, "src/sim/b.h", "#include \"sim/a.h\"\n");
  const AnalyzeResult result = analyze(corpus);
  ASSERT_FALSE(result.findings.empty());
  std::string error;
  EXPECT_TRUE(obs::validate_json(to_json(result), &error)) << error;
  EXPECT_TRUE(obs::validate_json(
      to_json(AnalyzeResult{}), &error))
      << error;
}

TEST(AnalyzeRules, CatalogIsSortedAndCoversEveryEmittedRule) {
  const auto& catalog = rules();
  std::set<std::string> per_file;
  std::set<std::string> cross_file;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_FALSE(catalog[i].summary.empty()) << catalog[i].id;
    if (i > 0) {
      EXPECT_LT(catalog[i - 1].id, catalog[i].id);
    }
    (catalog[i].per_file ? per_file : cross_file).insert(catalog[i].id);
  }
  EXPECT_EQ(catalog.size(), 12u);
  EXPECT_EQ(per_file,
            (std::set<std::string>{"bad-suppression", "layering",
                                   "no-naked-lock", "no-rand",
                                   "no-raw-new-delete", "no-unordered-iter",
                                   "no-wall-clock"}));
  EXPECT_EQ(cross_file,
            (std::set<std::string>{"include-cycle", "stat-grammar",
                                   "stat-phantom", "stat-undocumented",
                                   "transitive-layering"}));
}

// ------------------------------------------------------ fixture corpus

TEST(AnalyzeFixtures, BadTwinFiresEveryAnalysis) {
  const std::string root = fixture_root("bad");
  const Corpus corpus = load_corpus({root}, {root + "/DESIGN.md"});
  ASSERT_EQ(corpus.files.size(), 6u);
  ASSERT_EQ(corpus.docs.size(), 1u);
  const AnalyzeResult result = analyze(corpus);
  EXPECT_EQ(finding_rules(result.findings),
            (std::set<std::string>{"include-cycle", "transitive-layering",
                                   "stat-grammar", "stat-undocumented",
                                   "stat-phantom"}));
  EXPECT_EQ(result.findings.size(), 5u);
  // Keys are stable rel-paths: independent of where the checkout lives.
  const std::set<std::string> keys = finding_keys(result.findings);
  EXPECT_TRUE(keys.count("transitive-layering:src/sim/engine.cc:serve"));
  EXPECT_TRUE(keys.count("include-cycle:src/sim/cycle_a.h <-> "
                         "src/sim/cycle_b.h"));
  EXPECT_TRUE(keys.count("stat-undocumented:sim.fixture.ghostly"));
}

TEST(AnalyzeFixtures, GoodTwinIsCompletelySilent) {
  const std::string root = fixture_root("good");
  const Corpus corpus = load_corpus({root}, {root + "/DESIGN.md"});
  ASSERT_EQ(corpus.files.size(), 6u);
  const AnalyzeResult result = analyze(corpus);
  EXPECT_TRUE(result.findings.empty())
      << to_text(result);
}

}  // namespace
}  // namespace ara::analyze
