// ara_analyze engine tests. The in-memory cases pin the lexer (comments,
// raw strings with prefixes, backslash-newline splices), each cross-file
// analysis in isolation and the split between allow() suppression and
// the baseline; the fixture cases prove every analysis both fires on the
// seeded violation in tests/analyze_fixtures/bad/ and stays silent on the
// corrected twin in good/ (tests/lint_test.cc covers the per-file rules,
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

// ----------------------------------------------------------- lock order

constexpr const char* kDrainThenRefill =
    "void Pool::drain() {\n"
    "  common::MutexLock a(mu_a_);\n"
    "  common::MutexLock b(mu_b_);\n"
    "}\n";

TEST(AnalyzeLockOrder, OppositeOrdersAreACycle) {
  Corpus corpus;
  add_source(&corpus, "src/core/locks.cc",
             std::string(kDrainThenRefill) +
                 "void Pool::refill() {\n"
                 "  common::MutexLock b(mu_b_);\n"
                 "  common::MutexLock a(mu_a_);\n"
                 "}\n");
  std::vector<Finding> findings;
  analyze_lock_order(corpus, &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "lock-order");
  EXPECT_NE(findings[0].key.find("Pool::mu_a_"), std::string::npos);
  EXPECT_NE(findings[0].key.find("Pool::mu_b_"), std::string::npos);
}

TEST(AnalyzeLockOrder, ConsistentOrderIsSilent) {
  Corpus corpus;
  add_source(&corpus, "src/core/locks.cc",
             std::string(kDrainThenRefill) +
                 "void Pool::refill() {\n"
                 "  common::MutexLock a(mu_a_);\n"
                 "  common::MutexLock b(mu_b_);\n"
                 "}\n");
  std::vector<Finding> findings;
  analyze_lock_order(corpus, &findings);
  EXPECT_TRUE(findings.empty());
}

TEST(AnalyzeLockOrder, GuardScopeEndsAtTheClosingBrace) {
  // mu_b_ is taken after mu_a_'s guard block closed: no edge, no cycle
  // even though the reverse order appears elsewhere.
  Corpus corpus;
  add_source(&corpus, "src/core/locks.cc",
             "void Pool::drain() {\n"
             "  { common::MutexLock a(mu_a_); }\n"
             "  common::MutexLock b(mu_b_);\n"
             "}\n"
             "void Pool::refill() {\n"
             "  common::MutexLock b(mu_b_);\n"
             "  common::MutexLock a(mu_a_);\n"
             "}\n");
  std::vector<Finding> findings;
  analyze_lock_order(corpus, &findings);
  EXPECT_TRUE(findings.empty());
}

TEST(AnalyzeLockOrder, CrossClassCycleSpansFiles) {
  Corpus corpus;
  add_source(&corpus, "src/serve/server.cc",
             "void Server::submit() {\n"
             "  common::MutexLock l(mu_);\n"
             "  common::MutexLock c(cache_mu_);\n"
             "}\n");
  add_source(&corpus, "src/serve/cache.cc",
             "void Server::evict() {\n"
             "  common::MutexLock c(cache_mu_);\n"
             "  common::MutexLock l(mu_);\n"
             "}\n");
  std::vector<Finding> findings;
  analyze_lock_order(corpus, &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "lock-order");
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

// ------------------------------------------------------------- protocol

Corpus proto_corpus(const std::string& server_body) {
  Corpus corpus;
  add_source(&corpus, "src/serve/protocol.cc", server_body);
  add_source(&corpus, "tools/ara_serve_client.cc",
             "std::string build() {\n"
             "  return \"{\\\"type\\\":\\\"ping\\\","
             "\\\"workload\\\":\\\"x\\\"}\";\n"
             "}\n"
             "int code(const JsonValue& v) {\n"
             "  const JsonValue* c = v.find(\"code\");\n"
             "  return 0;\n"
             "}\n");
  add_source(&corpus, "src/dse/spec.cc",
             "std::string PointSpec::label() const {\n"
             "  return \"islands=\" + std::to_string(islands);\n"
             "}\n");
  return corpus;
}

constexpr const char* kBalancedServer =
    "bool parse(const JsonValue& root) {\n"
    "  take_string(root, \"type\", &t);\n"
    "  take_string(root, \"workload\", &w);\n"
    "  take_u32(root, \"islands\", &i);\n"
    "  return true;\n"
    "}\n"
    "std::string pong() { return \"{\\\"type\\\":\\\"pong\\\","
    "\\\"code\\\":0}\"; }\n";

TEST(AnalyzeProtocol, BalancedSurfacesAreSilent) {
  Corpus corpus = proto_corpus(kBalancedServer);
  std::vector<Finding> findings;
  analyze_protocol(corpus, &findings);
  EXPECT_TRUE(findings.empty());
}

TEST(AnalyzeProtocol, ParsedButNeverProducedFires) {
  Corpus corpus = proto_corpus(
      "bool parse(const JsonValue& root) {\n"
      "  take_string(root, \"type\", &t);\n"
      "  take_string(root, \"workload\", &w);\n"
      "  take_u32(root, \"islands\", &i);\n"
      "  take_u32(root, \"ghost\", &g);\n"
      "  return true;\n"
      "}\n"
      "std::string pong() { return \"{\\\"type\\\":\\\"pong\\\","
      "\\\"code\\\":0}\"; }\n");
  std::vector<Finding> findings;
  analyze_protocol(corpus, &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].key, "proto-unproduced:ghost");
  EXPECT_EQ(findings[0].file, "src/serve/protocol.cc");
}

TEST(AnalyzeProtocol, ClientReadingUnproducedFieldFires) {
  Corpus corpus;
  add_source(&corpus, "src/serve/protocol.cc", kBalancedServer);
  add_source(&corpus, "tools/ara_serve_client.cc",
             "std::string build() {\n"
             "  return \"{\\\"type\\\":\\\"ping\\\","
             "\\\"workload\\\":\\\"x\\\",\\\"islands\\\":1}\";\n"
             "}\n"
             "int f(const JsonValue& v) {\n"
             "  const JsonValue* s = v.find(\"surprise\");\n"
             "  return 0;\n"
             "}\n");
  std::vector<Finding> findings;
  analyze_protocol(corpus, &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].key, "proto-unparsed:surprise");
}

TEST(AnalyzeProtocol, PartialCorpusStaysSilent) {
  // Unit-test corpora that hold only one end of the wire must not report
  // the missing half as drift.
  Corpus corpus;
  add_source(&corpus, "src/serve/protocol.cc", kBalancedServer);
  std::vector<Finding> findings;
  analyze_protocol(corpus, &findings);
  EXPECT_TRUE(findings.empty());
}

// ----------------------------------------------- baseline + renderers

TEST(AnalyzeBaseline, BaselinedKeysAreCountedAndStaleOnesReported) {
  Corpus corpus;
  add_source(&corpus, "src/sim/a.h", "#include \"sim/b.h\"\n");
  add_source(&corpus, "src/sim/b.h", "#include \"sim/a.h\"\n");
  const std::set<std::string> baseline = parse_baseline(
      "# comment\n"
      "include-cycle:src/sim/a.h <-> src/sim/b.h  # trailing comment\n"
      "stale-entry:never-matches\n");
  const AnalyzeResult result = analyze(corpus, baseline, "baseline.txt");
  EXPECT_EQ(result.baselined, 1u);
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].rule, "stale-baseline");
  EXPECT_EQ(result.findings[0].file, "baseline.txt");
}

TEST(AnalyzeBaseline, WriteThenReadRoundTripsToClean) {
  Corpus corpus;
  add_source(&corpus, "src/sim/a.h", "#include \"sim/b.h\"\n");
  add_source(&corpus, "src/sim/b.h", "#include \"sim/a.h\"\n");
  const AnalyzeResult first = analyze(corpus, {});
  ASSERT_FALSE(first.findings.empty());
  const std::set<std::string> baseline =
      parse_baseline(to_baseline(first));
  const AnalyzeResult second = analyze(corpus, baseline, "baseline.txt");
  EXPECT_TRUE(second.findings.empty());
  EXPECT_EQ(second.baselined, first.findings.size());
}

// A per-file finding answers to allow() comments only: it carries no key,
// so --write-baseline leaves it out and no baseline can silence it.
TEST(AnalyzeBaseline, PerFileFindingsNeverEnterTheBaseline) {
  Corpus corpus;
  add_source(&corpus, "src/sim/x.cc", "int x = rand();\n");
  const AnalyzeResult first = analyze(corpus, {});
  ASSERT_EQ(first.findings.size(), 1u);
  EXPECT_EQ(first.findings[0].rule, "no-rand");
  EXPECT_TRUE(first.findings[0].key.empty());
  const std::string body = to_baseline(first);
  EXPECT_EQ(body.find("no-rand"), std::string::npos) << body;

  const AnalyzeResult second =
      analyze(corpus, parse_baseline(body), "baseline.txt");
  ASSERT_EQ(second.findings.size(), 1u);
  EXPECT_EQ(second.findings[0].rule, "no-rand");
  EXPECT_EQ(second.baselined, 0u);
  EXPECT_EQ(second.suppressed, 0u);
}

// allow() accepts per-file rule ids only: naming a cross-file analysis is
// a bad-suppression, and the cross-file finding stays.
TEST(AnalyzeBaseline, AllowNamingACrossFileRuleIsABadSuppression) {
  Corpus corpus;
  add_source(&corpus, "src/core/stats.cc",
             "void f(StatRegistry& s) {\n"
             "  s.counter(\"BadName\", 1);  // ara-lint: allow(stat-grammar)\n"
             "}\n");
  const AnalyzeResult result = analyze(corpus, {});
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
  const AnalyzeResult result = analyze(corpus, {});
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
  EXPECT_EQ(catalog.size(), 17u);
  EXPECT_EQ(per_file,
            (std::set<std::string>{
                "bad-suppression", "layering", "no-deprecated-api",
                "no-naked-lock", "no-rand", "no-raw-new-delete",
                "no-unordered-iter", "no-wall-clock"}));
  EXPECT_EQ(cross_file,
            (std::set<std::string>{
                "include-cycle", "lock-order", "proto-unparsed",
                "proto-unproduced", "stale-baseline", "stat-grammar",
                "stat-phantom", "stat-undocumented", "transitive-layering"}));
}

// ------------------------------------------------------ fixture corpus

TEST(AnalyzeFixtures, BadTwinFiresEveryAnalysis) {
  const std::string root = fixture_root("bad");
  const Corpus corpus = load_corpus({root}, {root + "/DESIGN.md"});
  ASSERT_EQ(corpus.files.size(), 10u);
  ASSERT_EQ(corpus.docs.size(), 1u);
  const AnalyzeResult result = analyze(corpus, {});
  EXPECT_EQ(finding_rules(result.findings),
            (std::set<std::string>{"include-cycle", "transitive-layering",
                                   "lock-order", "stat-grammar",
                                   "stat-undocumented", "stat-phantom",
                                   "proto-unproduced"}));
  EXPECT_EQ(result.findings.size(), 7u);
  // Keys are stable rel-paths: independent of where the checkout lives.
  const std::set<std::string> keys = finding_keys(result.findings);
  EXPECT_TRUE(keys.count("transitive-layering:src/sim/engine.cc:serve"));
  EXPECT_TRUE(keys.count("include-cycle:src/sim/cycle_a.h <-> "
                         "src/sim/cycle_b.h"));
  EXPECT_TRUE(keys.count("proto-unproduced:ghost"));
  EXPECT_TRUE(keys.count("stat-undocumented:sim.fixture.ghostly"));
}

TEST(AnalyzeFixtures, GoodTwinIsCompletelySilent) {
  const std::string root = fixture_root("good");
  const Corpus corpus = load_corpus({root}, {root + "/DESIGN.md"});
  ASSERT_EQ(corpus.files.size(), 10u);
  const AnalyzeResult result = analyze(corpus, {});
  EXPECT_TRUE(result.findings.empty())
      << to_text(result);
}

}  // namespace
}  // namespace ara::analyze
