// Tests for the `.dx` scenario parser, printer and the rule-parser error
// paths: feature coverage, positioned errors on malformed input, the
// formula nesting cap, what the streaming parser must keep (id order,
// error positions deep in a block), and the
// parse -> print -> parse round-trip over the whole golden corpus.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "logic/parser.h"
#include "mapping/rule_parser.h"
#include "text/dx_parser.h"
#include "text/dx_printer.h"

namespace ocdx {
namespace {

namespace fs = std::filesystem;

Result<DxScenario> Parse(std::string_view src, Universe* u) {
  return ParseDxScenario(src, u);
}

std::string ReadFileOrDie(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

constexpr char kConference[] = R"(
scenario 'conference';
schema src {
  Papers(paper, title);
  Assignments(paper, reviewer);
}
schema tgt {
  Submissions(paper, author);
  Reviews(paper, review);
}
mapping M from src to tgt [default op] {
  Submissions(x^cl, z) :- Papers(x, y);
  Reviews(x^cl, z^op) :- Papers(x, y) & !exists r. Assignments(x, r);
}
instance S over src {
  Papers('p1', 'OpenWorlds');
  Assignments('p1', 'alice');
}
query submitted(p) 'papers with a submission' {
  exists a. Submissions(p, a)
}
query one_author() {
  forall p a1 a2. (Submissions(p, a1) & Submissions(p, a2)) -> a1 = a2
}
)";

TEST(DxParser, ParsesFullScenario) {
  Universe u;
  Result<DxScenario> sc = Parse(kConference, &u);
  ASSERT_TRUE(sc.ok()) << sc.status().ToString();
  const DxScenario& s = sc.value();
  EXPECT_EQ(s.name, "conference");
  ASSERT_EQ(s.schemas.size(), 2u);
  EXPECT_EQ(s.schemas[0].name, "src");
  EXPECT_EQ(s.schemas[0].schema.Arity("Papers"), 2u);
  ASSERT_EQ(s.mappings.size(), 1u);
  EXPECT_EQ(s.mappings[0].from, "src");
  EXPECT_EQ(s.mappings[0].to, "tgt");
  ASSERT_EQ(s.mappings[0].mapping.stds().size(), 2u);
  // `default op` applies to the unannotated z in the first head atom.
  EXPECT_EQ(s.mappings[0].mapping.stds()[0].head[0].ann[1], Ann::kOpen);
  ASSERT_EQ(s.instances.size(), 1u);
  EXPECT_FALSE(s.instances[0].annotated);
  EXPECT_EQ(s.instances[0].plain.TotalTuples(), 2u);
  ASSERT_EQ(s.queries.size(), 2u);
  EXPECT_EQ(s.queries[0].vars, std::vector<std::string>{"p"});
  EXPECT_EQ(s.queries[0].description, "papers with a submission");
  EXPECT_TRUE(s.queries[1].vars.empty());
  // Lookup helpers.
  EXPECT_NE(s.FindSchema("tgt"), nullptr);
  EXPECT_NE(s.FindMapping("M"), nullptr);
  EXPECT_NE(s.FindInstance("S"), nullptr);
  EXPECT_NE(s.FindQuery("one_author"), nullptr);
  EXPECT_EQ(s.FindQuery("nope"), nullptr);
}

TEST(DxParser, NullLiteralsAreInternedPerFile) {
  Universe u;
  Result<DxScenario> sc = Parse(R"(
schema s { R(a, b); }
instance I over s {
  R('x', _n1);
  R(_n1, _n2);
}
)", &u);
  ASSERT_TRUE(sc.ok()) << sc.status().ToString();
  const Relation* r = sc.value().instances[0].plain.Find("R");
  ASSERT_NE(r, nullptr);
  // _n1 in both facts is the same null.
  Value n1a = r->tuples()[0][1];
  Value n1b = r->tuples()[1][0];
  EXPECT_EQ(n1a, n1b);
  EXPECT_TRUE(n1a.IsNull());
  EXPECT_EQ(u.Describe(n1a), "_n1");
  EXPECT_EQ(sc.value().instances[0].plain.Nulls().size(), 2u);
}

TEST(DxParser, AnnotatedInstanceLiteralsAndMarkers) {
  Universe u;
  Result<DxScenario> sc = Parse(R"(
schema s { Q(a, b); R(a); }
instance T over s {
  Q('a'^cl, _u1^op);
  R(^op);
}
)", &u);
  ASSERT_TRUE(sc.ok()) << sc.status().ToString();
  const DxInstanceDecl& t = sc.value().instances[0];
  EXPECT_TRUE(t.annotated);
  const AnnotatedRelation* q = t.annotated_instance.Find("Q");
  ASSERT_NE(q, nullptr);
  ASSERT_EQ(q->size(), 1u);
  EXPECT_EQ(q->tuples()[0].ann[0], Ann::kClosed);
  EXPECT_EQ(q->tuples()[0].ann[1], Ann::kOpen);
  const AnnotatedRelation* r = t.annotated_instance.Find("R");
  ASSERT_NE(r, nullptr);
  ASSERT_EQ(r->size(), 1u);
  EXPECT_TRUE(r->tuples()[0].IsEmptyMarker());
  // rel(T) drops the marker.
  EXPECT_EQ(t.plain.Find("R")->size(), 0u);
}

TEST(DxParser, UnannotatedInstanceIsHeldOnce) {
  Universe u;
  Result<DxScenario> sc = Parse(R"(
schema s { Q(a, b); R(a); }
instance I over s { Q('a', 'b'); Q('a', 'b'); R('c'); }
)", &u);
  ASSERT_TRUE(sc.ok()) << sc.status().ToString();
  const DxInstanceDecl& i = sc.value().instances[0];
  EXPECT_FALSE(i.annotated);
  EXPECT_EQ(i.plain.Find("Q")->size(), 1u);
  EXPECT_EQ(i.plain.Find("R")->size(), 1u);
  EXPECT_TRUE(i.annotated_instance.relations().empty());
}

TEST(DxParser, FirstAnnotationSeedsEarlierFactsAsClosed) {
  // Facts before the instance's first `^` enter the annotated view as
  // all-`cl` rows, in order; rel(T) is the annotated view's RelPart,
  // row for row.
  Universe u;
  Result<DxScenario> sc = Parse(R"(
schema s { R(a); P(a); }
instance T over s {
  R('b'); R('a'); R('b');
  R('a'^op); R('c'); R(^op); R('d'^cl);
}
)", &u);
  ASSERT_TRUE(sc.ok()) << sc.status().ToString();
  const DxInstanceDecl& t = sc.value().instances[0];
  ASSERT_TRUE(t.annotated);
  const AnnotatedRelation* r = t.annotated_instance.Find("R");
  ASSERT_NE(r, nullptr);
  ASSERT_NE(t.annotated_instance.Find("P"), nullptr);
  const std::vector<std::pair<std::string, Ann>> want = {
      {"b", Ann::kClosed}, {"a", Ann::kClosed}, {"a", Ann::kOpen},
      {"c", Ann::kClosed}, {"", Ann::kOpen},    {"d", Ann::kClosed}};
  ASSERT_EQ(r->size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    const AnnotatedTupleRef row = r->tuples()[i];
    ASSERT_EQ(row.ann.size(), 1u) << "row " << i;
    EXPECT_EQ(row.ann[0], want[i].second) << "row " << i;
    if (want[i].first.empty()) {
      EXPECT_TRUE(row.IsEmptyMarker()) << "row " << i;
    } else {
      EXPECT_EQ(u.Describe(row.values[0]), want[i].first) << "row " << i;
    }
  }
  const Relation rel_part = r->RelPart();
  const Relation* plain = t.plain.Find("R");
  ASSERT_EQ(plain->size(), rel_part.size());
  for (size_t i = 0; i < rel_part.size(); ++i) {
    EXPECT_EQ(plain->tuples()[i], rel_part.tuples()[i]) << "row " << i;
  }
}

TEST(DxParser, IntegerConstantsInternLikeQuoted) {
  Universe u;
  Result<DxScenario> sc = Parse(R"(
schema s { R(a); }
instance I over s { R(42); R('42'); }
)", &u);
  ASSERT_TRUE(sc.ok()) << sc.status().ToString();
  // 42 and '42' are the same constant, so the relation deduplicates.
  EXPECT_EQ(sc.value().instances[0].plain.Find("R")->size(), 1u);
}

TEST(DxParser, SkolemMappingsNeedTheAttribute) {
  Universe u;
  const char kSk[] = R"(
schema s { S(em, proj); }
schema t { T(mgr, em); }
mapping M from s to t %s {
  T(f(em)^cl, em^cl) :- S(em, proj);
}
)";
  char with[512], without[512];
  std::snprintf(with, sizeof(with), kSk, "[skolem]");
  std::snprintf(without, sizeof(without), kSk, "");
  EXPECT_TRUE(Parse(with, &u).ok());
  Result<DxScenario> rejected = Parse(without, &u);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("function terms"),
            std::string::npos);
}

// --- Positioned errors ------------------------------------------------------

struct BadCase {
  const char* name;
  const char* src;
  const char* expect_substring;
};

TEST(DxParserErrors, MalformedInputsGivePositionedParseErrors) {
  const BadCase cases[] = {
      {"lex-unknown-char", "schema s { R(a); } $", "unexpected character"},
      {"lex-unterminated-quote", "scenario 'oops;\n", "unterminated"},
      {"lex-lone-dash", "schema s { R(a-b); }", "did you mean '->'"},
      {"lex-lone-colon", "schema s { R(a:b); }", "did you mean ':-'"},
      {"unknown-section", "table s { }", "expected 'scenario'"},
      {"dup-scenario", "scenario 'a'; scenario 'b';", "duplicate 'scenario'"},
      {"dup-schema", "schema s { } schema s { }", "duplicate schema"},
      {"dup-relation", "schema s { R(a); R(b); }", "duplicate relation"},
      {"unterminated-schema", "schema s { R(a);", "expected a relation name"},
      {"mapping-unknown-schema", "schema s { R(a); }\n"
       "mapping M from s to t { }", "undeclared schema 't'"},
      {"mapping-bad-attr", "schema s { R(a); }\n"
       "mapping M from s to s [wat] { }", "mapping attribute"},
      {"dup-mapping", "schema s { R(a); }\n"
       "mapping M from s to s { R(x^cl) :- R(x); }\n"
       "mapping M from s to s { R(x^cl) :- R(x); }", "duplicate mapping"},
      {"rule-missing-colondash", "schema s { R(a); }\n"
       "mapping M from s to s { R(x^cl); }", "':-'"},
      {"rule-bad-annotation", "schema s { R(a); }\n"
       "mapping M from s to s { R(x^open) :- R(x); }",
       "expected 'op' or 'cl'"},
      {"rule-head-not-in-target", "schema s { R(a); }\n"
       "mapping M from s to s { T(x^cl) :- R(x); }", "not declared"},
      {"rule-arity-mismatch", "schema s { R(a); }\n"
       "mapping M from s to s { R(x^cl, y^cl) :- R(x); }",
       "does not match declared arity"},
      {"unclosed-mapping-block", "schema s { R(a); }\n"
       "mapping M from s to s { R(x^cl) :- R(x);", "unterminated"},
      {"brace-inside-rule", "schema s { R(a); }\n"
       "mapping M from s to s { R(x^cl) :- [ R(x); }",
       "unexpected '['"},
      {"instance-unknown-schema", "instance I over s { }",
       "undeclared schema"},
      {"fact-undeclared-relation", "schema s { R(a); }\n"
       "instance I over s { T('x'); }", "not declared"},
      {"fact-arity", "schema s { R(a); }\n"
       "instance I over s { R('x', 'y'); }", "arity"},
      {"fact-variable", "schema s { R(a); }\n"
       "instance I over s { R(x); }", "expected a value"},
      {"fact-bare-underscore", "schema s { R(a); }\n"
       "instance I over s { R(_); }", "needs a name"},
      {"fact-marker-mix", "schema s { R(a, b); }\n"
       "instance I over s { R('x', ^cl); }", "mixes empty-marker"},
      {"dup-instance", "schema s { R(a); }\n"
       "instance I over s { }\ninstance I over s { }",
       "duplicate instance"},
      {"query-var-mismatch", "schema s { R(a); }\n"
       "query q(x, y) { R(x) }", "free variables"},
      {"query-dup-var", "schema s { R(a); }\n"
       "query q(x, x) { R(x) }", "repeats a head variable"},
      {"query-unknown-relation", "schema s { R(a); }\n"
       "query q(x) { T(x) }", "not declared in any schema"},
      {"query-malformed-formula", "schema s { R(a); }\n"
       "query q(x) { R(x) & }", "expected"},
      {"dup-query", "schema s { R(a); }\n"
       "query q() { exists x. R(x) }\nquery q() { exists x. R(x) }",
       "duplicate query"},
  };
  for (const BadCase& c : cases) {
    SCOPED_TRACE(c.name);
    Universe u;
    Result<DxScenario> result = Parse(c.src, &u);
    ASSERT_FALSE(result.ok()) << "expected failure for: " << c.src;
    const Status& status = result.status();
    EXPECT_NE(status.message().find(c.expect_substring), std::string::npos)
        << "message: " << status.message();
    // Every error is positioned: "line L, col C" somewhere in the message.
    EXPECT_NE(status.message().find("line "), std::string::npos)
        << "unpositioned message: " << status.message();
  }
}

TEST(DxParserErrors, RuleErrorsInsideBlocksPointIntoTheFile) {
  Universe u;
  Result<DxScenario> result = Parse(
      "schema s { R(a); }\n"
      "mapping M from s to s {\n"
      "  R(x^cl) :- R(x) &&& R(x);\n"
      "}\n",
      &u);
  ASSERT_FALSE(result.ok());
  // The '&&&' sits on line 3: the embedded rule parser's offset has been
  // translated back into the .dx file's coordinates.
  EXPECT_NE(result.status().message().find("line 3"), std::string::npos)
      << result.status().message();
}

// --- rule_parser error paths (direct API) -----------------------------------

TEST(RuleParserErrors, MalformedRulesDoNotCrash) {
  Universe u;
  const char* bad[] = {
      "",
      ":- P(x)",
      "T(x^cl)",
      "T(x^cl) :-",
      "T(x^) :- P(x)",
      "T(x^both) :- P(x)",
      "T(x^cl) : P(x)",
      "T(x^cl) :- P(x",
      "T(x^cl) :- P(x) extra",
  };
  for (const char* src : bad) {
    SCOPED_TRACE(src);
    Result<AnnotatedStd> r = ParseStd(src, &u);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
    EXPECT_FALSE(r.status().message().empty());
  }
}

TEST(RuleParserErrors, ErrorsCarryOffsets) {
  Universe u;
  Result<AnnotatedStd> r = ParseStd("T(x^cl) :- P(x) &", &u);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("offset"), std::string::npos)
      << r.status().message();
}

// --- Formula nesting cap ------------------------------------------------------

std::string Repeat(std::string_view s, int n) {
  std::string out;
  out.reserve(s.size() * static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

// 10^5 levels of each recursive construct, in a query block and in a
// mapping rule body: a positioned ParseError, not a stack overflow.
TEST(DxParserErrors, DeepNestingIsAPositionedError) {
  constexpr int kDeep = 100000;
  const std::string schema = "schema s { R(a); }\n";
  const std::string parens = Repeat("(", kDeep) + "R(x)" + Repeat(")", kDeep);
  const std::string bangs = Repeat("!", kDeep) + "R(x)";
  const std::string quantifiers = Repeat("exists y. ", kDeep) + "R(x)";
  const std::string terms =
      "R(x) & x = " + Repeat("f(", kDeep) + "x" + Repeat(")", kDeep);
  const struct {
    const char* name;
    std::string body;
  } cases[] = {{"parens", parens},
               {"bangs", bangs},
               {"quantifiers", quantifiers},
               {"function terms", terms}};
  for (const auto& c : cases) {
    for (bool in_rule : {false, true}) {
      SCOPED_TRACE(std::string(c.name) + (in_rule ? " in a rule" : " in a query"));
      const std::string src =
          schema + (in_rule ? "mapping M from s to s { R(x^cl) :- " + c.body +
                                  "; }\n"
                            : "query q(x) { " + c.body + " }\n");
      Universe u;
      Result<DxScenario> result = Parse(src, &u);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kParseError);
      EXPECT_EQ(result.status().message().rfind(
                    "formula nested deeper than 256 levels at line 2, col ", 0),
                0u)
          << result.status().message();
    }
  }
}

TEST(DxParserErrors, NestingCapCountsLevels) {
  // The formula itself is level 1 and each parenthesis one more: 255
  // parentheses fit, and the 256th is reported at the token after it.
  const std::string prefix = "schema s { R(a); }\nquery q() { ";
  for (int parens : {255, 256}) {
    SCOPED_TRACE(parens);
    Universe u;
    Result<DxScenario> result = Parse(prefix + Repeat("(", parens) + "true" +
                                          Repeat(")", parens) + " }\n",
                                      &u);
    if (parens < FormulaParser::kMaxDepth) {
      EXPECT_TRUE(result.ok()) << result.status().ToString();
    } else {
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().message(),
                "formula nested deeper than 256 levels at line 2, col " +
                    std::to_string(13 + parens));
    }
  }
}

// --- What the streaming parser must keep --------------------------------------

// Constants and nulls get ids in order of first appearance in the text,
// whichever block they appear in: byte-identical output depends on it.
TEST(DxParserOrder, IdsFollowFirstAppearance) {
  constexpr char kSrc[] = R"(
schema s { R(a, b); P(a); }
schema t { T(a, b); }
mapping M from s to t { T(x^cl, y^op) :- R(x, y) & P('r1') & R(x, 'r2'); }
instance I over s { R('f1', 7); R(_n2, 'f2'); P('r2'); P(_n1); R('f1', 'f3'); }
query q(x) { T(x, 'q1') | T(x, 7) | R(x, 'q2') }
)";
  Universe u;
  Result<DxScenario> full = Parse(kSrc, &u);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  const std::vector<std::string> want = {"r1", "r2", "f1", "7",
                                         "f2", "f3", "q1", "q2"};
  ASSERT_EQ(u.num_consts(), want.size());
  for (uint32_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(u.ConstName(i), want[i]) << "const id " << i;
  }
  // Null literals are instance-only; `_n2` is seen first.
  ASSERT_EQ(u.num_nulls(), 2u);
  EXPECT_EQ(u.null_info(Value::MakeNull(0)).label, "n2");
  EXPECT_EQ(u.null_info(Value::MakeNull(1)).label, "n1");
}

// An error deep inside a large instance block reports the position a
// hand count gives: fact i sits alone on line i + 2.
TEST(DxParserErrors, ErrorInTheTwentyThousandthFactIsPositioned) {
  constexpr int kBadFact = 20000;
  std::string head = "schema s { R(a, b); }\ninstance I over s {\n";
  for (int i = 1; i < kBadFact; ++i) {
    head += "  R('v" + std::to_string(i) + "', " + std::to_string(i) + ");\n";
  }
  const struct {
    const char* name;
    const char* fact;
    const char* message;
  } cases[] = {
      {"unknown relation", "  Q('x', 1);",
       "relation 'Q' is not declared in the instance's schema at line 20002, "
       "col 3"},
      {"wrong arity", "  R('x');",
       "fact for 'R' has arity 1 but the schema declares arity 2 at line "
       "20002, col 3"},
      {"bare underscore", "  R(_, 1);",
       "a null literal needs a name after '_' near '_' at line 20002, col 5"},
      {"missing semicolon", "  R('x', 1)",
       "expected ';' after fact near '}' at line 20003, col 1"},
      {"marker mixed with values", "  R('x', ^cl);",
       "fact for 'R' mixes empty-marker positions with values at line 20002, "
       "col 3"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    Universe u;
    Result<DxScenario> result = Parse(head + c.fact + "\n}\n", &u);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kParseError);
    EXPECT_EQ(result.status().message(), c.message);
  }
}

std::vector<fs::path> CorpusFiles() {
  std::vector<fs::path> files;
  for (const char* dir : {OCDX_CORPUS_DIR, OCDX_EXAMPLES_DX_DIR}) {
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.path().extension() == ".dx") files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

// --- Round-trips over the corpus --------------------------------------------

TEST(DxRoundTrip, ParsePrintParseIsIdentityOverTheCorpus) {
  const std::vector<fs::path> files = CorpusFiles();
  ASSERT_FALSE(files.empty());
  for (const fs::path& file : files) {
    SCOPED_TRACE(file.string());
    Universe u1;
    Result<DxScenario> first = Parse(ReadFileOrDie(file), &u1);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    const std::string printed = PrintDxScenario(first.value(), u1);

    Universe u2;
    Result<DxScenario> second = Parse(printed, &u2);
    ASSERT_TRUE(second.ok())
        << "printer emitted unparseable text: " << second.status().ToString()
        << "\n--- printed ---\n" << printed;
    // The printer's output is a fixpoint of parse-then-print...
    EXPECT_EQ(printed, PrintDxScenario(second.value(), u2));

    // ...and the reparse is structurally identical: schemas, mappings
    // (rule-by-rule), instances and queries all agree.
    const DxScenario& a = first.value();
    const DxScenario& b = second.value();
    ASSERT_EQ(a.schemas.size(), b.schemas.size());
    for (size_t i = 0; i < a.schemas.size(); ++i) {
      EXPECT_EQ(a.schemas[i].schema.ToString(),
                b.schemas[i].schema.ToString());
    }
    ASSERT_EQ(a.mappings.size(), b.mappings.size());
    for (size_t i = 0; i < a.mappings.size(); ++i) {
      EXPECT_EQ(a.mappings[i].mapping.ToString(u1),
                b.mappings[i].mapping.ToString(u2));
    }
    ASSERT_EQ(a.instances.size(), b.instances.size());
    for (size_t i = 0; i < a.instances.size(); ++i) {
      EXPECT_EQ(a.instances[i].annotated, b.instances[i].annotated);
      EXPECT_EQ(a.instances[i].plain.TotalTuples(),
                b.instances[i].plain.TotalTuples());
      EXPECT_EQ(a.instances[i].annotated_instance.TotalTuples(),
                b.instances[i].annotated_instance.TotalTuples());
    }
    ASSERT_EQ(a.queries.size(), b.queries.size());
    for (size_t i = 0; i < a.queries.size(); ++i) {
      EXPECT_EQ(a.queries[i].formula->ToString(u1),
                b.queries[i].formula->ToString(u2));
    }
  }
}

}  // namespace
}  // namespace ocdx
