// Differential test for the canonical renderer (text/canonical_render.h).
//
// The renderer ranks each distinct value by its rendered text and sorts
// rows as rank tuples. The determinism contract is stated over bytes: rows
// print in the byte order of their whole rendered lines. The oracle below
// is the string-sorting renderer the rank renderer replaced, kept here
// verbatim: it renders every row to a string and sorts the strings. Every
// case asserts byte equality between the two, and equality of the
// canonical null names.
//
// Inputs: every tests/corpus and examples/dx file; the tests/render_fixtures
// files, which are `perfbench/gen_dx.py` output (the small variant of each
// family at seed 20080607, plus enumerate_12.dx at that seed); random
// instances over constants and nulls built through the Universe API to
// break the rank order (bytes below `'`, quotes and newlines inside
// constants, shared prefixes, null labels that prefix each other, empty
// markers beside proper tuples); and chase nulls whose witnesses hold
// those constants.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "certain/certain.h"
#include "chase/canonical.h"
#include "logic/formula.h"
#include "text/canonical_render.h"
#include "text/dx_driver.h"
#include "text/dx_parser.h"
#include "util/str.h"

namespace ocdx {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// The oracle: the string-sorting renderer.
// ---------------------------------------------------------------------------

namespace oracle {

std::map<Value, std::string> CanonicalNullNames(const AnnotatedInstance& inst,
                                                const Universe& u) {
  std::set<Value> nulls;
  for (const auto& [name, rel] : inst.relations()) {
    for (const AnnotatedTupleRef& t : rel.tuples()) {
      for (Value v : t.values) {
        if (v.IsNull()) nulls.insert(v);
      }
    }
  }
  std::map<Value, std::string> names;
  using JustKey = std::tuple<int32_t, std::vector<std::string>, std::string>;
  std::vector<std::pair<JustKey, Value>> justified;
  for (Value v : nulls) {
    const NullInfo& info = u.null_info(v);
    if (info.std_index < 0) {
      names[v] = u.Describe(v);
      continue;
    }
    std::span<const Value> wvals = u.WitnessOf(info.witness);
    std::vector<std::string> witness;
    witness.reserve(wvals.size());
    for (Value w : wvals) witness.push_back(u.Describe(w));
    justified.emplace_back(
        JustKey{info.std_index, std::move(witness), info.var}, v);
  }
  std::sort(justified.begin(), justified.end());
  for (size_t i = 0; i < justified.size(); ++i) {
    names[justified[i].second] = StrCat("@", i + 1);
  }
  return names;
}

std::string RenderValue(Value v, const Universe& u,
                        const std::map<Value, std::string>& null_names) {
  if (v.IsConst()) return StrCat("'", u.Describe(v), "'");
  auto it = null_names.find(v);
  return it != null_names.end() ? it->second : u.Describe(v);
}

std::string RenderAnnotatedTuple(const AnnotatedTupleRef& t, const Universe& u,
                                 const std::map<Value, std::string>& names) {
  std::vector<std::string> anns;
  for (Ann a : t.ann) anns.push_back(AnnToString(a));
  if (t.IsEmptyMarker()) {
    return StrCat("(_)^(", Join(anns, ","), ")");
  }
  std::vector<std::string> vals;
  for (Value v : t.values) vals.push_back(RenderValue(v, u, names));
  return StrCat("(", Join(vals, ", "), ")^(", Join(anns, ","), ")");
}

std::string RenderAnnotatedInstance(const AnnotatedInstance& inst,
                                    const Universe& u,
                                    const std::map<Value, std::string>& names,
                                    std::string_view indent) {
  std::string out;
  for (const auto& [name, rel] : inst.relations()) {
    std::vector<std::string> lines;
    for (const AnnotatedTupleRef& t : rel.tuples()) {
      lines.push_back(RenderAnnotatedTuple(t, u, names));
    }
    std::sort(lines.begin(), lines.end());
    out += lines.empty()
               ? StrCat(indent, name, " = { }\n")
               : StrCat(indent, name, " = { ", Join(lines, ", "), " }\n");
  }
  return out;
}

std::string RenderRelation(const Relation& rel, const Universe& u) {
  std::map<Value, std::string> no_names;
  std::vector<std::string> lines;
  for (TupleRef t : rel.tuples()) {
    std::vector<std::string> vals;
    for (Value v : t) vals.push_back(RenderValue(v, u, no_names));
    lines.push_back(StrCat("(", Join(vals, ", "), ")"));
  }
  std::sort(lines.begin(), lines.end());
  return lines.empty() ? "{ }" : StrCat("{ ", Join(lines, ", "), " }");
}

}  // namespace oracle

// ---------------------------------------------------------------------------
// Comparison helpers
// ---------------------------------------------------------------------------

// Both renderers over one annotated instance: equal null names, equal
// bytes. Returns the text for tests that also pin it literally.
std::string ExpectSameInstance(const AnnotatedInstance& inst,
                               const Universe& u) {
  const std::map<Value, std::string> want_names =
      oracle::CanonicalNullNames(inst, u);
  const NullNames got = CanonicalNullNames(inst, u);
  const std::map<Value, std::string> got_names(got.begin(), got.end());
  EXPECT_EQ(got_names, want_names);
  const std::string want =
      oracle::RenderAnnotatedInstance(inst, u, want_names, "  ");
  std::string text = "prefix\n";
  RenderAnnotatedInstance(inst, u, got, "  ", &text);
  EXPECT_EQ(text, "prefix\n" + want);
  return want;
}

std::string ExpectSameRelation(const Relation& rel, const Universe& u) {
  const std::string want = oracle::RenderRelation(rel, u);
  std::string text = "x = ";
  RenderRelation(rel, u, &text);
  EXPECT_EQ(text, "x = " + want);
  return want;
}

std::string ReadFileOrDie(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<fs::path> DxFilesIn(const fs::path& dir) {
  std::vector<fs::path> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".dx") out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Everything a scenario renders, through both renderers: its declared
// instances (annotated ones with their `_name` nulls and markers, plain
// ones relation by relation), the canonical solution of every chase
// pair, and the certain answers of every query over each pair's target.
// Chases or queries that trip the scenario's budget are skipped; they
// render nothing.
void ExpectSameForScenario(const fs::path& path) {
  SCOPED_TRACE(path.string());
  Universe u;
  Result<DxScenario> parsed = ParseDxScenario(ReadFileOrDie(path), &u);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const DxScenario& sc = parsed.value();
  for (const DxInstanceDecl& inst : sc.instances) {
    if (inst.annotated) {
      ExpectSameInstance(inst.annotated_instance, u);
      continue;
    }
    for (const auto& [name, rel] : inst.plain.relations()) {
      ExpectSameRelation(rel, u);
    }
  }
  for (const DxMappingDecl& m : sc.mappings) {
    for (const DxInstanceDecl& inst : sc.instances) {
      if (!DxChasePairOk(m, inst)) continue;
      Result<CanonicalSolution> csol = Chase(m.mapping, inst.plain, &u);
      if (!csol.ok()) continue;
      ExpectSameInstance(csol.value().annotated, u);
      CertainAnswerEngine engine = CertainAnswerEngine::FromCanonical(
          m.mapping, std::move(csol).value(), &u);
      for (const DxQuery& q : sc.queries) {
        if (q.vars.empty()) continue;
        bool over_target = true;
        for (const std::string& rel : RelationsIn(q.formula)) {
          over_target = over_target && m.mapping.target().Contains(rel);
        }
        if (!over_target) continue;
        Result<Relation> answers = engine.CertainAnswers(q.formula, q.vars);
        if (answers.ok()) ExpectSameRelation(answers.value(), u);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Scenario files
// ---------------------------------------------------------------------------

TEST(RenderDifferential, CorpusAndExampleFiles) {
  std::vector<fs::path> files = DxFilesIn(OCDX_CORPUS_DIR);
  for (const fs::path& p : DxFilesIn(OCDX_EXAMPLES_DX_DIR)) files.push_back(p);
  ASSERT_GE(files.size(), 10u);
  for (const fs::path& p : files) ExpectSameForScenario(p);
}

TEST(RenderDifferential, GeneratedFamilyFixtures) {
  const std::vector<fs::path> files =
      DxFilesIn(fs::path(OCDX_CORPUS_DIR).parent_path() / "render_fixtures");
  ASSERT_EQ(files.size(), 4u);
  for (const fs::path& p : files) ExpectSameForScenario(p);
}

// ---------------------------------------------------------------------------
// Adversarial values built through the Universe API
// ---------------------------------------------------------------------------

// Constant names chosen against the rank order: the empty name, bytes
// below `'` alone and after a shared prefix, a quote or newline inside,
// a quote followed by a separator byte, and the separators themselves.
const std::vector<std::string>& AdversarialNames() {
  static const std::vector<std::string> names = {
      "",     " ",    "!",     "\"",   "#",    "&",    "'",     "\n",
      "ab",   "ab c", "ab!",   "abc",  "ab\"", "ab#",  "ab&",   "a",
      "a'",   "a'b",  "a' !",  "a'',", "a', 'b", "a'\n", "a\nb", "it's",
      "a,",   "a)",   "a, b",  "b",    "_a",   "@1",   "(_)",   "a)^(op"};
  return names;
}

// Constants over AdversarialNames(), then hand-declared nulls whose
// labels prefix each other (two of them share the label `a`), then two
// unlabeled nulls.
std::vector<Value> AdversarialValues(Universe* u) {
  std::vector<Value> values;
  for (const std::string& name : AdversarialNames()) {
    values.push_back(u->Const(name));
  }
  for (const char* label : {"a", "ab", "a1", "a", "b"}) {
    values.push_back(u->FreshNull(label));
  }
  values.push_back(u->FreshNull());
  values.push_back(u->FreshNull());
  return values;
}

TEST(RenderDifferential, SharedPrefixesFollowByteOrder) {
  Universe u;
  Relation rel(1);
  for (const char* name : {"abc", "ab", "ab!", "ab c"}) {
    rel.Add({u.Const(name)});
  }
  // After `('ab`: space, `!`, then the closing quote, then `c`.
  EXPECT_EQ(ExpectSameRelation(rel, u),
            "{ ('ab c'), ('ab!'), ('ab'), ('abc') }");
}

// `'a'` is a proper prefix of `'a', 'b'`, and the next byte is the `,`
// that follows `'a'` in its own line; the lines then differ only at the
// next value, so rank order is not line order here.
TEST(RenderDifferential, QuoteCommaInsideAConstant) {
  Universe u;
  Relation rel(2);
  rel.Add({u.Const("a"), u.Const("c")});
  rel.Add({u.Const("a', 'b"), u.Const("a")});
  EXPECT_EQ(ExpectSameRelation(rel, u), "{ ('a', 'b', 'a'), ('a', 'c') }");
}

TEST(RenderDifferential, PrefixNullLabelsAndMarkers) {
  Universe u;
  const Value a = u.FreshNull("a");
  const Value ab = u.FreshNull("ab");
  const Value a1 = u.FreshNull("a1");
  const Value c = u.Const("c");
  AnnotatedInstance inst;
  inst.Add("R", {ab, c}, {Ann::kClosed, Ann::kOpen});
  inst.Add("R", {a, c}, {Ann::kClosed, Ann::kOpen});
  inst.Add("R", {a1, c}, {Ann::kClosed, Ann::kOpen});
  inst.Add("R", {a, c}, {Ann::kOpen, Ann::kOpen});
  inst.Add("R", {c, a}, {Ann::kClosed, Ann::kClosed});
  inst.Add("R", AnnotatedTupleRef{{}, AnnRef(AllOpen(2))});
  inst.Add("R", AnnotatedTupleRef{{}, AnnRef(AllClosed(2))});
  inst.Add("S", AnnotatedTupleRef{{}, AnnRef(AllOpen(1))});
  inst.GetOrCreate("Empty", 2);
  EXPECT_EQ(ExpectSameInstance(inst, u),
            "  Empty = { }\n"
            "  R = { ('c', _a)^(cl,cl), (_)^(cl,cl), (_)^(op,op), "
            "(_a, 'c')^(cl,op), (_a, 'c')^(op,op), (_a1, 'c')^(cl,op), "
            "(_ab, 'c')^(cl,op) }\n"
            "  S = { (_)^(op) }\n");
}

TEST(RenderDifferential, RandomRelationsOverAdversarialValues) {
  std::mt19937 rng(0x5EED0016u);
  for (int round = 0; round < 300; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    Universe u;
    const std::vector<Value> values = AdversarialValues(&u);
    // Each round draws from a few random values, so rows share prefixes.
    std::vector<Value> pool = values;
    std::shuffle(pool.begin(), pool.end(), rng);
    pool.resize(2 + round % 12);
    auto draw = [&] { return pool[rng() % pool.size()]; };

    const size_t arity = round % 4;
    Relation plain(arity);
    AnnotatedInstance annotated;
    AnnotatedRelation& rel = annotated.GetOrCreate("R", arity);
    annotated.GetOrCreate("Empty", 1);
    const int rows = 1 + static_cast<int>(rng() % 12);
    for (int i = 0; i < rows; ++i) {
      Tuple t;
      for (size_t p = 0; p < arity; ++p) t.push_back(draw());
      AnnVec ann;
      for (size_t p = 0; p < arity; ++p) {
        ann.push_back(rng() % 2 == 0 ? Ann::kOpen : Ann::kClosed);
      }
      plain.Add(t);
      if (arity > 0 && rng() % 5 == 0) {
        rel.Add(AnnotatedTupleRef{{}, AnnRef(ann)});
      } else {
        rel.Add(AnnotatedTupleRef{TupleRef(t), AnnRef(ann)});
      }
    }
    ExpectSameRelation(plain, u);
    ExpectSameInstance(annotated, u);
  }
}

// Rows too wide to pack into one 64-bit sort key: 8 slots over 300
// distinct values need 72 bits, so rows sort by comparing rank tuples.
TEST(RenderDifferential, WideRowsOverManyValues) {
  std::mt19937 rng(0x3DE16u);
  Universe u;
  std::vector<Value> values;
  for (int i = 0; i < 300; ++i) {
    values.push_back(u.Const("w" + std::to_string(i)));
  }
  Relation plain(8);
  AnnotatedInstance annotated;
  for (int i = 0; i < 400; ++i) {
    Tuple t;
    // Few choices in the leading slots, so rows tie on long prefixes.
    for (size_t p = 0; p < 8; ++p) {
      t.push_back(values[rng() % (p < 4 ? 3 : values.size())]);
    }
    plain.Add(t);
    annotated.Add("W", t, i % 2 == 0 ? AllOpen(8) : AllClosed(8));
  }
  ExpectSameRelation(plain, u);
  ExpectSameInstance(annotated, u);
}

// Chase nulls keyed on witnesses that hold the adversarial constants:
// their Describe texts order differently from their quoted texts (`ab`
// before `ab c`, `'ab'` after `'ab c'`), witnesses prefix each other,
// and witnesses that differ only in which `_a` null they hold tie on the
// key and fall back to Value order.
TEST(RenderDifferential, ChaseNullsOverAdversarialWitnesses) {
  std::mt19937 rng(0xC4A5E16u);
  for (int round = 0; round < 100; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    Universe u;
    const std::vector<Value> values = AdversarialValues(&u);
    AnnotatedInstance inst;
    const int nulls = 1 + static_cast<int>(rng() % 16);
    std::vector<Value> minted;
    for (int i = 0; i < nulls; ++i) {
      std::vector<Value> witness(rng() % 3);
      for (Value& w : witness) w = values[rng() % values.size()];
      NullInfo info;
      info.std_index = static_cast<int32_t>(rng() % 2);
      info.witness = u.InternWitness(witness);
      info.var = rng() % 3 == 0 ? "z" : "w";
      minted.push_back(u.MintNull(std::move(info)));
    }
    for (Value n : minted) {
      inst.Add("T", {values[rng() % values.size()], n},
               {Ann::kClosed, rng() % 2 == 0 ? Ann::kOpen : Ann::kClosed});
      inst.Add("U", {n}, {Ann::kOpen});
    }
    ExpectSameInstance(inst, u);
  }
}

// The same through a real chase: a source instance over the adversarial
// constants, chased by a mapping with two existential rules.
TEST(RenderDifferential, ChaseOverAdversarialSource) {
  Universe u;
  Result<DxScenario> parsed = ParseDxScenario(
      "schema src { S(a, b); }\n"
      "schema tgt { T(a, z); U(z, b, w); }\n"
      "mapping M from src to tgt {\n"
      "  T(x^cl, z^op) :- S(x, y);\n"
      "  U(z^cl, y^cl, w^op) :- S(x, y);\n"
      "}\n",
      &u);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::vector<Value> values = AdversarialValues(&u);
  Instance source;
  for (size_t i = 0; i < values.size(); ++i) {
    source.Add("S", {values[i], values[(i * 7 + 3) % values.size()]});
    source.Add("S", {values[i], values[(i * 5 + 1) % values.size()]});
  }
  Result<CanonicalSolution> csol =
      Chase(parsed.value().mappings[0].mapping, source, &u);
  ASSERT_TRUE(csol.ok()) << csol.status().ToString();
  ExpectSameInstance(csol.value().annotated, u);
}

}  // namespace
}  // namespace ocdx
