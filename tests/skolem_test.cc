// Tests for Skolemized STDs: Lemma 4 (STD -> SkSTD translation and
// equivalence), Sol_F' semantics, membership, Proposition 7 rendering,
// and the Lemma 5 / Theorem 5 composition algorithm.

#include <gtest/gtest.h>

#include "mapping/rule_parser.h"
#include "semantics/membership.h"
#include "skolem/compose.h"
#include "skolem/skolem.h"
#include "util/str.h"

namespace ocdx {
namespace {

class SkolemTest : public ::testing::Test {
 protected:
  Mapping MustParse(const std::string& rules, const Schema& src,
                    const Schema& tgt, Ann def = Ann::kClosed,
                    bool funcs = false) {
    Result<Mapping> m = ParseMapping(rules, src, tgt, &u_, def, funcs);
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    return m.ok() ? m.value() : Mapping();
  }
  Universe u_;
};

TEST_F(SkolemTest, SkolemizeIntroducesFunctionTerms) {
  Schema src, tgt;
  src.Add("E", 2);
  tgt.Add("R", 2);
  Mapping m = MustParse("R(x^cl, z^op) :- E(x, y);", src, tgt);
  Result<Mapping> sk = Skolemize(m);
  ASSERT_TRUE(sk.ok()) << sk.status().ToString();
  EXPECT_TRUE(sk.value().IsSkolemized());
  const HeadAtom& atom = sk.value().stds()[0].head[0];
  EXPECT_TRUE(atom.terms[0].IsVar());
  ASSERT_TRUE(atom.terms[1].IsFunc());
  // The Skolem function takes *all* body variables (x and y): "one id is
  // created per (x, y) witness", matching the chase's null-per-witness.
  EXPECT_EQ(atom.terms[1].args.size(), 2u);
  EXPECT_EQ(atom.ann, (AnnVec{Ann::kClosed, Ann::kOpen}));
}

// Lemma 4: (|Sigma_alpha|) = (|Skolemize(Sigma_alpha)|). Cross-validated
// against the plain solution-space membership of Theorem 2 on an
// exhaustive family of small targets.
TEST_F(SkolemTest, Lemma4EquivalenceSweep) {
  Schema src, tgt;
  src.Add("E", 2);
  tgt.Add("R", 2);
  Instance s;
  s.Add("E", {u_.Const("a"), u_.Const("b")});
  s.Add("E", {u_.Const("a"), u_.Const("c")});

  for (const char* rules :
       {"R(x^cl, z^cl) :- E(x, y);", "R(x^cl, z^op) :- E(x, y);",
        "R(x^op, z^op) :- E(x, y);"}) {
    Mapping plain = MustParse(rules, src, tgt);
    Result<Mapping> sk = Skolemize(plain);
    ASSERT_TRUE(sk.ok());

    // Enumerate all targets over a 3-element domain with <= 3 tuples.
    std::vector<Value> dom = {u_.Const("a"), u_.Const("v1"), u_.Const("v2")};
    std::vector<Tuple> all_tuples;
    for (Value x : dom) {
      for (Value y : dom) all_tuples.push_back({x, y});
    }
    int disagreements = 0;
    for (uint32_t mask = 0; mask < (1u << all_tuples.size()); ++mask) {
      if (__builtin_popcount(mask) > 3) continue;
      Instance t;
      t.GetOrCreate("R", 2);
      for (size_t i = 0; i < all_tuples.size(); ++i) {
        if ((mask >> i) & 1) t.Add("R", all_tuples[i]);
      }
      Result<MembershipResult> plain_res =
          InSolutionSpace(plain, s, t, &u_);
      ASSERT_TRUE(plain_res.ok());
      Result<SkolemMembership> sk_res =
          InSkolemSemantics(sk.value(), s, t, &u_);
      ASSERT_TRUE(sk_res.ok()) << sk_res.status().ToString();
      if (plain_res.value().member != sk_res.value().member) ++disagreements;
    }
    EXPECT_EQ(disagreements, 0) << rules;
  }
}

// The Section 5 employee example: one id per employee name (not per
// (name, project) pair), phones open.
TEST_F(SkolemTest, EmployeeExampleSolve) {
  Schema src, tgt;
  src.Add("S", {"em", "proj"});
  tgt.Add("T", {"empl_id", "em", "phone"});
  Mapping m = MustParse("T(f(em)^cl, em^cl, g(em, proj)^op) :- S(em, proj);",
                        src, tgt, Ann::kClosed, true);

  Instance s;
  s.Add("S", {u_.Const("John"), u_.Const("P1")});
  s.Add("S", {u_.Const("John"), u_.Const("P2")});

  TableOracle oracle;
  oracle.Set("f", {u_.Const("John")}, u_.Const("001"));
  oracle.Set("g", {u_.Const("John"), u_.Const("P1")}, u_.Const("1234"));
  oracle.Set("g", {u_.Const("John"), u_.Const("P2")}, u_.Const("5678"));

  Result<AnnotatedInstance> sol = SolveSkolem(m, s, &oracle, &u_);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  const AnnotatedRelation* rel = sol.value().Find("T");
  ASSERT_NE(rel, nullptr);
  // Both project rows share the id f(John) = 001.
  EXPECT_EQ(rel->NumProperTuples(), 2u);
  for (const AnnotatedTupleRef& t : rel->tuples()) {
    EXPECT_EQ(t.values[0], u_.Const("001"));
    EXPECT_EQ(t.values[1], u_.Const("John"));
  }
}

TEST_F(SkolemTest, EmployeeMembershipOpenPhonesClosedIds) {
  Schema src, tgt;
  src.Add("S", {"em", "proj"});
  tgt.Add("T", {"empl_id", "em", "phone"});
  Mapping m = MustParse("T(f(em)^cl, em^cl, g(em, proj)^op) :- S(em, proj);",
                        src, tgt, Ann::kClosed, true);
  Instance s;
  s.Add("S", {u_.Const("John"), u_.Const("P1")});

  // Multiple phones for one employee: allowed (open phone).
  Instance two_phones;
  two_phones.Add("T", {u_.Const("id1"), u_.Const("John"), u_.Const("ph1")});
  two_phones.Add("T", {u_.Const("id1"), u_.Const("John"), u_.Const("ph2")});
  Result<SkolemMembership> r1 = InSkolemSemantics(m, s, two_phones, &u_);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_TRUE(r1.value().member);
  EXPECT_TRUE(r1.value().exhaustive);

  // Two different ids for the same employee: forbidden (closed id).
  Instance two_ids;
  two_ids.Add("T", {u_.Const("id1"), u_.Const("John"), u_.Const("ph1")});
  two_ids.Add("T", {u_.Const("id2"), u_.Const("John"), u_.Const("ph2")});
  Result<SkolemMembership> r2 = InSkolemSemantics(m, s, two_ids, &u_);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2.value().member);
}

TEST_F(SkolemTest, TermNullOracleKeysOnTerms) {
  TermNullOracle oracle(&u_);
  Value a = u_.Const("a");
  Result<Value> v1 = oracle.Apply("f", {a});
  Result<Value> v2 = oracle.Apply("f", {a});
  Result<Value> v3 = oracle.Apply("f", {u_.Const("b")});
  Result<Value> v4 = oracle.Apply("g", {a});
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1.value(), v2.value());
  EXPECT_NE(v1.value(), v3.value());
  EXPECT_NE(v1.value(), v4.value());
  EXPECT_TRUE(v1.value().IsNull());
}

TEST_F(SkolemTest, SecondOrderRendering) {
  Schema src, tgt;
  src.Add("S", 2);
  tgt.Add("T", 2);
  Mapping m = MustParse("T(f(x)^cl, x^cl) :- S(x, y);", src, tgt,
                        Ann::kClosed, true);
  std::string sentence = ToSecondOrderSentence(m, u_);
  EXPECT_NE(sentence.find("exists f/1"), std::string::npos) << sentence;
  EXPECT_NE(sentence.find("forall x y"), std::string::npos) << sentence;
  EXPECT_NE(sentence.find("->"), std::string::npos) << sentence;
}

// --- Lemma 5 / Theorem 5: syntactic composition ----------------------------

class ComposeSkolemTest : public SkolemTest {
 protected:
  void SetUp() override {
    sigma_src_.Add("S", 2);
    tau_.Add("T", 2);
    omega_.Add("W", 2);
  }
  Schema sigma_src_, tau_, omega_;
};

TEST_F(ComposeSkolemTest, StructureOfComposedMapping) {
  Mapping sigma = MustParse("T(x^cl, f(x, y)^cl) :- S(x, y);", sigma_src_,
                            tau_, Ann::kClosed, true);
  Mapping delta =
      MustParse("W(a^cl, g(a, b)^cl) :- T(a, b);", tau_, omega_,
                Ann::kClosed, true);
  Result<ComposeSkolemResult> gamma = ComposeSkolem(sigma, delta, &u_);
  ASSERT_TRUE(gamma.ok()) << gamma.status().ToString();
  EXPECT_TRUE(gamma.value().flattened_to_cq);
  ASSERT_EQ(gamma.value().gamma.stds().size(), 1u);
  const AnnotatedStd& rule = gamma.value().gamma.stds()[0];
  // Head preserved verbatim (left-hand sides of Delta).
  EXPECT_EQ(rule.head[0].rel, "W");
  // Body mentions sigma's source relation and sigma's function.
  EXPECT_TRUE(RelationsIn(rule.body).count("S"));
  auto funcs = FunctionsIn(rule.body);
  EXPECT_TRUE(funcs.count("f")) << rule.ToString(u_);
}

TEST_F(ComposeSkolemTest, FunctionSymbolCollisionIsRenamed) {
  Mapping sigma = MustParse("T(x^cl, f(x, y)^cl) :- S(x, y);", sigma_src_,
                            tau_, Ann::kClosed, true);
  Mapping delta = MustParse("W(a^cl, f(a)^cl) :- T(a, b);", tau_, omega_,
                            Ann::kClosed, true);
  Result<ComposeSkolemResult> gamma = ComposeSkolem(sigma, delta, &u_);
  ASSERT_TRUE(gamma.ok()) << gamma.status().ToString();
  auto funcs = FunctionsIn(gamma.value().gamma.stds()[0].body);
  EXPECT_TRUE(funcs.count("f#s")) << "sigma's f must be renamed apart";
}

// Theorem 5, class 2 (all-closed FO): the syntactic composite agrees with
// the semantic composition on an exhaustive family of small instances.
TEST_F(ComposeSkolemTest, AllClosedCompositionIsCorrect) {
  Mapping sigma = MustParse("T(x^cl, f(x, y)^cl) :- S(x, y);", sigma_src_,
                            tau_, Ann::kClosed, true);
  Mapping delta = MustParse("W(a^cl, g(b)^cl) :- T(a, b);", tau_, omega_,
                            Ann::kClosed, true);
  Result<ComposeSkolemResult> gamma = ComposeSkolem(sigma, delta, &u_);
  ASSERT_TRUE(gamma.ok());

  Instance s;
  s.Add("S", {u_.Const("a"), u_.Const("b")});

  std::vector<Value> dom = {u_.Const("a"), u_.Const("b"), u_.Const("w1")};
  std::vector<Tuple> all_tuples;
  for (Value x : dom) {
    for (Value y : dom) all_tuples.push_back({x, y});
  }
  int checked = 0;
  for (uint32_t mask = 0; mask < (1u << all_tuples.size()); ++mask) {
    if (__builtin_popcount(mask) > 2) continue;
    Instance w;
    w.GetOrCreate("W", 2);
    for (size_t i = 0; i < all_tuples.size(); ++i) {
      if ((mask >> i) & 1) w.Add("W", all_tuples[i]);
    }
    Result<SkolemMembership> lhs =
        InSkolemSemantics(gamma.value().gamma, s, w, &u_);
    ASSERT_TRUE(lhs.ok()) << lhs.status().ToString();
    Result<SkolemMembership> rhs =
        InSkolemComposition(sigma, delta, s, w, &u_);
    ASSERT_TRUE(rhs.ok()) << rhs.status().ToString();
    EXPECT_EQ(lhs.value().member, rhs.value().member)
        << "W = " << w.ToString(u_);
    ++checked;
  }
  EXPECT_GT(checked, 20);
}

// Theorem 5, class 1 (all-open CQ): same agreement check.
TEST_F(ComposeSkolemTest, AllOpenCqCompositionIsCorrect) {
  Mapping sigma = MustParse("T(x^op, f(x, y)^op) :- S(x, y);", sigma_src_,
                            tau_, Ann::kOpen, true);
  Mapping delta = MustParse("W(a^op, g(b)^op) :- T(a, b);", tau_, omega_,
                            Ann::kOpen, true);
  Result<ComposeSkolemResult> gamma = ComposeSkolem(sigma, delta, &u_);
  ASSERT_TRUE(gamma.ok());
  EXPECT_TRUE(gamma.value().gamma.IsAllOpen()) << "Theorem 5: class closure";
  EXPECT_TRUE(gamma.value().flattened_to_cq);

  Instance s;
  s.Add("S", {u_.Const("a"), u_.Const("b")});

  std::vector<Value> dom = {u_.Const("a"), u_.Const("w1")};
  std::vector<Tuple> all_tuples;
  for (Value x : dom) {
    for (Value y : dom) all_tuples.push_back({x, y});
  }
  for (uint32_t mask = 0; mask < (1u << all_tuples.size()); ++mask) {
    Instance w;
    w.GetOrCreate("W", 2);
    for (size_t i = 0; i < all_tuples.size(); ++i) {
      if ((mask >> i) & 1) w.Add("W", all_tuples[i]);
    }
    Result<SkolemMembership> lhs =
        InSkolemSemantics(gamma.value().gamma, s, w, &u_);
    ASSERT_TRUE(lhs.ok()) << lhs.status().ToString();
    Result<SkolemMembership> rhs =
        InSkolemComposition(sigma, delta, s, w, &u_);
    ASSERT_TRUE(rhs.ok()) << rhs.status().ToString();
    EXPECT_EQ(lhs.value().member, rhs.value().member)
        << "W = " << w.ToString(u_);
  }
}

// A source null is not a distinguished constant of the explicit
// interpretation search (DistinguishedConstants keeps constants only, as
// ValuationEnumerator always did): a Skolem term may take it only as a
// fresh value, so a non-ground source fixes fewer constants than a ground
// one with a constant in the null's place. Pinned: member, exhaustive and
// interpretations_checked of both sources.
TEST_F(ComposeSkolemTest, SourceNullsAreNotDistinguished) {
  Mapping sigma = MustParse("T(x^cl, f(x, y)^cl) :- S(x, y);", sigma_src_,
                            tau_, Ann::kClosed, true);
  Mapping delta = MustParse("W(a^cl, g(b)^cl) :- T(a, b);", tau_, omega_,
                            Ann::kClosed, true);
  Result<ComposeSkolemResult> gamma = ComposeSkolem(sigma, delta, &u_);
  ASSERT_TRUE(gamma.ok());
  // Not a member (one S fact yields one W fact), so every
  // interpretation is checked.
  Instance w;
  w.Add("W", {u_.Const("a"), u_.Const("w1")});
  w.Add("W", {u_.Const("a"), u_.Const("w2")});
  std::string got;
  for (Value y : {u_.FreshNull("N"), u_.Const("b")}) {
    Instance s;
    s.Add("S", {u_.Const("a"), y});
    Result<SkolemMembership> v =
        InSkolemSemantics(gamma.value().gamma, s, w, &u_);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    got += StrCat(y.IsConst() ? "ground" : "null", " member=",
                  v.value().member ? 1 : 0, " exhaustive=",
                  v.value().exhaustive ? 1 : 0, " interpretations=",
                  v.value().interpretations_checked, "\n");
  }
  EXPECT_EQ(got,
            "null member=0 exhaustive=1 interpretations=21\n"
            "ground member=0 exhaustive=1 interpretations=31\n");
}

TEST_F(ComposeSkolemTest, PlainStdInputsAreSkolemizedFirst) {
  // Plain STD inputs (with existential variables) go through Lemma 4
  // automatically.
  Mapping sigma = MustParse("T(x^cl, z^cl) :- exists y. S(x, y);",
                            sigma_src_, tau_);
  Mapping delta = MustParse("W(a^cl, b^cl) :- T(a, b);", tau_, omega_);
  Result<ComposeSkolemResult> gamma = ComposeSkolem(sigma, delta, &u_);
  ASSERT_TRUE(gamma.ok()) << gamma.status().ToString();
  EXPECT_TRUE(gamma.value().gamma.IsSkolemized());
}

TEST_F(ComposeSkolemTest, SchemaMismatchRejected) {
  Mapping sigma = MustParse("T(x^cl, z^cl) :- S(x, y);", sigma_src_, tau_);
  Schema other_tau;
  other_tau.Add("T", 3);
  Schema omega;
  omega.Add("W", 2);
  Universe u2;
  Result<Mapping> delta = ParseMapping("W(a, b) :- exists c. T(a, b, c);",
                                       other_tau, omega, &u2);
  ASSERT_TRUE(delta.ok());
  EXPECT_FALSE(ComposeSkolem(sigma, delta.value(), &u_).ok());
}

TEST_F(ComposeSkolemTest, UnsupportedSemanticClassIsSignalled) {
  // Mixed annotation sigma with non-monotone delta: InSkolemComposition
  // refuses rather than guessing.
  Mapping sigma = MustParse("T(x^cl, f(x, y)^op) :- S(x, y);", sigma_src_,
                            tau_, Ann::kClosed, true);
  Mapping delta = MustParse("W(a^cl, b^cl) :- T(a, b) & !T(b, a);", tau_,
                            omega_, Ann::kClosed, true);
  Instance s, w;
  s.Add("S", {u_.Const("a"), u_.Const("b")});
  w.GetOrCreate("W", 2);
  Result<SkolemMembership> r = InSkolemComposition(sigma, delta, s, w, &u_);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnimplemented);
}

}  // namespace
}  // namespace ocdx
