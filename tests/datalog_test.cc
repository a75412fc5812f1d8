#include "datalog/seminaive.h"

#include <algorithm>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "datalog/program.h"

namespace rdfref {
namespace datalog {
namespace {

DlTerm V(uint32_t v) { return DlTerm::Var(v); }
DlTerm C(rdf::TermId c) { return DlTerm::Const(c); }
using Tuple = std::vector<rdf::TermId>;

TEST(ProgramTest, ValidatesArity) {
  Program p;
  PredId edge = p.AddPredicate("edge", 2);
  EXPECT_TRUE(p.AddFact(edge, {1, 2}).ok());
  EXPECT_FALSE(p.AddFact(edge, {1}).ok());
  EXPECT_FALSE(p.AddFact(edge + 7, {1, 2}).ok());
}

TEST(ProgramTest, ValidatesRules) {
  Program p;
  PredId edge = p.AddPredicate("edge", 2);
  PredId path = p.AddPredicate("path", 2);
  // OK: path(X,Y) :- edge(X,Y).
  EXPECT_TRUE(
      p.AddRule({DlAtom(path, {V(0), V(1)}), {DlAtom(edge, {V(0), V(1)})}})
          .ok());
  // Not range-restricted: head var 2 not in body.
  EXPECT_FALSE(
      p.AddRule({DlAtom(path, {V(0), V(2)}), {DlAtom(edge, {V(0), V(1)})}})
          .ok());
  // Empty body.
  EXPECT_FALSE(p.AddRule({DlAtom(path, {V(0), V(1)}), {}}).ok());
  // Arity mismatch in body atom.
  EXPECT_FALSE(
      p.AddRule({DlAtom(path, {V(0), V(1)}), {DlAtom(edge, {V(0)})}}).ok());
}

TEST(SemiNaiveTest, TransitiveClosure) {
  Program p;
  PredId edge = p.AddPredicate("edge", 2);
  PredId path = p.AddPredicate("path", 2);
  // Chain 0→1→2→3→4.
  for (rdf::TermId i = 0; i < 4; ++i) {
    ASSERT_TRUE(p.AddFact(edge, {i, i + 1}).ok());
  }
  ASSERT_TRUE(
      p.AddRule({DlAtom(path, {V(0), V(1)}), {DlAtom(edge, {V(0), V(1)})}})
          .ok());
  ASSERT_TRUE(p.AddRule({DlAtom(path, {V(0), V(2)}),
                         {DlAtom(path, {V(0), V(1)}),
                          DlAtom(edge, {V(1), V(2)})}})
                  .ok());
  SemiNaive eval(&p);
  eval.Run();
  // 4+3+2+1 = 10 paths.
  EXPECT_EQ(eval.relation(path).size(), 10u);
  EXPECT_GE(eval.iterations(), 3u);  // chains need several rounds
}

TEST(SemiNaiveTest, RunIsIdempotent) {
  Program p;
  PredId edge = p.AddPredicate("edge", 2);
  ASSERT_TRUE(p.AddFact(edge, {0, 1}).ok());
  SemiNaive eval(&p);
  eval.Run();
  size_t n = eval.TotalTuples();
  eval.Run();
  EXPECT_EQ(eval.TotalTuples(), n);
}

TEST(SemiNaiveTest, ConstantsInRules) {
  Program p;
  PredId edge = p.AddPredicate("edge", 2);
  PredId from_zero = p.AddPredicate("from_zero", 1);
  ASSERT_TRUE(p.AddFact(edge, {0, 1}).ok());
  ASSERT_TRUE(p.AddFact(edge, {2, 3}).ok());
  ASSERT_TRUE(p.AddRule({DlAtom(from_zero, {V(0)}),
                         {DlAtom(edge, {C(0), V(0)})}})
                  .ok());
  SemiNaive eval(&p);
  eval.Run();
  EXPECT_EQ(eval.relation(from_zero).size(), 1u);
  EXPECT_EQ(eval.relation(from_zero).tuple(0)[0], 1u);
}

TEST(SemiNaiveTest, JoinWithRepeatedVariables) {
  Program p;
  PredId edge = p.AddPredicate("edge", 2);
  PredId looped = p.AddPredicate("looped", 1);
  ASSERT_TRUE(p.AddFact(edge, {0, 0}).ok());
  ASSERT_TRUE(p.AddFact(edge, {0, 1}).ok());
  ASSERT_TRUE(
      p.AddRule({DlAtom(looped, {V(0)}), {DlAtom(edge, {V(0), V(0)})}}).ok());
  SemiNaive eval(&p);
  eval.Run();
  EXPECT_EQ(eval.relation(looped).size(), 1u);
}

TEST(SemiNaiveTest, EvaluateRuleOnceDoesNotMaterialize) {
  Program p;
  PredId edge = p.AddPredicate("edge", 2);
  PredId out = p.AddPredicate("out", 2);
  ASSERT_TRUE(p.AddFact(edge, {0, 1}).ok());
  ASSERT_TRUE(p.AddFact(edge, {1, 2}).ok());
  SemiNaive eval(&p);
  eval.Run();
  DlRule query{DlAtom(out, {V(0), V(2)}),
               {DlAtom(edge, {V(0), V(1)}), DlAtom(edge, {V(1), V(2)})}};
  engine::Table rows = eval.EvaluateRuleOnce(query);
  ASSERT_EQ(rows.NumRows(), 1u);
  EXPECT_EQ(rows.RowVectors()[0], (std::vector<rdf::TermId>{0, 2}));
  EXPECT_EQ(eval.relation(out).size(), 0u);  // not stored
}

TEST(DlRelationTest, InsertDedupAndIndex) {
  DlRelation rel(2);
  EXPECT_TRUE(rel.Insert(Tuple{1, 2}));
  EXPECT_FALSE(rel.Insert(Tuple{1, 2}));
  EXPECT_TRUE(rel.Insert(Tuple{1, 3}));
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_EQ(rel.Matching(0, 1).size(), 2u);
  EXPECT_EQ(rel.Matching(1, 3).size(), 1u);
  EXPECT_TRUE(rel.Matching(1, 99).empty());
  // Index extends after later inserts.
  EXPECT_TRUE(rel.Insert(Tuple{1, 4}));
  EXPECT_EQ(rel.Matching(0, 1).size(), 3u);
}

// A seeded tri(s, p, o)-shaped EDB: a "type" property, a teacherOf-like and
// a takesCourse-like property, plus self-loops for repeated variables.
constexpr rdf::TermId kType = 1, kTeaches = 2, kTakes = 3, kLoop = 4,
                      kStudent = 5;

PredId AddRandomTriples(Program* p, uint64_t seed) {
  PredId tri = p->AddPredicate("tri", 3);
  Rng rng(seed);
  auto node = [&] { return static_cast<rdf::TermId>(10 + rng.Uniform(60)); };
  for (int i = 0; i < 400; ++i) {
    const rdf::TermId x = node();
    switch (rng.Uniform(5)) {
      case 0:
        EXPECT_TRUE(p->AddFact(tri, {x, kType, rng.Chance(0.5) ? kStudent
                                                                : node()})
                        .ok());
        break;
      case 1:
        EXPECT_TRUE(p->AddFact(tri, {x, kTeaches, node()}).ok());
        break;
      case 2:
        EXPECT_TRUE(p->AddFact(tri, {x, kTakes, node()}).ok());
        break;
      case 3:
        EXPECT_TRUE(p->AddFact(tri, {x, kLoop, x}).ok());
        break;
      default:
        EXPECT_TRUE(p->AddFact(tri, {x, node(), node()}).ok());
        break;
    }
  }
  return tri;
}

// Nested-loop reference for one rule over a fixpoint relation set.
std::set<std::vector<rdf::TermId>> ReferenceRule(const SemiNaive& eval,
                                                 const DlRule& rule) {
  std::set<std::vector<rdf::TermId>> out;
  std::vector<rdf::TermId> bind(16, rdf::kInvalidTermId);
  auto recurse = [&](auto&& self, size_t depth) -> void {
    if (depth == rule.body.size()) {
      std::vector<rdf::TermId> row;
      for (const DlTerm& t : rule.head.args) {
        row.push_back(t.is_var ? bind[t.id] : t.id);
      }
      out.insert(row);
      return;
    }
    const DlAtom& atom = rule.body[depth];
    const DlRelation& rel = eval.relation(atom.pred);
    for (size_t r = 0; r < rel.size(); ++r) {
      std::vector<rdf::TermId> saved = bind;
      bool ok = true;
      for (size_t i = 0; i < atom.args.size() && ok; ++i) {
        const DlTerm& t = atom.args[i];
        const rdf::TermId v = rel.tuple(r)[i];
        if (!t.is_var) {
          ok = v == t.id;
        } else if (bind[t.id] == rdf::kInvalidTermId) {
          bind[t.id] = v;
        } else {
          ok = bind[t.id] == v;
        }
      }
      if (ok) self(self, depth + 1);
      bind = saved;
    }
  };
  recurse(recurse, 0);
  return out;
}

// Every permutation of a 3-atom body yields the same row set as the
// nested-loop reference, whichever atom the bound-first join starts from.
TEST(SemiNaiveTest, RuleOnceRowSetIsOrderInvariant) {
  for (uint64_t seed : {1, 2, 3}) {
    Program p;
    PredId tri = AddRandomTriples(&p, seed);
    PredId ans = p.AddPredicate("ans", 3);
    SemiNaive eval(&p);
    eval.Run();
    const std::vector<DlRule> rules = {
        // The Q9 shape, written with its first two atoms unconnected:
        // ?s a Student . ?f teacherOf ?c . ?s takesCourse ?c .
        {DlAtom(ans, {V(0), V(1), V(2)}),
         {DlAtom(tri, {V(2), C(kType), C(kStudent)}),
          DlAtom(tri, {V(0), C(kTeaches), V(1)}),
          DlAtom(tri, {V(2), C(kTakes), V(1)})}},
        // A repeated-variable atom (x p x) next to unbound properties.
        {DlAtom(ans, {V(0), V(1), V(2)}),
         {DlAtom(tri, {V(0), C(kLoop), V(0)}),
          DlAtom(tri, {V(0), V(3), V(1)}),
          DlAtom(tri, {V(1), V(4), V(2)})}},
    };
    for (const DlRule& rule : rules) {
      const std::set<std::vector<rdf::TermId>> expected =
          ReferenceRule(eval, rule);
      ASSERT_FALSE(expected.empty()) << "seed " << seed;
      std::vector<size_t> perm = {0, 1, 2};
      do {
        DlRule permuted{rule.head, {}};
        for (size_t i : perm) permuted.body.push_back(rule.body[i]);
        EXPECT_EQ(eval.EvaluateRuleOnce(permuted).RowSet(), expected)
            << "seed " << seed << " order " << perm[0] << perm[1] << perm[2];
      } while (std::next_permutation(perm.begin(), perm.end()));
    }
  }
}

// The fixpoint does not depend on the order of rule bodies.
TEST(SemiNaiveTest, FixpointIsBodyOrderInvariant) {
  auto closure = [](bool swap_bodies) {
    Program p;
    PredId edge = p.AddPredicate("edge", 2);
    PredId path = p.AddPredicate("path", 2);
    PredId tri_path = p.AddPredicate("tri_path", 2);
    Rng rng(99);
    for (int i = 0; i < 120; ++i) {
      EXPECT_TRUE(p.AddFact(edge, {static_cast<rdf::TermId>(rng.Uniform(40)),
                                   static_cast<rdf::TermId>(rng.Uniform(40))})
                      .ok());
    }
    std::vector<DlAtom> step = {DlAtom(path, {V(0), V(1)}),
                                DlAtom(edge, {V(1), V(2)})};
    std::vector<DlAtom> hops = {DlAtom(edge, {V(0), V(1)}),
                                DlAtom(path, {V(1), V(2)}),
                                DlAtom(edge, {V(2), V(3)})};
    if (swap_bodies) {
      std::reverse(step.begin(), step.end());
      std::rotate(hops.begin(), hops.begin() + 1, hops.end());
    }
    EXPECT_TRUE(p.AddRule({DlAtom(path, {V(0), V(1)}),
                           {DlAtom(edge, {V(0), V(1)})}})
                    .ok());
    EXPECT_TRUE(p.AddRule({DlAtom(path, {V(0), V(2)}), step}).ok());
    EXPECT_TRUE(p.AddRule({DlAtom(tri_path, {V(0), V(3)}), hops}).ok());
    SemiNaive eval(&p);
    eval.Run();
    std::vector<std::set<std::vector<rdf::TermId>>> sets;
    for (PredId pred : {path, tri_path}) {
      std::set<std::vector<rdf::TermId>> rows;
      for (size_t r = 0; r < eval.relation(pred).size(); ++r) {
        std::span<const rdf::TermId> t = eval.relation(pred).tuple(r);
        rows.emplace(t.begin(), t.end());
      }
      sets.push_back(std::move(rows));
    }
    return sets;
  };
  const auto forward = closure(false);
  EXPECT_GT(forward[0].size(), 120u);
  EXPECT_FALSE(forward[1].empty());
  EXPECT_EQ(closure(true), forward);
}

// EvaluateRuleOnce is a pure read: four threads answering on one closed
// evaluator all get the single-threaded answer (run under TSan in CI).
TEST(SemiNaiveTest, ConcurrentEvaluateRuleOnceIsARead) {
  Program p;
  PredId tri = AddRandomTriples(&p, 7);
  PredId ans = p.AddPredicate("ans", 3);
  SemiNaive eval(&p);
  eval.Run();
  const DlRule rule{DlAtom(ans, {V(0), V(1), V(2)}),
                    {DlAtom(tri, {V(2), C(kType), C(kStudent)}),
                     DlAtom(tri, {V(0), C(kTeaches), V(1)}),
                     DlAtom(tri, {V(2), C(kTakes), V(1)})}};
  const std::vector<std::vector<rdf::TermId>> expected =
      eval.EvaluateRuleOnce(rule).RowVectors();
  ASSERT_FALSE(expected.empty());
  std::vector<std::vector<std::vector<rdf::TermId>>> got(4);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 20; ++i) {
        got[t] = eval.EvaluateRuleOnce(rule).RowVectors();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& rows : got) EXPECT_EQ(rows, expected);
}

}  // namespace
}  // namespace datalog
}  // namespace rdfref
