#include "engine/evaluator.h"

#include <gtest/gtest.h>

#include "query/cover.h"
#include "query/sparql_parser.h"
#include "rdf/graph.h"
#include "rdf/vocab.h"
#include "storage/version_set.h"
#include "testing/reference_eval.h"

namespace rdfref {
namespace engine {
namespace {

using query::Atom;
using query::Cq;
using query::Cover;
using query::QTerm;
using query::Ucq;
using query::VarId;

class EvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A small social graph: knows edges and type assertions.
    ann_ = U("ann");
    bob_ = U("bob");
    carl_ = U("carl");
    knows_ = U("knows");
    person_ = U("Person");
    graph_.Add(ann_, knows_, bob_);
    graph_.Add(bob_, knows_, carl_);
    graph_.Add(carl_, knows_, ann_);
    graph_.Add(ann_, rdf::vocab::kTypeId, person_);
    graph_.Add(bob_, rdf::vocab::kTypeId, person_);
    store_ = std::make_unique<storage::Store>(graph_);
  }

  rdf::TermId U(const std::string& name) {
    return graph_.dict().InternUri("http://ex/" + name);
  }

  Cq Parse(const std::string& text) {
    auto q = query::ParseSparql(text, &graph_.dict());
    EXPECT_TRUE(q.ok()) << q.status();
    return *q;
  }

  Table EvalDirect(const Cq& q) {
    Evaluator eval(store_.get());
    return eval.EvaluateCq(q);
  }

  rdf::Graph graph_;
  std::unique_ptr<storage::Store> store_;
  rdf::TermId ann_, bob_, carl_, knows_, person_;
};

TEST_F(EvaluatorTest, SingleAtomScan) {
  Evaluator eval(store_.get());
  Table t = eval.EvaluateCq(
      Parse("SELECT ?x ?y WHERE { ?x <http://ex/knows> ?y . }"));
  EXPECT_EQ(t.NumRows(), 3u);
}

TEST_F(EvaluatorTest, TwoAtomJoin) {
  Evaluator eval(store_.get());
  Table t = eval.EvaluateCq(Parse(
      "SELECT ?x ?z WHERE { ?x <http://ex/knows> ?y . "
      "?y <http://ex/knows> ?z . }"));
  t.Sort();
  ASSERT_EQ(t.NumRows(), 3u);  // ann→carl, bob→ann, carl→bob
}

TEST_F(EvaluatorTest, ConstantsRestrictMatches) {
  Evaluator eval(store_.get());
  Table t = eval.EvaluateCq(
      Parse("SELECT ?y WHERE { <http://ex/ann> <http://ex/knows> ?y . }"));
  ASSERT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(t.row(0)[0], bob_);
}

TEST_F(EvaluatorTest, RepeatedVariableWithinAtom) {
  // Add a self-loop; ?x knows ?x must match only it.
  graph_.Add(carl_, knows_, carl_);
  store_ = std::make_unique<storage::Store>(graph_);
  Evaluator eval(store_.get());
  Table t = eval.EvaluateCq(
      Parse("SELECT ?x WHERE { ?x <http://ex/knows> ?x . }"));
  ASSERT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(t.row(0)[0], carl_);
}

TEST_F(EvaluatorTest, CyclicTriangleJoin) {
  Evaluator eval(store_.get());
  Table t = eval.EvaluateCq(Parse(
      "SELECT ?x WHERE { ?x <http://ex/knows> ?y . ?y <http://ex/knows> ?z ."
      " ?z <http://ex/knows> ?x . }"));
  EXPECT_EQ(t.NumRows(), 3u);  // each of the three rotations
}

TEST_F(EvaluatorTest, EmptyResultOnNoMatch) {
  Evaluator eval(store_.get());
  Table t = eval.EvaluateCq(
      Parse("SELECT ?x WHERE { ?x <http://ex/hates> ?y . }"));
  EXPECT_EQ(t.NumRows(), 0u);
}

TEST_F(EvaluatorTest, DuplicateAnswersAreEliminated) {
  Evaluator eval(store_.get());
  // ?x knows somebody: ann, bob, carl each once even with many matches.
  Table t = eval.EvaluateCq(
      Parse("SELECT ?x WHERE { ?x <http://ex/knows> ?y . "
            "?x a <http://ex/Person> . }"));
  EXPECT_EQ(t.NumRows(), 2u);  // ann, bob (carl is untyped)
}

TEST_F(EvaluatorTest, ConstantHeadSlotEmitted) {
  Cq q;
  VarId x = q.AddVar("x");
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(knows_), QTerm::Const(bob_)));
  q.AddHead(QTerm::Var(x));
  q.AddHead(QTerm::Const(person_));  // constant slot, as reformulation makes
  Evaluator eval(store_.get());
  Table t = eval.EvaluateCq(q);
  ASSERT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(t.row(0)[0], ann_);
  EXPECT_EQ(t.row(0)[1], person_);
}

TEST_F(EvaluatorTest, UcqUnionsAndDedups) {
  Cq q1 = Parse("SELECT ?x WHERE { ?x <http://ex/knows> ?y . }");
  Cq q2 = Parse("SELECT ?x WHERE { ?x a <http://ex/Person> . }");
  Ucq ucq;
  ucq.Add(q1);
  ucq.Add(q2);
  Evaluator eval(store_.get());
  Table t = eval.EvaluateUcq(ucq);
  EXPECT_EQ(t.NumRows(), 3u);  // ann, bob, carl — union, deduplicated
}

TEST_F(EvaluatorTest, JucqEqualsDirectEvaluation) {
  Cq q = Parse(
      "SELECT ?x ?z WHERE { ?x <http://ex/knows> ?y . "
      "?y <http://ex/knows> ?z . ?x a <http://ex/Person> . }");
  Table direct = EvalDirect(q);

  Cover cover({{0, 2}, {1}});
  ASSERT_TRUE(cover.Validate(q).ok());
  std::vector<Cq> fragments = cover.FragmentQueries(q);
  std::vector<Ucq> ucqs;
  for (const Cq& f : fragments) ucqs.push_back(Ucq({f}));
  Evaluator eval(store_.get());
  JucqProfile profile;
  Table jucq = eval.EvaluateJucq(q, fragments, ucqs, &profile);

  direct.Sort();
  jucq.Sort();
  EXPECT_EQ(direct.RowVectors(), jucq.RowVectors());
  ASSERT_EQ(profile.fragments.size(), 2u);
  // Fragment labels name the atom indexes the fragment covers in q.
  EXPECT_EQ(profile.fragments[0].cover_fragment, "{t0,t2}");
  EXPECT_EQ(profile.fragments[1].cover_fragment, "{t1}");
  EXPECT_EQ(profile.fragments[0].ucq_members, 1u);
  EXPECT_GE(profile.total_millis, 0.0);
}

TEST_F(EvaluatorTest, JucqConstantHeadFragmentJoinsOnlyOnVariables) {
  // A fragment whose head carries a *constant* slot (reformulation rules
  // substitute constants into heads). The constant slot must not be
  // mistaken for a join column: term id 2 exists in every dictionary
  // (built-in vocabulary) and collides with the VarId of ?z, so a column
  // rebuild that calls h.var() on the constant would join fragment A's
  // constant column against ?z and wrongly drop every row.
  Cq q;
  VarId x = q.AddVar("x");
  VarId y = q.AddVar("y");
  VarId z = q.AddVar("z");
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(knows_), QTerm::Var(y)));
  q.AddAtom(Atom(QTerm::Var(y), QTerm::Const(knows_), QTerm::Var(z)));
  q.AddHead(QTerm::Var(x));
  q.AddHead(QTerm::Var(z));
  ASSERT_EQ(static_cast<rdf::TermId>(z), 2u);

  Cq frag_a;
  frag_a.AddVar("x");
  frag_a.AddVar("y");
  frag_a.AddAtom(Atom(QTerm::Var(x), QTerm::Const(knows_), QTerm::Var(y)));
  frag_a.AddHead(QTerm::Var(x));
  frag_a.AddHead(QTerm::Var(y));
  frag_a.AddHead(QTerm::Const(rdf::TermId(2)));

  Cq frag_b;
  frag_b.AddVar("x");
  frag_b.AddVar("y");
  frag_b.AddVar("z");
  frag_b.AddAtom(Atom(QTerm::Var(y), QTerm::Const(knows_), QTerm::Var(z)));
  frag_b.AddHead(QTerm::Var(y));
  frag_b.AddHead(QTerm::Var(z));

  Evaluator eval(store_.get());
  Table jucq = eval.EvaluateJucq(q, {frag_a, frag_b},
                                 {Ucq({frag_a}), Ucq({frag_b})});
  Table direct = EvalDirect(q);
  direct.Sort();
  jucq.Sort();
  EXPECT_EQ(direct.RowVectors(), jucq.RowVectors());
  EXPECT_EQ(jucq.NumRows(), 3u);  // ann→carl, bob→ann, carl→bob
}

TEST_F(EvaluatorTest, JucqEmptyFragmentUcqYieldsEmptyAnswer) {
  // A fragment whose reformulation is the empty UCQ contributes an empty
  // table; the join must produce the empty answer, not crash or ignore it.
  Cq q = Parse(
      "SELECT ?x ?z WHERE { ?x <http://ex/knows> ?y . "
      "?y <http://ex/knows> ?z . }");
  Cover cover = Cover::Singletons(2);
  std::vector<Cq> fragments = cover.FragmentQueries(q);
  std::vector<Ucq> ucqs;
  ucqs.push_back(Ucq({fragments[0]}));
  ucqs.push_back(Ucq());  // empty reformulation
  Evaluator eval(store_.get());
  JucqProfile profile;
  Table t = eval.EvaluateJucq(q, fragments, ucqs, &profile);
  EXPECT_EQ(t.NumRows(), 0u);
  ASSERT_EQ(profile.fragments.size(), 2u);
  EXPECT_EQ(profile.fragments[1].ucq_members, 0u);
  EXPECT_EQ(profile.fragments[1].result_rows, 0u);
}

TEST_F(EvaluatorTest, JucqZeroFragmentsYieldsEmptyAnswer) {
  Cq q = Parse("SELECT ?x WHERE { ?x <http://ex/knows> ?y . }");
  Evaluator eval(store_.get());
  Table t = eval.EvaluateJucq(q, {}, {});
  EXPECT_EQ(t.NumRows(), 0u);
  ASSERT_EQ(t.columns.size(), 1u);
}

TEST_F(EvaluatorTest, AtomOrderStartsSelective) {
  // knows has 3 matches; the type atom for Person has 2 — the plan leads
  // with the more selective atom.
  Cq q = Parse(
      "SELECT ?x WHERE { ?x <http://ex/knows> ?y . "
      "?x a <http://ex/Person> . }");
  Evaluator eval(store_.get());
  std::vector<int> order = eval.AtomOrder(q);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);  // the 2-match type scan leads
}

TEST_F(EvaluatorTest, ExplainCqRendersPlan) {
  Cq q = Parse(
      "SELECT ?x WHERE { ?x <http://ex/knows> ?y . "
      "?x a <http://ex/Person> . }");
  Evaluator eval(store_.get());
  std::string plan = eval.ExplainCq(q);
  EXPECT_NE(plan.find("scan"), std::string::npos);
  EXPECT_NE(plan.find("probe"), std::string::npos);
  EXPECT_NE(plan.find("index matches"), std::string::npos);
}

TEST_F(EvaluatorTest, ExplainJucqRendersFragments) {
  Cq q = Parse(
      "SELECT ?x ?z WHERE { ?x <http://ex/knows> ?y . "
      "?y <http://ex/knows> ?z . }");
  query::Cover cover = query::Cover::Singletons(2);
  std::vector<Cq> fragments = cover.FragmentQueries(q);
  std::vector<Ucq> ucqs;
  for (const Cq& f : fragments) ucqs.push_back(Ucq({f}));
  Evaluator eval(store_.get());
  std::string plan = eval.ExplainJucq(q, fragments, ucqs);
  EXPECT_NE(plan.find("materialize 2 fragment(s)"), std::string::npos);
  EXPECT_NE(plan.find("fragment 0"), std::string::npos);
}

TEST_F(EvaluatorTest, ExplainJucqIndentsEveryNestedPlanLine) {
  // Golden rendering: every line of the nested CQ plan is indented —
  // including the final one, which an indenter that splits on '\n' and
  // ignores the unterminated tail would emit flush-left.
  Cq q = Parse(
      "SELECT ?x ?z WHERE { ?x <http://ex/knows> ?y . "
      "?y <http://ex/knows> ?z . }");
  query::Cover cover = query::Cover::Singletons(2);
  std::vector<Cq> fragments = cover.FragmentQueries(q);
  std::vector<Ucq> ucqs;
  for (const Cq& f : fragments) ucqs.push_back(Ucq({f}));
  Evaluator eval(store_.get());
  std::string plan = eval.ExplainJucq(q, fragments, ucqs);
  const std::string expected =
      "JUCQ plan: materialize 2 fragment(s), "
      "then hash-join smallest-connected-first:\n"
      "  fragment 0: UCQ of 1 CQ(s), head arity 2\n"
      "    first member plan:\n"
      "    CQ plan (index nested-loop join):\n"
      "      scan  t0  (~3 index matches unbound)\n"
      "  fragment 1: UCQ of 1 CQ(s), head arity 2\n"
      "    first member plan:\n"
      "    CQ plan (index nested-loop join):\n"
      "      scan  t0  (~3 index matches unbound)\n";
  EXPECT_EQ(plan, expected);
  // No nested line may appear without its indent.
  EXPECT_EQ(plan.find("\nCQ plan"), std::string::npos);
  EXPECT_EQ(plan.find("\n  scan"), std::string::npos);
}


// A7-shaped fixture with a hub: one author on every document, plus one
// own author per document, and three citations per document. By unbound
// counts hasAuthor (2 per document) beats cites (3 per document), so the
// join would probe ?y hasAuthor ?p second and fan out through the hub on
// half of the outer rows; sampling the first atom's rows sees the hub.
class HubFixtureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    constexpr int kDocs = 60;
    const rdf::TermId has_author = U("hasAuthor");
    const rdf::TermId cites = U("cites");
    const rdf::TermId hub = U("hub");
    std::vector<rdf::TermId> docs;
    for (int i = 0; i < kDocs; ++i) docs.push_back(U("doc" + std::to_string(i)));
    for (int i = 0; i < kDocs; ++i) {
      graph_.Add(docs[i], has_author, hub);
      graph_.Add(docs[i], has_author, U("author" + std::to_string(i)));
      for (int k = 1; k <= 3; ++k) {
        graph_.Add(docs[i], cites, docs[(i * 7 + k * 11) % kDocs]);
      }
    }
    store_ = std::make_unique<storage::Store>(graph_);
  }

  rdf::TermId U(const std::string& name) {
    return graph_.dict().InternUri("http://ex/" + name);
  }

  Cq A7() {
    auto q = query::ParseSparql(
        "SELECT ?x ?y ?p WHERE { ?x <http://ex/hasAuthor> ?p . "
        "?y <http://ex/hasAuthor> ?p . ?x <http://ex/cites> ?y . }",
        &graph_.dict());
    EXPECT_TRUE(q.ok()) << q.status();
    return *q;
  }

  rdf::Graph graph_;
  std::unique_ptr<storage::Store> store_;
};

TEST_F(HubFixtureTest, SampledFanOutPutsCitesSecond) {
  Evaluator eval(store_.get());
  const Cq q = A7();
  const std::vector<int> order = eval.AtomOrder(q);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0);  // the two hasAuthor atoms tie; the first leads
  EXPECT_EQ(order[1], 2);  // cites under a bound ?x, not the hub fan-out
  EXPECT_EQ(order[2], 1);
}

TEST_F(HubFixtureTest, ExplainCqPrintsTheEvaluationOrder) {
  Evaluator eval(store_.get());
  const Cq q = A7();
  const std::string plan = eval.ExplainCq(q);
  std::vector<int> printed;
  for (size_t at = plan.find(" t"); at != std::string::npos;
       at = plan.find(" t", at + 1)) {
    printed.push_back(plan[at + 2] - '0');
  }
  EXPECT_EQ(printed, eval.AtomOrder(q)) << plan;
  EXPECT_EQ(printed, (std::vector<int>{0, 2, 1})) << plan;
}

TEST_F(HubFixtureTest, AnswersEqualTheReferenceEvaluator) {
  const Cq q = A7();
  // A second member with the atoms permuted: the union's members order
  // their atoms independently.
  Cq permuted = q;
  std::swap((*permuted.mutable_body())[0], (*permuted.mutable_body())[2]);
  const Ucq ucq({q, permuted});
  const Table expected_cq = testing::ReferenceEvaluateCq(*store_, q);
  const Table expected_ucq = testing::ReferenceEvaluateUcq(*store_, ucq);
  EXPECT_GT(expected_cq.NumRows(), 0u);
  for (int threads : {1, 4}) {
    Evaluator eval(store_.get(), threads);
    EXPECT_FALSE(testing::CompareBitForBit("cq", eval.EvaluateCq(q),
                                           expected_cq, q, graph_.dict())
                     .found)
        << "threads=" << threads;
    EXPECT_FALSE(testing::CompareBitForBit("ucq", eval.EvaluateUcq(ucq),
                                           expected_ucq, q, graph_.dict())
                     .found)
        << "threads=" << threads;
  }
}

// An inner property-interval atom under a bound subject is probed through
// the widened pattern (property wildcarded) and filtered per row. Over a
// snapshot whose sealed runs add and remove triples inside, at and outside
// the interval, the answers must be exactly the visible matches.
TEST(WidenedIntervalFrameTest, SnapshotWithSealedRunsEqualsVisibleMatches) {
  rdf::Graph graph;
  auto u = [&graph](const std::string& name) {
    return graph.dict().InternUri("http://ex/" + name);
  };
  const rdf::TermId knows = u("knows");
  // Consecutive ids: [p1, p3] is a property interval, p0 and p4 lie
  // outside it.
  const rdf::TermId p0 = u("p0"), p1 = u("p1"), p2 = u("p2"), p3 = u("p3"),
                    p4 = u("p4");
  ASSERT_EQ(p3, p1 + 2);
  std::vector<rdf::TermId> e;
  for (const char* name : {"e0", "e1", "e2", "e3", "e4", "e5"}) {
    e.push_back(u(name));
  }
  graph.Add(e[0], knows, e[1]);
  graph.Add(e[0], knows, e[2]);
  graph.Add(e[3], knows, e[2]);
  graph.Add(e[1], p1, e[4]);
  graph.Add(e[1], p2, e[5]);
  graph.Add(e[1], p0, e[3]);
  graph.Add(e[2], p3, e[0]);
  graph.Add(e[2], p4, e[1]);
  storage::Store base(graph);

  storage::VersionSet versions(&base);
  ASSERT_TRUE(versions.Insert(rdf::Triple(e[2], p2, e[3])));  // inside
  ASSERT_TRUE(versions.Insert(rdf::Triple(e[1], p4, e[0])));  // outside
  versions.Freeze();
  ASSERT_TRUE(versions.Remove(rdf::Triple(e[1], p2, e[5])));  // inside
  ASSERT_TRUE(versions.Insert(rdf::Triple(e[1], p3, e[2])));  // upper end
  versions.Freeze();
  ASSERT_TRUE(versions.Remove(rdf::Triple(e[0], knows, e[1])));
  ASSERT_TRUE(versions.Insert(rdf::Triple(e[4], knows, e[1])));
  ASSERT_TRUE(versions.Insert(rdf::Triple(e[2], p1, e[2])));  // head write
  storage::SnapshotPtr snap = versions.snapshot();

  // q(a, x, y) :- a knows x . x [p1..p3] y
  Cq q;
  const VarId a = q.AddVar("a"), x = q.AddVar("x"), y = q.AddVar("y");
  q.AddAtom(Atom(QTerm::Var(a), QTerm::Const(knows), QTerm::Var(x)));
  Atom ranged(QTerm::Var(x), QTerm::Const(p1), QTerm::Var(y));
  ranged.range_pos = Atom::kRangeP;
  ranged.range_hi = p3;
  q.AddAtom(ranged);
  for (VarId v : {a, x, y}) q.AddHead(QTerm::Var(v));

  Evaluator eval(snap.get());
  ASSERT_EQ(eval.AtomOrder(q), (std::vector<int>{0, 1}));
  const Table got = eval.EvaluateCq(q);

  const std::vector<rdf::Triple> visible = snap->Materialize();
  std::set<std::vector<rdf::TermId>> expected;
  for (const rdf::Triple& k : visible) {
    if (k.p != knows) continue;
    for (const rdf::Triple& t : visible) {
      if (t.s == k.o && t.p >= p1 && t.p <= p3) {
        expected.insert({k.s, k.o, t.o});
      }
    }
  }
  EXPECT_EQ(got.RowSet(), expected);
  EXPECT_EQ(expected.size(), 8u);
  // Bit-for-bit against a pristine store over the same visible triples.
  storage::Store rebuilt(&graph.dict(), visible);
  Evaluator fresh(&rebuilt);
  EXPECT_FALSE(testing::CompareBitForBit("widened", got, fresh.EvaluateCq(q),
                                         q, graph.dict())
                   .found);
}

}  // namespace
}  // namespace engine
}  // namespace rdfref
