#include "cost/cardinality.h"

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "rdf/graph.h"
#include "rdf/vocab.h"
#include "storage/store.h"

namespace rdfref {
namespace cost {
namespace {

using query::Atom;
using query::Cq;
using query::QTerm;
using query::VarId;

class CardinalityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    knows_ = U("knows");
    person_ = U("Person");
    // 10 subjects each knowing 2 of 5 objects; 6 typed persons.
    for (int i = 0; i < 10; ++i) {
      rdf::TermId s = U(Numbered("s", i));
      graph_.Add(s, knows_, U(Numbered("o", i % 5)));
      graph_.Add(s, knows_, U(Numbered("o", (i + 1) % 5)));
      if (i < 6) graph_.Add(s, rdf::vocab::kTypeId, person_);
    }
    store_ = std::make_unique<storage::Store>(graph_);
  }

  rdf::TermId U(const std::string& name) {
    return graph_.dict().InternUri("http://ex/" + name);
  }

  rdf::Graph graph_;
  std::unique_ptr<storage::Store> store_;
  rdf::TermId knows_, person_;
};

TEST_F(CardinalityTest, BoundPropertyUsesExactCount) {
  CardinalityEstimator est(&store_->stats());
  Cq q;
  VarId x = q.AddVar("x"), y = q.AddVar("y");
  Atom atom(QTerm::Var(x), QTerm::Const(knows_), QTerm::Var(y));
  EXPECT_DOUBLE_EQ(est.EstimateAtom(atom), 20.0);
}

TEST_F(CardinalityTest, ClassAtomUsesClassCardinality) {
  CardinalityEstimator est(&store_->stats());
  Cq q;
  VarId x = q.AddVar("x");
  Atom atom(QTerm::Var(x), QTerm::Const(rdf::vocab::kTypeId),
            QTerm::Const(person_));
  EXPECT_DOUBLE_EQ(est.EstimateAtom(atom), 6.0);
}

TEST_F(CardinalityTest, BoundSubjectDividesByDistinctSubjects) {
  CardinalityEstimator est(&store_->stats());
  Atom atom(QTerm::Const(U("s0")), QTerm::Const(knows_), QTerm::Var(0));
  // 20 triples / 10 distinct subjects = 2.
  EXPECT_DOUBLE_EQ(est.EstimateAtom(atom), 2.0);
}

TEST_F(CardinalityTest, BoundObjectDividesByDistinctObjects) {
  CardinalityEstimator est(&store_->stats());
  Atom atom(QTerm::Var(0), QTerm::Const(knows_), QTerm::Const(U("o0")));
  // 20 triples / 5 distinct objects = 4.
  EXPECT_DOUBLE_EQ(est.EstimateAtom(atom), 4.0);
}

TEST_F(CardinalityTest, VariablePropertyFallsBackToTotal) {
  CardinalityEstimator est(&store_->stats());
  Atom atom(QTerm::Var(0), QTerm::Var(1), QTerm::Var(2));
  EXPECT_DOUBLE_EQ(est.EstimateAtom(atom),
                   static_cast<double>(store_->stats().total_triples()));
}

TEST_F(CardinalityTest, DistinctValuesBoundedByCardinality) {
  CardinalityEstimator est(&store_->stats());
  Cq q;
  VarId x = q.AddVar("x");
  Atom atom(QTerm::Var(x), QTerm::Const(knows_), QTerm::Const(U("o0")));
  // The atom matches ~4 rows; V(x) cannot exceed that.
  EXPECT_LE(est.DistinctValues(atom, x), 4.0);
  EXPECT_GE(est.DistinctValues(atom, x), 1.0);
}

TEST_F(CardinalityTest, JoinSelectivityShrinksEstimate) {
  CardinalityEstimator est(&store_->stats());
  // q(x) :- x knows y, x τ Person: 20 × 6 discounted by V(x).
  Cq q;
  VarId x = q.AddVar("x"), y = q.AddVar("y");
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(knows_), QTerm::Var(y)));
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(rdf::vocab::kTypeId),
                 QTerm::Const(person_)));
  q.AddHead(QTerm::Var(x));
  double joined = est.EstimateCqRows(q);
  EXPECT_LT(joined, 20.0 * 6.0);
  EXPECT_GT(joined, 0.0);
}

TEST_F(CardinalityTest, UnknownPropertyEstimatesZero) {
  CardinalityEstimator est(&store_->stats());
  Atom atom(QTerm::Var(0), QTerm::Const(U("absent")), QTerm::Var(1));
  EXPECT_DOUBLE_EQ(est.EstimateAtom(atom), 0.0);
}

TEST_F(CardinalityTest, MonotoneInBinding) {
  CardinalityEstimator est(&store_->stats());
  Atom free(QTerm::Var(0), QTerm::Const(knows_), QTerm::Var(1));
  Atom bound_s(QTerm::Const(U("s0")), QTerm::Const(knows_), QTerm::Var(1));
  Atom bound_both(QTerm::Const(U("s0")), QTerm::Const(knows_),
                  QTerm::Const(U("o0")));
  EXPECT_GE(est.EstimateAtom(free), est.EstimateAtom(bound_s));
  EXPECT_GE(est.EstimateAtom(bound_s), est.EstimateAtom(bound_both));
}

TEST_F(CardinalityTest, PairStatisticsCorrectCorrelatedStars) {
  // Build a graph where p1 and p2 NEVER co-occur: independence predicts a
  // non-trivial join size, the pair-aware estimator predicts ~0.
  rdf::Graph g;
  rdf::TermId p1 = g.dict().InternUri("http://ex/p1");
  rdf::TermId p2 = g.dict().InternUri("http://ex/p2");
  rdf::TermId o = g.dict().InternUri("http://ex/o");
  for (int i = 0; i < 50; ++i) {
    g.Add(g.dict().InternUri("http://ex/a" + std::to_string(i)), p1, o);
    g.Add(g.dict().InternUri("http://ex/b" + std::to_string(i)), p2, o);
  }
  storage::Store store(g);

  Cq q;
  VarId x = q.AddVar("x"), y = q.AddVar("y"), z = q.AddVar("z");
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(p1), QTerm::Var(y)));
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(p2), QTerm::Var(z)));
  q.AddHead(QTerm::Var(x));

  CardinalityEstimator independent(&store.stats(), false);
  CardinalityEstimator pair_aware(&store.stats(), true);
  EXPECT_GT(independent.EstimateCqRows(q), 1.0);
  EXPECT_LT(pair_aware.EstimateCqRows(q),
            independent.EstimateCqRows(q) / 10.0);
}

}  // namespace
}  // namespace cost
}  // namespace rdfref
