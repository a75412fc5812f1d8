// Incremental deletion maintenance (DRed): deleting an explicit triple
// from a saturated graph must leave exactly the saturation of the
// remaining explicit triples.

#include <gtest/gtest.h>

#include <unordered_set>

#include "common/hash.h"
#include "common/string_util.h"
#include "reasoner/saturation.h"
#include "rdf/vocab.h"

namespace rdfref {
namespace reasoner {
namespace {

namespace vocab = rdf::vocab;

using TripleSet = std::unordered_set<rdf::Triple, rdf::TripleHash>;

class DredTest : public ::testing::Test {
 protected:
  rdf::TermId U(const std::string& name) {
    return graph_.dict().InternUri("http://ex/" + name);
  }

  // Saturates graph_, remembering the explicit set.
  void Saturate() {
    explicit_ = TripleSet(graph_.triples().begin(), graph_.triples().end());
    schema_ = schema::Schema::FromGraph(graph_);
    schema_.Saturate();
    Saturator(&schema_).Saturate(&graph_);
  }

  size_t Delete(const rdf::Triple& t) {
    explicit_.erase(t);
    return Saturator(&schema_).Delete(
        &graph_, t, [this](const rdf::Triple& x) {
          return explicit_.count(x) > 0;
        });
  }

  // The ground truth: saturation of the current explicit set from scratch.
  TripleSet Resaturated() {
    rdf::Graph fresh;
    // Share term ids by re-adding through the same dictionary ids — the
    // dictionaries differ, so rebuild by decoded terms.
    for (const rdf::Triple& t : explicit_) {
      fresh.Add(graph_.dict().Lookup(t.s), graph_.dict().Lookup(t.p),
                graph_.dict().Lookup(t.o));
    }
    schema::Schema schema = schema::Schema::FromGraph(fresh);
    schema.Saturate();
    Saturator(&schema).Saturate(&fresh);
    // Decode both sides to compare graphs with different dictionaries.
    TripleSet out;
    for (const rdf::Triple& t : fresh.triples()) {
      out.insert(rdf::Triple(
          graph_.dict().Intern(fresh.dict().Lookup(t.s)),
          graph_.dict().Intern(fresh.dict().Lookup(t.p)),
          graph_.dict().Intern(fresh.dict().Lookup(t.o))));
    }
    return out;
  }

  void ExpectMatchesResaturation() {
    TripleSet expected = Resaturated();
    TripleSet actual(graph_.triples().begin(), graph_.triples().end());
    EXPECT_EQ(actual.size(), expected.size());
    for (const rdf::Triple& t : expected) {
      EXPECT_TRUE(actual.count(t))
          << "missing " << graph_.dict().Lookup(t.s).ToString() << " "
          << graph_.dict().Lookup(t.p).ToString() << " "
          << graph_.dict().Lookup(t.o).ToString();
    }
  }

  rdf::Graph graph_;
  schema::Schema schema_;
  TripleSet explicit_;
};

TEST_F(DredTest, DeleteRemovesDerivedConsequences) {
  graph_.Add(U("A"), vocab::kSubClassOfId, U("B"));
  graph_.Add(U("x"), vocab::kTypeId, U("A"));
  Saturate();
  ASSERT_TRUE(graph_.Contains(rdf::Triple(U("x"), vocab::kTypeId, U("B"))));

  size_t removed = Delete(rdf::Triple(U("x"), vocab::kTypeId, U("A")));
  EXPECT_EQ(removed, 2u);  // the fact and its consequence
  EXPECT_FALSE(graph_.Contains(rdf::Triple(U("x"), vocab::kTypeId, U("B"))));
  ExpectMatchesResaturation();
}

TEST_F(DredTest, AlternativeDerivationSurvives) {
  // x τ B follows from BOTH x τ A (A ⊑ B) and x p y (p ←d B): deleting
  // one leaves the other derivation standing.
  graph_.Add(U("A"), vocab::kSubClassOfId, U("B"));
  graph_.Add(U("p"), vocab::kDomainId, U("B"));
  graph_.Add(U("x"), vocab::kTypeId, U("A"));
  graph_.Add(U("x"), U("p"), U("y"));
  Saturate();

  Delete(rdf::Triple(U("x"), vocab::kTypeId, U("A")));
  EXPECT_TRUE(graph_.Contains(rdf::Triple(U("x"), vocab::kTypeId, U("B"))));
  ExpectMatchesResaturation();
}

TEST_F(DredTest, ExplicitFactsAreNeverOverDeleted) {
  // x τ B is both derivable and explicitly asserted: deletion of the
  // deriving fact must not remove the assertion.
  graph_.Add(U("A"), vocab::kSubClassOfId, U("B"));
  graph_.Add(U("x"), vocab::kTypeId, U("A"));
  graph_.Add(U("x"), vocab::kTypeId, U("B"));  // also asserted
  Saturate();

  Delete(rdf::Triple(U("x"), vocab::kTypeId, U("A")));
  EXPECT_TRUE(graph_.Contains(rdf::Triple(U("x"), vocab::kTypeId, U("B"))));
  ExpectMatchesResaturation();
}

TEST_F(DredTest, CascadedOverDeleteAndRederive) {
  // Chain: x p y ⇒ x q y ⇒ x τ C ⇒ x τ D.
  graph_.Add(U("p"), vocab::kSubPropertyOfId, U("q"));
  graph_.Add(U("q"), vocab::kDomainId, U("C"));
  graph_.Add(U("C"), vocab::kSubClassOfId, U("D"));
  graph_.Add(U("x"), U("p"), U("y"));
  Saturate();

  size_t removed = Delete(rdf::Triple(U("x"), U("p"), U("y")));
  EXPECT_EQ(removed, 4u);
  EXPECT_FALSE(graph_.Contains(rdf::Triple(U("x"), U("q"), U("y"))));
  EXPECT_FALSE(graph_.Contains(rdf::Triple(U("x"), vocab::kTypeId, U("D"))));
  ExpectMatchesResaturation();
}

TEST_F(DredTest, DeletingAbsentTripleIsNoOp) {
  graph_.Add(U("x"), vocab::kTypeId, U("A"));
  Saturate();
  size_t before = graph_.size();
  EXPECT_EQ(Delete(rdf::Triple(U("ghost"), vocab::kTypeId, U("A"))), 0u);
  EXPECT_EQ(graph_.size(), before);
}

TEST_F(DredTest, RandomizedDeleteMatchesResaturation) {
  // Randomized soak: build a random graph + schema, saturate, delete a
  // third of the explicit facts one by one; after each deletion the graph
  // must equal the from-scratch saturation.
  Rng rng(1234);
  std::vector<rdf::TermId> classes, props, subjects;
  for (int i = 0; i < 5; ++i) classes.push_back(U(Numbered("C", i)));
  for (int i = 0; i < 4; ++i) props.push_back(U(Numbered("p", i)));
  for (int i = 0; i < 8; ++i) subjects.push_back(U(Numbered("s", i)));
  for (int i = 0; i < 4; ++i) {
    graph_.Add(classes[rng.Uniform(5)], vocab::kSubClassOfId,
               classes[rng.Uniform(5)]);
  }
  for (int i = 0; i < 2; ++i) {
    graph_.Add(props[rng.Uniform(4)], vocab::kSubPropertyOfId,
               props[rng.Uniform(4)]);
    graph_.Add(props[rng.Uniform(4)], vocab::kDomainId,
               classes[rng.Uniform(5)]);
    graph_.Add(props[rng.Uniform(4)], vocab::kRangeId,
               classes[rng.Uniform(5)]);
  }
  std::vector<rdf::Triple> facts;
  for (int i = 0; i < 40; ++i) {
    rdf::Triple t(subjects[rng.Uniform(8)], props[rng.Uniform(4)],
                  subjects[rng.Uniform(8)]);
    if (rng.Chance(0.3)) {
      t = rdf::Triple(subjects[rng.Uniform(8)], vocab::kTypeId,
                      classes[rng.Uniform(5)]);
    }
    if (graph_.Add(t)) facts.push_back(t);
  }
  Saturate();

  for (size_t i = 0; i < facts.size() / 3; ++i) {
    Delete(facts[i]);
    ExpectMatchesResaturation();
  }
}

TEST_F(DredTest, RandomizedInsertMatchesResaturation) {
  // Mirror soak for Insert: adding facts one at a time to a saturated
  // graph equals saturating everything from scratch.
  Rng rng(777);
  std::vector<rdf::TermId> classes, props, subjects;
  for (int i = 0; i < 5; ++i) classes.push_back(U(Numbered("C", i)));
  for (int i = 0; i < 4; ++i) props.push_back(U(Numbered("p", i)));
  for (int i = 0; i < 8; ++i) subjects.push_back(U(Numbered("s", i)));
  graph_.Add(classes[0], vocab::kSubClassOfId, classes[1]);
  graph_.Add(classes[1], vocab::kSubClassOfId, classes[2]);
  graph_.Add(props[0], vocab::kSubPropertyOfId, props[1]);
  graph_.Add(props[1], vocab::kDomainId, classes[0]);
  graph_.Add(props[2], vocab::kRangeId, classes[3]);
  Saturate();

  Saturator sat(&schema_);
  for (int i = 0; i < 25; ++i) {
    rdf::Triple t(subjects[rng.Uniform(8)], props[rng.Uniform(4)],
                  subjects[rng.Uniform(8)]);
    if (rng.Chance(0.3)) {
      t = rdf::Triple(subjects[rng.Uniform(8)], vocab::kTypeId,
                      classes[rng.Uniform(5)]);
    }
    explicit_.insert(t);
    sat.Insert(&graph_, t);
    ExpectMatchesResaturation();
  }
}

}  // namespace
}  // namespace reasoner
}  // namespace rdfref
