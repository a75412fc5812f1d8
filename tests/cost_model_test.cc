#include "cost/cost_model.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "query/cover.h"
#include "query/sparql_parser.h"
#include "rdf/graph.h"
#include "storage/store.h"

namespace rdfref {
namespace cost {
namespace {

using query::Cover;
using query::Cq;
using query::Ucq;

class CostModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A popular property and a rare one.
    for (int i = 0; i < 1000; ++i) {
      graph_.Add(U(Numbered("s", i)), U("popular"),
                 U(Numbered("o", i % 20)));
    }
    for (int i = 0; i < 5; ++i) {
      graph_.Add(U(Numbered("s", i)), U("rare"), U("r"));
    }
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

  rdf::Graph graph_;
  std::unique_ptr<storage::Store> store_;
};

TEST_F(CostModelTest, LargerScansCostMore) {
  CostModel model(&store_->stats());
  Cq popular =
      Parse("SELECT ?x WHERE { ?x <http://ex/popular> ?y . }");
  Cq rare = Parse("SELECT ?x WHERE { ?x <http://ex/rare> ?y . }");
  EXPECT_GT(model.CostCq(popular), model.CostCq(rare));
}

TEST_F(CostModelTest, UcqCostGrowsWithMembers) {
  CostModel model(&store_->stats());
  Cq rare = Parse("SELECT ?x WHERE { ?x <http://ex/rare> ?y . }");
  Ucq one({rare});
  Ucq three({rare, rare, rare});
  EXPECT_GT(model.CostUcq(three), model.CostUcq(one));
}

TEST_F(CostModelTest, PerMemberOverheadModelsParseCost) {
  CostParams params;
  params.per_union_member = 1000.0;
  CostModel model(&store_->stats(), params);
  Cq rare = Parse("SELECT ?x WHERE { ?x <http://ex/rare> ?y . }");
  Ucq two({rare, rare});
  EXPECT_GE(model.CostUcq(two), 2000.0);
}

TEST_F(CostModelTest, JucqCostPrefersSelectiveGrouping) {
  CostModel model(&store_->stats());
  // q(x) :- x popular y, x rare r: joining the popular atom *with* the rare
  // one in a single fragment is cheaper than materializing both
  // independently (the singleton/SCQ shape).
  Cq q = Parse(
      "SELECT ?x WHERE { ?x <http://ex/popular> ?y . "
      "?x <http://ex/rare> <http://ex/r> . }");
  Cover grouped = Cover::SingleFragment(2);
  Cover singleton = Cover::Singletons(2);
  auto cost_of = [&](const Cover& cover) {
    std::vector<Cq> fragments = cover.FragmentQueries(q);
    std::vector<Ucq> ucqs;
    for (const Cq& f : fragments) ucqs.push_back(Ucq({f}));
    return model.CostJucq(q, fragments, ucqs);
  };
  EXPECT_LT(cost_of(grouped), cost_of(singleton));
}

TEST_F(CostModelTest, EstimateUcqRowsDiscountsOverlap) {
  CostModel model(&store_->stats());
  Cq rare = Parse("SELECT ?x WHERE { ?x <http://ex/rare> ?y . }");
  double one = model.EstimateUcqRows(Ucq({rare}));
  double two = model.EstimateUcqRows(Ucq({rare, rare}));
  // Union members overlap: more than one member's rows, far less than sum.
  EXPECT_GT(two, one);
  EXPECT_LT(two, 2 * one);
  EXPECT_DOUBLE_EQ(two, one + model.params().union_overlap * one);
}

TEST_F(CostModelTest, EmptyCqCostsNothing) {
  CostModel model(&store_->stats());
  Cq empty;
  EXPECT_DOUBLE_EQ(model.CostCq(empty), 0.0);
}

TEST_F(CostModelTest, CostsAreFiniteAndNonNegative) {
  CostModel model(&store_->stats());
  Cq q = Parse(
      "SELECT ?x ?z WHERE { ?x <http://ex/popular> ?y . ?y ?p ?z . }");
  double cost = model.CostCq(q);
  EXPECT_GE(cost, 0.0);
  EXPECT_TRUE(std::isfinite(cost));
}

}  // namespace
}  // namespace cost
}  // namespace rdfref
