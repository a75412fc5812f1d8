#include "reformulation/reformulator.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "api/query_answering.h"
#include "datagen/bibliography.h"
#include "datagen/sp2b.h"
#include "query/sparql_parser.h"
#include "rdf/vocab.h"

namespace rdfref {
namespace reformulation {
namespace {

using query::Atom;
using query::Cq;
using query::QTerm;
using query::Ucq;
using query::VarId;
namespace vocab = rdf::vocab;

class ReformulatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::Bibliography::AddFigure2Graph(&graph_);
    schema_ = schema::Schema::FromGraph(graph_);
    schema_.Saturate();
  }

  rdf::TermId Bib(const char* local) {
    return graph_.dict().InternUri(datagen::Bibliography::Uri(local));
  }

  std::set<std::string> Keys(const Ucq& ucq) {
    std::set<std::string> keys;
    for (const Cq& cq : ucq.members()) keys.insert(cq.CanonicalKey());
    return keys;
  }

  rdf::Graph graph_;
  schema::Schema schema_;
};

TEST_F(ReformulatorTest, TypeAtomWithConstantClass) {
  // q(x) :- x rdf:type Publication. Saturated schema: Book ⊑sc Publication,
  // writtenBy ←d {Book, Publication}, writtenBy ←r Person.
  Cq q;
  VarId x = q.AddVar("x");
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(vocab::kTypeId),
                 QTerm::Const(Bib("Publication"))));
  q.AddHead(QTerm::Var(x));

  Reformulator ref(&schema_);
  Result<Ucq> ucq = ref.Reformulate(q);
  ASSERT_TRUE(ucq.ok()) << ucq.status();
  // original, rule 1 → (x τ Book), rule 2 → (x writtenBy fresh).
  EXPECT_EQ(ucq->size(), 3u);
}

TEST_F(ReformulatorTest, TypeAtomRangeRule) {
  Cq q;
  VarId x = q.AddVar("x");
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(vocab::kTypeId),
                 QTerm::Const(Bib("Person"))));
  q.AddHead(QTerm::Var(x));
  Reformulator ref(&schema_);
  Result<Ucq> ucq = ref.Reformulate(q);
  ASSERT_TRUE(ucq.ok());
  // original + rule 3 → (fresh writtenBy x).
  ASSERT_EQ(ucq->size(), 2u);
  bool found_range_member = false;
  for (const Cq& member : ucq->members()) {
    const Atom& a = member.body()[0];
    if (!a.p.is_var && a.p.term() == Bib("writtenBy") && a.s.is_var &&
        a.o.is_var && a.o.var() == 0) {
      found_range_member = true;
    }
  }
  EXPECT_TRUE(found_range_member);
}

TEST_F(ReformulatorTest, PropertyAtomSubPropertyRule) {
  Cq q;
  VarId x = q.AddVar("x");
  VarId y = q.AddVar("y");
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(Bib("hasAuthor")),
                 QTerm::Var(y)));
  q.AddHead(QTerm::Var(x));
  Reformulator ref(&schema_);
  Result<Ucq> ucq = ref.Reformulate(q);
  ASSERT_TRUE(ucq.ok());
  EXPECT_EQ(ucq->size(), 2u);  // original + writtenBy
}

TEST_F(ReformulatorTest, TypeAtomWithVariableClassBindsIt) {
  // q(x, u) :- x rdf:type u.
  Cq q;
  VarId x = q.AddVar("x");
  VarId u = q.AddVar("u");
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(vocab::kTypeId),
                 QTerm::Var(u)));
  q.AddHead(QTerm::Var(x));
  q.AddHead(QTerm::Var(u));
  Reformulator ref(&schema_);
  Result<Ucq> ucq = ref.Reformulate(q);
  ASSERT_TRUE(ucq.ok());
  // original + rule5 (Book⊑Publication) + rule6 (writtenBy ←d Book,
  // writtenBy ←d Publication) + rule7 (writtenBy ←r Person) = 5.
  EXPECT_EQ(ucq->size(), 5u);
  // Every non-original member binds u in the head to a constant.
  size_t bound_heads = 0;
  for (const Cq& member : ucq->members()) {
    if (!member.head()[1].is_var) ++bound_heads;
  }
  EXPECT_EQ(bound_heads, 4u);
}

TEST_F(ReformulatorTest, VariablePropertyRules8To13) {
  // q(x, p, y) :- x p y.
  Cq q;
  VarId x = q.AddVar("x");
  VarId p = q.AddVar("p");
  VarId y = q.AddVar("y");
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Var(p), QTerm::Var(y)));
  q.AddHead(QTerm::Var(x));
  q.AddHead(QTerm::Var(p));
  q.AddHead(QTerm::Var(y));
  Reformulator ref(&schema_);
  Result<Ucq> ucq = ref.Reformulate(q);
  ASSERT_TRUE(ucq.ok());
  // original
  // rule 8: (x writtenBy y) p→hasAuthor
  // rule 9: (x τ y) p→τ, then rules 5-7 on the variable class y:
  //         (x τ Book) y→Book, (x writtenBy f) y→{Book, Publication},
  //         (f writtenBy x) y→Person
  // rules 10-13: the four schema properties.
  EXPECT_EQ(ucq->size(), 1u + 1u + 1u + 4u + 4u);
}

TEST_F(ReformulatorTest, SchemaPropertyAtomNotRewritten) {
  Cq q;
  VarId c = q.AddVar("c");
  q.AddAtom(Atom(QTerm::Var(c), QTerm::Const(vocab::kSubClassOfId),
                 QTerm::Const(Bib("Publication"))));
  q.AddHead(QTerm::Var(c));
  Reformulator ref(&schema_);
  Result<Ucq> ucq = ref.Reformulate(q);
  ASSERT_TRUE(ucq.ok());
  EXPECT_EQ(ucq->size(), 1u);  // answered against the saturated schema
}

TEST_F(ReformulatorTest, Section3QueryReformulation) {
  // q(x3) :- x1 hasAuthor x2, x2 hasName x3, x1 x4 "1949".
  Result<Cq> q = query::ParseSparql(
      "PREFIX bib: <http://example.org/bib/>\n"
      "SELECT ?x3 WHERE { ?x1 bib:hasAuthor ?x2 . ?x2 bib:hasName ?x3 . "
      "?x1 ?x4 \"1949\" . }",
      &graph_.dict());
  ASSERT_TRUE(q.ok()) << q.status();
  Reformulator ref(&schema_);
  ASSERT_TRUE(ref.AtomsIndependent(*q));
  Result<Ucq> ucq = ref.Reformulate(*q);
  ASSERT_TRUE(ucq.ok());
  // atom1: 2 (hasAuthor, writtenBy); atom2: 1; atom3 (var property):
  // 1 + rule8 (writtenBy) + rule9 (τ) + rules 10-13 = 7.
  EXPECT_EQ(ucq->size(), 2u * 1u * 7u);
  Result<uint64_t> count = ref.CountReformulations(*q);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, ucq->size());
}

TEST_F(ReformulatorTest, CascadedSubPropertyAfterDomainRule) {
  // With p' ⊑sp p and p ←d C: (x τ C) reformulates into the original,
  // (x p f) and, cascading rule 4, (x p' f).
  schema::Schema s;
  rdf::TermId p = graph_.dict().InternUri("http://ex/p");
  rdf::TermId pp = graph_.dict().InternUri("http://ex/pp");
  rdf::TermId c = graph_.dict().InternUri("http://ex/C");
  s.AddSubProperty(pp, p);
  s.AddDomain(p, c);
  s.Saturate();
  Cq q;
  VarId x = q.AddVar("x");
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(vocab::kTypeId),
                 QTerm::Const(c)));
  q.AddHead(QTerm::Var(x));
  Reformulator ref(&s);
  Result<Ucq> ucq = ref.Reformulate(q);
  ASSERT_TRUE(ucq.ok());
  // original, (x p f) [rule2], (x pp f) [rule2 via S5, also rule4 after
  // rule2 — deduplicated].
  EXPECT_EQ(ucq->size(), 3u);
}

TEST_F(ReformulatorTest, WorklistPathMatchesProductPathWhenBothApply) {
  // Interaction: u is in the class position of t0 AND the subject of t1 —
  // the product fast path must be rejected and the worklist used.
  Cq q;
  VarId x = q.AddVar("x");
  VarId u = q.AddVar("u");
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(vocab::kTypeId),
                 QTerm::Var(u)));
  q.AddAtom(Atom(QTerm::Var(u), QTerm::Const(vocab::kSubClassOfId),
                 QTerm::Const(Bib("Publication"))));
  q.AddHead(QTerm::Var(x));
  Reformulator ref(&schema_);
  EXPECT_FALSE(ref.AtomsIndependent(q));
  Result<Ucq> ucq = ref.Reformulate(q);
  ASSERT_TRUE(ucq.ok());
  // Sound: every member whose t0 was specialized must have u substituted
  // in t1 as well.
  for (const Cq& member : ucq->members()) {
    const Atom& t0 = member.body()[0];
    const Atom& t1 = member.body()[1];
    if (!t0.o.is_var || t0.o.var() != u || !t0.p.is_var) {
      // u was bound (or t0 rewritten away from the original shape):
      // then t1's subject cannot still be the variable u.
      if (!t0.o.is_var && !t0.p.is_var &&
          t0.p.term() == vocab::kTypeId) {
        EXPECT_FALSE(t1.s.is_var && t1.s.var() == u)
            << member.ToString(graph_.dict());
      }
    }
  }
}

TEST_F(ReformulatorTest, BudgetEnforced) {
  Cq q;
  VarId x = q.AddVar("x");
  VarId u = q.AddVar("u");
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(vocab::kTypeId),
                 QTerm::Var(u)));
  q.AddHead(QTerm::Var(x));
  ReformulationOptions options;
  options.max_cqs = 2;  // the reformulation has 5 members
  Reformulator ref(&schema_, options);
  EXPECT_EQ(ref.Reformulate(q).status().code(),
            StatusCode::kResourceExhausted);
}

TEST_F(ReformulatorTest, EmptyQueryRejected) {
  Cq q;
  Reformulator ref(&schema_);
  EXPECT_FALSE(ref.Reformulate(q).ok());
  EXPECT_FALSE(ref.CountReformulations(q).ok());
}

TEST_F(ReformulatorTest, OriginalQueryAlwaysMember) {
  Cq q;
  VarId x = q.AddVar("x");
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(Bib("hasAuthor")),
                 QTerm::Const(Bib("doi1"))));
  q.AddHead(QTerm::Var(x));
  Reformulator ref(&schema_);
  Result<Ucq> ucq = ref.Reformulate(q);
  ASSERT_TRUE(ucq.ok());
  EXPECT_TRUE(Keys(*ucq).count(q.CanonicalKey()));
}

TEST_F(ReformulatorTest, IncompleteRefIgnoresDomainAndRange) {
  Cq q;
  VarId x = q.AddVar("x");
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(vocab::kTypeId),
                 QTerm::Const(Bib("Publication"))));
  q.AddHead(QTerm::Var(x));
  IncompleteReformulator incomplete(&schema_);
  Result<Ucq> ucq = incomplete.Reformulate(q);
  ASSERT_TRUE(ucq.ok());
  // Only original + subclass member; the domain-rule member is missing.
  EXPECT_EQ(ucq->size(), 2u);
}

TEST_F(ReformulatorTest, ProductAndWorklistPathsAgree) {
  // Differential check: the fast product path and the general worklist
  // produce the same UCQ (modulo variable renaming) whenever both apply.
  Result<Cq> q = query::ParseSparql(
      "PREFIX bib: <http://example.org/bib/>\n"
      "SELECT ?x ?u WHERE { ?x rdf:type ?u . ?x bib:hasAuthor ?a . "
      "?a bib:hasName ?n . }",
      &graph_.dict());
  ASSERT_TRUE(q.ok());
  Reformulator fast(&schema_);
  ReformulationOptions worklist_options;
  worklist_options.force_worklist = true;
  Reformulator slow(&schema_, worklist_options);
  ASSERT_TRUE(fast.AtomsIndependent(*q));
  Result<Ucq> a = fast.Reformulate(*q);
  Result<Ucq> b = slow.Reformulate(*q);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(Keys(*a), Keys(*b));
}

TEST_F(ReformulatorTest, EmptySchemaLeavesQueryAlone) {
  schema::Schema empty;
  empty.Saturate();
  Cq q;
  VarId x = q.AddVar("x");
  VarId y = q.AddVar("y");
  q.AddAtom(Atom(QTerm::Var(x), QTerm::Const(Bib("hasAuthor")),
                 QTerm::Var(y)));
  q.AddHead(QTerm::Var(x));
  Reformulator ref(&empty);
  Result<Ucq> ucq = ref.Reformulate(q);
  ASSERT_TRUE(ucq.ok());
  EXPECT_EQ(ucq->size(), 1u);
}


// The sp2b mix shapes over a hierarchy-encoded dictionary: every hierarchy
// atom collapses into its interval, and the point atom the interval grew
// from is absorbed rather than kept beside it.
class EncodedSp2bTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rdf::Graph g;
    datagen::Sp2bConfig config;
    config.documents = 40;
    datagen::Sp2b::Generate(config, &g);
    answerer_ = new api::QueryAnswerer(std::move(g));
  }
  static void TearDownTestSuite() {
    delete answerer_;
    answerer_ = nullptr;
  }

  static Cq Parse(const std::string& body) {
    Result<Cq> q = query::ParseSparql(
        "PREFIX sp: <http://rdfref.org/sp2b#>\n" + body, &answerer_->dict());
    EXPECT_TRUE(q.ok()) << q.status();
    return *q;
  }

  // The sp2b-serve mix shapes with their encoded UCQ sizes.
  struct Shape {
    const char* name;
    const char* body;
    size_t members;
  };
  static std::vector<Shape> Shapes() {
    return {
        {"P1", "SELECT ?x WHERE { ?x sp:cites <http://rdfref.org/sp2b#doc/0> . }",
         1},
        {"T2", "SELECT ?d WHERE { ?d a sp:Publication . }", 20},
        {"V3", "SELECT ?d ?v WHERE { ?d sp:publishedIn ?v . ?v a sp:Event . }",
         2},
        {"S4",
         "SELECT ?d ?p ?o WHERE { ?d a sp:Article . ?d sp:hasContributor ?p . "
         "?d sp:publishedIn <http://rdfref.org/sp2b#venue/0> . "
         "?d sp:references ?o . }",
         2},
        {"C5",
         "SELECT ?w ?x ?y ?v WHERE { "
         "?w sp:hasFirstAuthor <http://rdfref.org/sp2b#author/0> . "
         "?w sp:cites ?x . ?x sp:cites ?y . ?y sp:publishedIn ?v . }",
         1},
        {"Y6", "SELECT ?x ?y WHERE { ?x sp:cites ?y . ?y sp:cites ?x . }", 1},
        {"A7",
         "SELECT ?x ?y ?p WHERE { ?x sp:hasAuthor ?p . ?y sp:hasAuthor ?p . "
         "?x sp:cites ?y . }",
         1},
    };
  }

  // True when `a` is a point atom whose term has a multi-id interval in
  // the encoding: the interval member emitted for it would contain it.
  static bool CoveredPointAtom(const Atom& a) {
    const rdf::TermEncoding* enc = answerer_->dict().encoding();
    if (a.has_range() || a.p.is_var) return false;
    std::optional<rdf::TermEncoding::Interval> iv;
    if (a.p.term() == vocab::kTypeId) {
      if (a.o.is_var) return false;
      iv = enc->ClassInterval(a.o.term());
    } else if (!vocab::IsSchemaProperty(a.p.term())) {
      iv = enc->PropertyInterval(a.p.term());
    }
    return iv.has_value() && iv->lo < iv->hi;
  }

  static api::QueryAnswerer* answerer_;
};

api::QueryAnswerer* EncodedSp2bTest::answerer_ = nullptr;

TEST_F(EncodedSp2bTest, ShapesReformulateToExactMemberCounts) {
  ASSERT_NE(answerer_->dict().encoding(), nullptr);
  Reformulator ref(&answerer_->schema(), {}, &answerer_->dict());
  for (const Shape& shape : Shapes()) {
    Result<Ucq> ucq = ref.Reformulate(Parse(shape.body));
    ASSERT_TRUE(ucq.ok()) << shape.name;
    EXPECT_EQ(ucq->size(), shape.members) << shape.name;
  }
}

TEST_F(EncodedSp2bTest, NoMemberKeepsAPointAtomItsIntervalCovers) {
  ReformulationOptions worklist;
  worklist.force_worklist = true;
  const Reformulator product(&answerer_->schema(), {}, &answerer_->dict());
  const Reformulator general(&answerer_->schema(), worklist,
                             &answerer_->dict());
  const IncompleteReformulator incomplete(&answerer_->schema(), {},
                                          &answerer_->dict());
  for (const Reformulator* ref : {&product, &general,
                                  static_cast<const Reformulator*>(
                                      &incomplete)}) {
    for (const Shape& shape : Shapes()) {
      const Cq q = Parse(shape.body);
      Result<Ucq> ucq = ref->Reformulate(q);
      ASSERT_TRUE(ucq.ok()) << shape.name;
      for (const Cq& member : ucq->members()) {
        for (const Atom& a : member.body()) {
          EXPECT_FALSE(CoveredPointAtom(a))
              << shape.name << ": " << member.ToString(answerer_->dict());
        }
      }
      // The column labels of a union come from its first member.
      EXPECT_EQ(ucq->members()[0].head(), q.head()) << shape.name;
      for (const Atom& atom : q.body()) {
        for (const AtomReformulation& m : ref->ReformulateAtom(q, atom)) {
          EXPECT_FALSE(CoveredPointAtom(m.atom)) << shape.name;
        }
      }
    }
  }
}

TEST_F(EncodedSp2bTest, ProductAndWorklistAgreeAndCountMatches) {
  ReformulationOptions worklist;
  worklist.force_worklist = true;
  const Reformulator product(&answerer_->schema(), {}, &answerer_->dict());
  const Reformulator general(&answerer_->schema(), worklist,
                             &answerer_->dict());
  auto keys = [](const Ucq& ucq) {
    std::set<std::string> out;
    for (const Cq& cq : ucq.members()) out.insert(cq.CanonicalKey());
    return out;
  };
  for (const Shape& shape : Shapes()) {
    const Cq q = Parse(shape.body);
    Result<Ucq> a = product.Reformulate(q);
    Result<Ucq> b = general.Reformulate(q);
    ASSERT_TRUE(a.ok() && b.ok()) << shape.name;
    EXPECT_EQ(keys(*a), keys(*b)) << shape.name;
    Result<uint64_t> na = product.CountReformulations(q);
    Result<uint64_t> nb = general.CountReformulations(q);
    ASSERT_TRUE(na.ok() && nb.ok()) << shape.name;
    EXPECT_EQ(*na, a->size()) << shape.name;
    EXPECT_EQ(*nb, b->size()) << shape.name;
  }
}

TEST_F(EncodedSp2bTest, AbsorbedMembersDoNotCountAgainstTheBudget) {
  // T2's union holds 20 live members; the worklist also expands the point
  // members their intervals absorbed, which must not trip a budget the
  // produced UCQ fits.
  ReformulationOptions options;
  options.force_worklist = true;
  options.max_cqs = 20;
  const Reformulator ref(&answerer_->schema(), options, &answerer_->dict());
  Result<Ucq> ucq =
      ref.Reformulate(Parse("SELECT ?d WHERE { ?d a sp:Publication . }"));
  ASSERT_TRUE(ucq.ok()) << ucq.status();
  EXPECT_EQ(ucq->size(), 20u);
  options.max_cqs = 19;
  const Reformulator tight(&answerer_->schema(), options, &answerer_->dict());
  EXPECT_EQ(tight.Reformulate(Parse("SELECT ?d WHERE { ?d a sp:Publication . }"))
                .status()
                .code(),
            StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace reformulation
}  // namespace rdfref
