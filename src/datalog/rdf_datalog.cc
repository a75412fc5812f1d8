#include "datalog/rdf_datalog.h"

#include <span>

#include "common/timer.h"
#include "rdf/vocab.h"

namespace rdfref {
namespace datalog {

namespace {
using query::QTerm;
namespace vocab = rdf::vocab;

DlTerm V(uint32_t v) { return DlTerm::Var(v); }
DlTerm C(rdf::TermId c) { return DlTerm::Const(c); }
}  // namespace

DatalogAnswerer::DatalogAnswerer(const storage::TripleSource* source)
    : store_(source) {
  triple_ = program_.AddPredicate("triple", 3);
  resource_ = program_.AddPredicate("resource", 1);
  tri_ = program_.AddPredicate("tri", 3);

  // IDB: tri = the RDFS closure. Variables are rule-local: 0=S, 1=P/C1,
  // 2=O/C2, 3=auxiliary.
  auto add = [this](DlRule rule) { (void)program_.AddRule(std::move(rule)); };

  // Base: every explicit triple is entailed.
  add({DlAtom(tri_, {V(0), V(1), V(2)}),
       {DlAtom(triple_, {V(0), V(1), V(2)})}});
  // Schema level — (S1) subclass transitivity, (S2) subproperty
  // transitivity, (S3)/(S4) domain/range up the class hierarchy,
  // (S5)/(S6) domain/range down the property hierarchy.
  add({DlAtom(tri_, {V(0), C(vocab::kSubClassOfId), V(2)}),
       {DlAtom(tri_, {V(0), C(vocab::kSubClassOfId), V(1)}),
        DlAtom(tri_, {V(1), C(vocab::kSubClassOfId), V(2)})}});
  add({DlAtom(tri_, {V(0), C(vocab::kSubPropertyOfId), V(2)}),
       {DlAtom(tri_, {V(0), C(vocab::kSubPropertyOfId), V(1)}),
        DlAtom(tri_, {V(1), C(vocab::kSubPropertyOfId), V(2)})}});
  add({DlAtom(tri_, {V(0), C(vocab::kDomainId), V(2)}),
       {DlAtom(tri_, {V(0), C(vocab::kDomainId), V(1)}),
        DlAtom(tri_, {V(1), C(vocab::kSubClassOfId), V(2)})}});
  add({DlAtom(tri_, {V(0), C(vocab::kRangeId), V(2)}),
       {DlAtom(tri_, {V(0), C(vocab::kRangeId), V(1)}),
        DlAtom(tri_, {V(1), C(vocab::kSubClassOfId), V(2)})}});
  add({DlAtom(tri_, {V(0), C(vocab::kDomainId), V(2)}),
       {DlAtom(tri_, {V(0), C(vocab::kSubPropertyOfId), V(1)}),
        DlAtom(tri_, {V(1), C(vocab::kDomainId), V(2)})}});
  add({DlAtom(tri_, {V(0), C(vocab::kRangeId), V(2)}),
       {DlAtom(tri_, {V(0), C(vocab::kSubPropertyOfId), V(1)}),
        DlAtom(tri_, {V(1), C(vocab::kRangeId), V(2)})}});
  // Instance level — (rdfs9) subclass, (rdfs7) subproperty, (rdfs2)
  // domain, (rdfs3) range (restricted to resources).
  add({DlAtom(tri_, {V(0), C(vocab::kTypeId), V(2)}),
       {DlAtom(tri_, {V(0), C(vocab::kTypeId), V(1)}),
        DlAtom(tri_, {V(1), C(vocab::kSubClassOfId), V(2)})}});
  add({DlAtom(tri_, {V(0), V(2), V(3)}),
       {DlAtom(tri_, {V(0), V(1), V(3)}),
        DlAtom(tri_, {V(1), C(vocab::kSubPropertyOfId), V(2)})}});
  add({DlAtom(tri_, {V(0), C(vocab::kTypeId), V(2)}),
       {DlAtom(tri_, {V(0), V(1), V(3)}),
        DlAtom(tri_, {V(1), C(vocab::kDomainId), V(2)})}});
  add({DlAtom(tri_, {V(3), C(vocab::kTypeId), V(2)}),
       {DlAtom(tri_, {V(0), V(1), V(3)}),
        DlAtom(tri_, {V(1), C(vocab::kRangeId), V(2)}),
        DlAtom(resource_, {V(3)})}});
}

void DatalogAnswerer::EnsureClosure() {
  if (ran_) return;
  ran_ = true;
  Timer timer;
  evaluator_ = std::make_unique<SemiNaive>(&program_);
  // EDB: the explicit triples, read in one batch straight into the triple
  // relation, and the non-literal values.
  storage::PatternCursor cursor;
  for (const rdf::Triple& t :
       cursor.Reset(*store_, storage::kAny, storage::kAny, storage::kAny)) {
    const rdf::TermId tuple[3] = {t.s, t.p, t.o};
    evaluator_->InsertFact(triple_, tuple);
  }
  const rdf::Dictionary& dict = store_->dict();
  // Dense 0..size-1 enumeration of every dictionary entry — valid under
  // any id permutation.  // rdfref-check: allow(termid-arith)
  for (rdf::TermId id = 0; id < dict.size(); ++id) {
    if (!dict.Lookup(id).is_literal()) {
      evaluator_->InsertFact(resource_, std::span<const rdf::TermId>(&id, 1));
    }
  }
  evaluator_->Run();
  closure_millis_ = timer.ElapsedMillis();
}

size_t DatalogAnswerer::closure_size() const {
  return evaluator_ == nullptr ? 0 : evaluator_->relation(tri_).size();
}

Result<engine::Table> DatalogAnswerer::Answer(const query::Cq& q) {
  if (q.body().empty()) {
    return Status::InvalidArgument("empty BGP");
  }
  EnsureClosure();

  // ans(head) :- tri(t1), ..., tri(tα). Query variables map to rule
  // variables with the same numbering.
  DlRule rule;
  auto dlterm = [](const QTerm& t) {
    return t.is_var ? DlTerm::Var(t.var()) : DlTerm::Const(t.term());
  };
  std::vector<DlTerm> head_args;
  for (const QTerm& h : q.head()) head_args.push_back(dlterm(h));
  // The head predicate is synthetic; EvaluateRuleOnce never stores it, so a
  // throwaway predicate id keeps the program unchanged across queries.
  DlAtom head;
  head.pred = tri_;  // unused by EvaluateRuleOnce except for args
  head.args = std::move(head_args);
  rule.head = head;
  for (const query::Atom& a : q.body()) {
    rule.body.push_back(
        DlAtom(tri_, {dlterm(a.s), dlterm(a.p), dlterm(a.o)}));
  }
  for (query::VarId v : q.resource_vars()) {
    rule.body.push_back(DlAtom(resource_, {DlTerm::Var(v)}));
  }

  engine::Table table = evaluator_->EvaluateRuleOnce(rule);
  for (const QTerm& h : q.head()) {
    table.columns.push_back(h.is_var ? h.var() : engine::kConstColumn);
  }
  table.Dedup();
  return table;
}

}  // namespace datalog
}  // namespace rdfref
