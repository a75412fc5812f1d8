#include "datalog/seminaive.h"

#include <algorithm>
#include <utility>

namespace rdfref {
namespace datalog {

namespace {
constexpr rdf::TermId kUnbound = rdf::kInvalidTermId;
}  // namespace

DlRelation::DlRelation(size_t arity)
    : arity_(arity), set_(arity, 0, arity) {
  columns_.reserve(arity);
  for (size_t c = 0; c < arity; ++c) columns_.emplace_back(arity, c, 1);
}

bool DlRelation::Insert(std::span<const rdf::TermId> tuple) {
  // Stage the tuple as row size_ of the arena; keep it only when new.
  data_.insert(data_.end(), tuple.begin(), tuple.end());
  if (set_.FindOrInsert(data_.data(), size_) != size_) {
    data_.resize(size_ * arity_);
    return false;
  }
  for (engine::RowIndex& column : columns_) column.Append(data_.data(), size_);
  ++size_;
  return true;
}

SemiNaive::SemiNaive(const Program* program) : program_(program) {
  relations_.reserve(program->num_predicates());
  for (PredId p = 0; p < program->num_predicates(); ++p) {
    relations_.emplace_back(program->arity(p));
  }
}

size_t SemiNaive::CountRuleVars(const DlRule& rule) {
  uint32_t max_var = 0;
  bool any = false;
  auto visit = [&](const DlAtom& atom) {
    for (const DlTerm& t : atom.args) {
      if (t.is_var) {
        max_var = std::max(max_var, t.id);
        any = true;
      }
    }
  };
  visit(rule.head);
  for (const DlAtom& a : rule.body) visit(a);
  return any ? max_var + 1 : 0;
}

// One rule-body join in progress. order[0, depth) are joined, order[depth,
// n) pending; JoinBody permutes the pending suffix only.
struct SemiNaive::Join {
  const DlAtom* head;
  std::vector<const DlAtom*> order;
  std::vector<rdf::TermId> bindings;
  // Semi-naive delta: when set, order[0] reads only the tuples
  // [delta_lo, delta_hi) of its relation and is joined first.
  bool has_delta = false;
  size_t delta_lo = 0;
  size_t delta_hi = 0;
  engine::Table* out;
};

void SemiNaive::JoinBody(Join* join, size_t depth) const {
  std::vector<rdf::TermId>& bindings = join->bindings;
  if (depth == join->order.size()) {
    rdf::TermId* slot = join->out->AppendUninitialized();
    const std::vector<DlTerm>& args = join->head->args;
    for (size_t k = 0; k < args.size(); ++k) {
      slot[k] = args[k].is_var ? bindings[args[k].id] : args[k].id;
    }
    return;
  }

  // The access path of an atom: a full scan, or the posting chain of its
  // most selective constant-or-bound column.
  struct Access {
    size_t cost;
    bool chained = false;
    engine::RowIndex::Chain chain;
  };
  auto best_access = [&](const DlAtom& atom, size_t scan_cost) {
    const DlRelation& rel = relations_[atom.pred];
    Access access{scan_cost, false, {}};
    for (size_t i = 0; i < atom.args.size() && access.cost > 0; ++i) {
      const DlTerm& t = atom.args[i];
      const rdf::TermId value = t.is_var ? bindings[t.id] : t.id;
      if (value == kUnbound) continue;
      engine::RowIndex::Chain chain = rel.Matching(i, value);
      if (chain.size() < access.cost) access = {chain.size(), true, chain};
    }
    return access;
  };

  const bool delta = depth == 0 && join->has_delta;
  Access access{0, false, {}};
  if (delta) {
    access = best_access(*join->order[0], join->delta_hi - join->delta_lo);
  } else {
    // Bound-first: the pending atom with the shortest access path next.
    size_t pick = depth;
    for (size_t j = depth; j < join->order.size(); ++j) {
      const DlAtom& atom = *join->order[j];
      Access candidate = best_access(atom, relations_[atom.pred].size());
      if (j == depth || candidate.cost < access.cost) {
        access = candidate;
        pick = j;
      }
      if (access.cost == 0) return;  // an empty chain: no match below
    }
    std::swap(join->order[depth], join->order[pick]);
  }
  if (access.cost == 0) return;

  const DlAtom& atom = *join->order[depth];
  const DlRelation& rel = relations_[atom.pred];
  auto try_tuple = [&](std::span<const rdf::TermId> tuple) {
    // Program::AddRule bounds body-atom arity to kMaxBodyArity.
    uint32_t newly[kMaxBodyArity];
    int num_new = 0;
    bool ok = true;
    for (size_t i = 0; i < atom.args.size() && ok; ++i) {
      const DlTerm& t = atom.args[i];
      if (!t.is_var) {
        ok = tuple[i] == t.id;
      } else {
        rdf::TermId& slot = bindings[t.id];
        if (slot == kUnbound) {
          slot = tuple[i];
          newly[num_new++] = t.id;
        } else {
          ok = slot == tuple[i];
        }
      }
    }
    if (ok) JoinBody(join, depth + 1);
    for (int k = 0; k < num_new; ++k) bindings[newly[k]] = kUnbound;
  };

  // Relations do not grow during a join (derived tuples are buffered in
  // `out`), so chains and tuple views stay valid throughout.
  if (access.chained) {
    for (uint32_t row : access.chain) {
      // Chains list tuples in insertion order, i.e. ascending row ids.
      if (delta && row >= join->delta_hi) break;
      if (delta && row < join->delta_lo) continue;
      try_tuple(rel.tuple(row));
    }
  } else {
    const size_t lo = delta ? join->delta_lo : 0;
    const size_t hi = delta ? join->delta_hi : rel.size();
    for (size_t row = lo; row < hi; ++row) try_tuple(rel.tuple(row));
  }
}

void SemiNaive::Run() {
  if (ran_) return;
  ran_ = true;

  // Program facts join the tuples loaded through InsertFact.
  for (PredId p = 0; p < program_->num_predicates(); ++p) {
    for (const std::vector<rdf::TermId>& fact : program_->facts()[p]) {
      relations_[p].Insert(fact);
    }
  }
  // Relations are append-only, so each predicate's delta is a tuple range:
  // the first delta is everything, each later one what the previous
  // iteration added.
  const size_t num_preds = relations_.size();
  std::vector<size_t> lo(num_preds, 0), hi(num_preds);
  for (PredId p = 0; p < num_preds; ++p) hi[p] = relations_[p].size();

  iterations_ = 0;
  while (true) {
    ++iterations_;
    for (const DlRule& rule : program_->rules()) {
      for (size_t i = 0; i < rule.body.size(); ++i) {
        const PredId pred = rule.body[i].pred;
        if (lo[pred] == hi[pred]) continue;
        // Evaluate with body atom i restricted to the delta; it leads the
        // join so the delta drives it.
        engine::Table derived;
        derived.SetArity(rule.head.args.size());
        Join join{&rule.head, {}, std::vector<rdf::TermId>(
                                      CountRuleVars(rule), kUnbound),
                  true, lo[pred], hi[pred], &derived};
        join.order.reserve(rule.body.size());
        join.order.push_back(&rule.body[i]);
        for (size_t j = 0; j < rule.body.size(); ++j) {
          if (j != i) join.order.push_back(&rule.body[j]);
        }
        JoinBody(&join, 0);
        DlRelation& target = relations_[rule.head.pred];
        for (size_t r = 0; r < derived.NumRows(); ++r) {
          target.Insert(derived.row(r));
        }
      }
    }
    bool any_new = false;
    for (PredId p = 0; p < num_preds; ++p) {
      lo[p] = hi[p];
      hi[p] = relations_[p].size();
      any_new = any_new || lo[p] != hi[p];
    }
    if (!any_new) break;
  }
}

size_t SemiNaive::TotalTuples() const {
  size_t total = 0;
  for (const DlRelation& r : relations_) total += r.size();
  return total;
}

engine::Table SemiNaive::EvaluateRuleOnce(const DlRule& rule) const {
  engine::Table out;
  out.SetArity(rule.head.args.size());
  Join join{&rule.head, {},
            std::vector<rdf::TermId>(CountRuleVars(rule), kUnbound),
            false, 0, 0, &out};
  for (const DlAtom& a : rule.body) join.order.push_back(&a);
  JoinBody(&join, 0);
  return out;
}

}  // namespace datalog
}  // namespace rdfref
