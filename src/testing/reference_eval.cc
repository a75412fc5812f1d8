#include "testing/reference_eval.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <set>
#include <sstream>
#include <vector>

#include "api/query_answering.h"
#include "engine/evaluator.h"
#include "reformulation/reformulator.h"
#include "storage/version_set.h"

namespace rdfref {
namespace testing {

namespace {

using query::Atom;
using query::Cq;
using query::QTerm;
using query::VarId;

constexpr rdf::TermId kUnbound = rdf::kInvalidTermId;

rdf::TermId Resolve(const QTerm& t, const std::vector<rdf::TermId>& bindings) {
  if (!t.is_var) return t.term();
  rdf::TermId v = bindings[t.var()];
  return v == kUnbound ? storage::kAny : v;
}

// Sum over up to 8 rows at fixed strides of atom `first`'s matches of
// atom `cand`'s match count with `first`'s variables bound from the row:
// the engine's depth-1 fan-out sample, recomputed through the batch API.
uint64_t ReferenceFanOut(const storage::TripleSource& store, const Cq& q,
                         int first, int cand) {
  const Atom& lead = q.body()[first];
  const Atom& a = q.body()[cand];
  std::vector<rdf::TermId> bindings(q.num_vars(), kUnbound);
  const rdf::TermId s = Resolve(lead.s, bindings);
  const rdf::TermId p = Resolve(lead.p, bindings);
  const rdf::TermId o = Resolve(lead.o, bindings);
  storage::PatternCursor cursor;
  const std::span<const rdf::Triple> leaf =
      lead.has_range()
          ? cursor.ResetInterval(store, s, p, o, lead.range_pos,
                                 lead.range_hi)
          : cursor.Reset(store, s, p, o);
  const size_t samples = std::min<size_t>(8, leaf.size());
  uint64_t sum = 0;
  for (size_t k = 0; k < samples; ++k) {
    const rdf::Triple& row = leaf[k * leaf.size() / samples];
    if (lead.s.is_var) bindings[lead.s.var()] = row.s;
    if (lead.p.is_var) bindings[lead.p.var()] = row.p;
    if (lead.o.is_var) bindings[lead.o.var()] = row.o;
    const rdf::TermId cs = Resolve(a.s, bindings);
    const rdf::TermId cp = Resolve(a.p, bindings);
    const rdf::TermId co = Resolve(a.o, bindings);
    sum += a.has_range() ? store.CountIntervalMatches(cs, cp, co, a.range_pos,
                                                      a.range_hi)
                         : store.CountMatches(cs, cp, co);
  }
  return sum;
}

// The seed engine's greedy join order, kept with its original O(n²)
// std::set bookkeeping, plus the engine's sampled depth-1 pick: the
// reference must agree with the engine's order (the counts are the same
// store answers), not share its code.
std::vector<int> ReferenceOrderAtoms(const storage::TripleSource& store,
                                     const Cq& q) {
  const std::vector<Atom>& body = q.body();
  const int n = static_cast<int>(body.size());
  std::vector<uint64_t> base(n);
  for (int i = 0; i < n; ++i) {
    rdf::TermId s = body[i].s.is_var ? storage::kAny : body[i].s.term();
    rdf::TermId p = body[i].p.is_var ? storage::kAny : body[i].p.term();
    rdf::TermId o = body[i].o.is_var ? storage::kAny : body[i].o.term();
    base[i] = body[i].has_range()
                  ? store.CountIntervalMatches(s, p, o, body[i].range_pos,
                                               body[i].range_hi)
                  : store.CountMatches(s, p, o);
  }
  std::vector<int> order;
  std::vector<bool> used(n, false);
  std::set<VarId> bound_vars;
  for (int step = 0; step < n; ++step) {
    auto connected_to_bound = [&](int i) {
      std::set<VarId> vars = Cq::AtomVars(body[i]);
      return std::any_of(vars.begin(), vars.end(), [&](VarId v) {
        return bound_vars.count(v) > 0;
      });
    };
    // Depth 1 is ranked by sampled fan-out when at least two connected
    // atoms compete, the first atom repeats no variable and the source's
    // counts are local.
    std::vector<uint64_t> fan_out(n, 0);
    if (step == 1 && store.HasLocalCounts()) {
      const Atom& lead = body[order[0]];
      const size_t var_positions =
          lead.s.is_var + lead.p.is_var + lead.o.is_var;
      std::vector<int> candidates;
      for (int i = 0; i < n; ++i) {
        if (!used[i] && connected_to_bound(i)) candidates.push_back(i);
      }
      if (candidates.size() >= 2 &&
          Cq::AtomVars(lead).size() == var_positions) {
        for (int i : candidates) {
          fan_out[i] = ReferenceFanOut(store, q, order[0], i);
        }
      }
    }
    int best = -1;
    bool best_connected = false;
    for (int i = 0; i < n; ++i) {
      if (used[i]) continue;
      bool connected = step == 0 || connected_to_bound(i);
      bool better =
          best == -1 || (connected && !best_connected) ||
          (connected == best_connected &&
           (fan_out[i] < fan_out[best] ||
            (fan_out[i] == fan_out[best] && base[i] < base[best])));
      if (better) {
        best = i;
        best_connected = connected;
      }
    }
    used[best] = true;
    order.push_back(best);
    std::set<VarId> vars = Cq::AtomVars(body[best]);
    bound_vars.insert(vars.begin(), vars.end());
  }
  return order;
}

// The seed engine's recursive nested-loop join: one materialized row
// vector per emitted head tuple.
void ReferenceEvaluateCqInto(const storage::TripleSource& store, const Cq& q,
                             std::vector<std::vector<rdf::TermId>>* out) {
  const std::vector<Atom>& body = q.body();
  if (body.empty()) return;
  std::vector<int> order = ReferenceOrderAtoms(store, q);
  std::vector<rdf::TermId> bindings(q.num_vars(), kUnbound);
  std::vector<char> resource_only(q.num_vars(), 0);
  for (VarId v : q.resource_vars()) resource_only[v] = 1;
  const rdf::Dictionary& dict = store.dict();

  auto emit = [&]() {
    std::vector<rdf::TermId> row;
    row.reserve(q.head().size());
    for (const QTerm& h : q.head()) {
      row.push_back(h.is_var ? bindings[h.var()] : h.term());
    }
    out->push_back(std::move(row));
  };

  std::function<void(size_t)> recurse = [&](size_t depth) {
    if (depth == order.size()) {
      emit();
      return;
    }
    const Atom& atom = body[order[depth]];
    rdf::TermId ps = Resolve(atom.s, bindings);
    rdf::TermId pp = Resolve(atom.p, bindings);
    rdf::TermId po = Resolve(atom.o, bindings);
    auto per_triple = [&](const rdf::Triple& t) {
      VarId newly[3];
      int num_new = 0;
      auto bind = [&](const QTerm& qt, rdf::TermId value) -> bool {
        if (!qt.is_var) return true;
        rdf::TermId& slot = bindings[qt.var()];
        if (slot == kUnbound) {
          if (resource_only[qt.var()] && dict.Lookup(value).is_literal()) {
            return false;
          }
          slot = value;
          newly[num_new++] = qt.var();
          return true;
        }
        return slot == value;
      };
      bool ok = bind(atom.s, t.s) && bind(atom.p, t.p) && bind(atom.o, t.o);
      if (ok) recurse(depth + 1);
      for (int k = 0; k < num_new; ++k) bindings[newly[k]] = kUnbound;
    };
    if (atom.has_range()) {
      // Interval atom: iterate exactly what the engine's interval access
      // path delivers (same order — the bit-for-bit comparison depends on
      // the enumeration order, not just the set).
      storage::PatternCursor cursor;
      for (const rdf::Triple& t : cursor.ResetInterval(
               store, ps, pp, po, atom.range_pos, atom.range_hi)) {
        per_triple(t);
      }
    } else {
      store.Scan(ps, pp, po, per_triple);
    }
  };
  recurse(0);
}

// Seed-order dedup: keep the first occurrence of each row, in order.
void ReferenceDedup(std::vector<std::vector<rdf::TermId>>* rows) {
  // An ordered set: independent of the engine's hashing kernel.
  std::set<std::vector<rdf::TermId>> seen;
  std::vector<std::vector<rdf::TermId>> kept;
  kept.reserve(rows->size());
  for (std::vector<rdf::TermId>& row : *rows) {
    if (seen.insert(row).second) kept.push_back(std::move(row));
  }
  *rows = std::move(kept);
}

engine::Table ToTable(std::vector<query::VarId> columns,
                      const std::vector<std::vector<rdf::TermId>>& rows,
                      size_t arity) {
  engine::Table t;
  t.columns = std::move(columns);
  t.SetArity(arity);
  for (const std::vector<rdf::TermId>& row : rows) t.AppendRow(row);
  return t;
}

std::vector<query::VarId> HeadColumns(const Cq& q) {
  std::vector<query::VarId> columns;
  columns.reserve(q.head().size());
  for (const QTerm& h : q.head()) {
    columns.push_back(h.is_var ? h.var() : engine::kConstColumn);
  }
  return columns;
}

}  // namespace

Divergence CompareBitForBit(const std::string& relation,
                            const engine::Table& columnar,
                            const engine::Table& reference, const Cq& q,
                            const rdf::Dictionary& dict) {
  std::ostringstream os;
  if (columnar.columns != reference.columns) {
    os << "column labels differ: columnar has " << columnar.columns.size()
       << ", reference has " << reference.columns.size();
  } else if (columnar.NumRows() != reference.NumRows()) {
    os << "row counts differ: columnar " << columnar.NumRows()
       << ", reference " << reference.NumRows();
  } else {
    for (size_t r = 0; r < reference.NumRows(); ++r) {
      const auto a = columnar.row(r);
      const auto b = reference.row(r);
      if (!std::equal(a.begin(), a.end(), b.begin(), b.end())) {
        os << "row " << r << " differs";
        break;
      }
    }
  }
  std::string diff = os.str();
  if (diff.empty()) return Divergence::None();
  os << "\nquery: " << q.ToString(dict);
  return Divergence::Of(relation, os.str());
}

engine::Table ReferenceEvaluateCq(const storage::TripleSource& source,
                                  const query::Cq& q) {
  std::vector<std::vector<rdf::TermId>> rows;
  ReferenceEvaluateCqInto(source, q, &rows);
  ReferenceDedup(&rows);
  return ToTable(HeadColumns(q), rows, q.head().size());
}

engine::Table ReferenceEvaluateUcq(const storage::TripleSource& source,
                                   const query::Ucq& ucq) {
  std::vector<std::vector<rdf::TermId>> rows;
  for (const Cq& member : ucq.members()) {
    ReferenceEvaluateCqInto(source, member, &rows);
  }
  ReferenceDedup(&rows);
  if (ucq.empty()) return engine::Table();
  return ToTable(HeadColumns(ucq.members()[0]), rows,
                 ucq.members()[0].head().size());
}

Divergence CheckColumnarVsReference(const Scenario& sc,
                                    const query::Cq& scenario_q) {
  api::QueryAnswerer answerer(sc.graph.Clone());
  const query::Cq q =
      TranslateQuery(scenario_q, sc.graph.dict(), &answerer.dict());
  storage::SnapshotPtr pinned = answerer.PinSnapshot();
  const storage::TripleSource& source = *pinned;
  const rdf::Dictionary& dict = answerer.dict();
  engine::Evaluator sequential(&source);

  // 1. Plain CQ over the explicit database.
  {
    engine::Table fast = sequential.EvaluateCq(q);
    engine::Table ref = ReferenceEvaluateCq(source, q);
    Divergence d = CompareBitForBit("columnar:cq", fast, ref, q, dict);
    if (d.found) return d;
  }

  // 2. The full UCQ reformulation — the path the scan memo accelerates.
  reformulation::Reformulator reformulator(&answerer.schema(), {}, &dict);
  auto ucq = reformulator.Reformulate(q);
  if (!ucq.ok()) return Divergence::None();  // reformulation budget blown
  engine::Table ref = ReferenceEvaluateUcq(source, *ucq);
  {
    engine::Table fast = sequential.EvaluateUcq(*ucq);
    Divergence d = CompareBitForBit("columnar:ucq", fast, ref, q, dict);
    if (d.found) return d;
  }

  // 3. The parallel chunk path shares the same cache and must still be
  // bit-identical (chunk concatenation reproduces the sequential order).
  {
    engine::Evaluator parallel(&source, 8);
    engine::Table fast = parallel.EvaluateUcq(*ucq);
    Divergence d =
        CompareBitForBit("columnar:ucq-parallel", fast, ref, q, dict);
    if (d.found) return d;
  }
  return Divergence::None();
}

}  // namespace testing
}  // namespace rdfref
